// Quickstart: the eventlib callback API in five minutes.
//
// This example builds the smallest possible simulation — a kernel, one
// process, a handful of simulated sockets — and drives it through eventlib,
// the libevent-style API the servers use: an EventBase opened on a registry
// backend (here /dev/poll, the paper's §3 mechanism), persistent read events,
// and a timer, all dispatched by callbacks while every operation still
// charges the calibrated cost model.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/netsim"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

func main() {
	// A kernel (virtual clock + simulated CPU + cost model) and one process.
	k := simkernel.NewKernel(nil)
	net := netsim.New(k, netsim.DefaultConfig())
	proc := k.NewProc("quickstart")
	api := netsim.NewSockAPI(k, proc, net)

	// The backend registry replaces per-mechanism constructors: ask for
	// /dev/poll by name, or pass "" for the preferred backend (epoll).
	fmt.Print("registered backends (preference order):")
	for _, b := range eventlib.Backends() {
		fmt.Printf(" %s", b.Name)
	}
	fmt.Println()
	base, err := eventlib.New(k, proc, eventlib.Config{Backend: "devpoll"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("event base running on %q\n", base.Poller().Name())

	// The listener: a persistent read event whose callback accepts and, for
	// each new connection, registers another persistent read event. This is
	// the whole server pattern — no hand-rolled wait loop, no readiness
	// iteration.
	var lfd *simkernel.FD
	served := 0
	proc.Batch(k.Now(), func() {
		lfd, _ = api.Listen()
		acceptEv := base.NewEvent(lfd.Num, eventlib.EvRead|eventlib.EvPersist,
			func(_ int, _ eventlib.What, now core.Time) {
				for {
					fd, _, err := api.Accept(lfd)
					if err != nil {
						return
					}
					fmt.Printf("at %v accepted fd %d\n", now, fd.Num)
					var ev *eventlib.Event
					ev = base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist,
						func(cfd int, what eventlib.What, now core.Time) {
							data, eof := api.Read(fd, 0)
							if len(data) > 0 {
								fmt.Printf("at %v fd %d %v: read %d bytes, replying\n", now, cfd, what, len(data))
								api.Write(fd, 128)
								served++
							}
							if eof {
								// Deleting from inside the callback is safe and
								// deterministic: this event never fires again.
								_ = ev.Del()
								fmt.Printf("at %v fd %d closed by peer\n", now, cfd)
								api.Close(fd)
							}
						})
					if err := ev.Add(0); err != nil {
						log.Fatal(err)
					}
				}
			})
		if err := acceptEv.Add(0); err != nil {
			log.Fatal(err)
		}
	}, nil)

	// A periodic timer shares the loop with the I/O events; the base derives
	// its poll timeouts from its armed timers.
	ticks := 0
	tick := base.NewTimer(eventlib.EvPersist, func(_ int, _ eventlib.What, now core.Time) {
		ticks++
		fmt.Printf("at %v timer tick %d (%d events registered)\n", now, ticks, base.NumEvents())
		if ticks == 3 {
			base.Stop()
		}
	})
	if err := tick.Add(20 * core.Millisecond); err != nil {
		log.Fatal(err)
	}

	// Two clients connect; one sends a request, one stays idle.
	active := net.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{})
	net.ConnectWith(k.Now(), netsim.ConnectOptions{RTT: 100 * core.Millisecond}, &simtest.ConnHooks{})
	k.Sim.After(5*core.Millisecond, func(now core.Time) {
		active.Send(now, make([]byte, 64))
	})

	base.Dispatch()
	k.Sim.Run()

	fmt.Printf("served %d requests over %d dispatch iterations\n", served, base.Iterations())
	if src, ok := base.Poller().(core.StatsSource); ok {
		st := src.MechanismStats()
		fmt.Printf("mechanism stats: waits=%d events=%d driver-polls=%d hint-hits=%d\n",
			st.Waits, st.EventsReturned, st.DriverPolls, st.HintHits)
	}
	fmt.Printf("simulated CPU time consumed: %v\n", k.CPU.Busy)
}
