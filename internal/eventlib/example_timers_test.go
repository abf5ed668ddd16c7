package eventlib_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/netsim"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

// The callback API on a mixed read+timer workload.
//
// One EventBase (epoll backend) multiplexes three kinds of work, the
// composition the hand-rolled server loops could not express without
// duplicating dispatch code:
//
//   - persistent read events on two client connections;
//   - a persistent housekeeping timer every 15 ms, which keeps firing on
//     schedule whether or not I/O arrives;
//   - a one-shot watchdog timer that re-adds itself from inside its own
//     callback, the libevent idiom for adaptive timers.
//
// Each dispatch iteration runs the callbacks its wait made ready, then those of
// its expired timers, before waiting again. Everything runs in virtual time on
// the simulated CPU, so the printout is deterministic and the CPU cost of the
// event machinery itself is visible.
func ExampleBase_NewTimer() {
	k := simkernel.NewKernel(nil)
	net := netsim.New(k, netsim.DefaultConfig())
	proc := k.NewProc("eventlib-demo")
	api := netsim.NewSockAPI(k, proc, net)

	base, err := eventlib.New(k, proc, eventlib.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("event base on %q\n", base.Poller().Name())

	// Accept connections and give each a persistent read event.
	var lfd *simkernel.FD
	reads := 0
	proc.Batch(k.Now(), func() {
		lfd, _ = api.Listen()
		acceptEv := base.NewEvent(lfd.Num, eventlib.EvRead|eventlib.EvPersist,
			func(_ int, _ eventlib.What, now core.Time) {
				for {
					fd, _, err := api.Accept(lfd)
					if err != nil {
						return
					}
					var ev *eventlib.Event
					ev = base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist,
						func(cfd int, _ eventlib.What, now core.Time) {
							data, eof := api.Read(fd, 0)
							if len(data) > 0 {
								reads++
								fmt.Printf("at %v [read] fd %d: %d bytes\n", now, cfd, len(data))
								api.Write(fd, 64)
							}
							if eof {
								_ = ev.Del()
								api.Close(fd)
							}
						})
					if err := ev.Add(0); err != nil {
						panic(err)
					}
				}
			})
		if err := acceptEv.Add(0); err != nil {
			panic(err)
		}
	}, nil)

	// Periodic housekeeping: a persistent timer re-arms itself on every firing.
	housekeeping := base.NewTimer(eventlib.EvPersist, func(_ int, _ eventlib.What, now core.Time) {
		fmt.Printf("at %v [housekeeping] %d reads so far\n", now, reads)
	})
	if err := housekeeping.Add(15 * core.Millisecond); err != nil {
		panic(err)
	}

	// A one-shot watchdog that re-arms itself from inside its callback,
	// doubling its interval each time — the adaptive-timer idiom.
	interval := 10 * core.Millisecond
	beats := 0
	var watchdog *eventlib.Event
	watchdog = base.NewTimer(0, func(_ int, what eventlib.What, now core.Time) {
		beats++
		fmt.Printf("at %v [watchdog] beat %d (%v), interval now %v\n", now, beats, what, interval*2)
		interval *= 2
		if beats < 3 {
			if err := watchdog.Add(interval); err != nil {
				panic(err)
			}
			return
		}
		fmt.Printf("at %v [watchdog] final beat: shutting the base down\n", now)
		if err := base.Close(); err != nil {
			panic(err)
		}
	})
	if err := watchdog.Add(interval); err != nil {
		panic(err)
	}

	// Two clients send staggered bursts of request data.
	for i, delay := range []core.Duration{3 * core.Millisecond, 8 * core.Millisecond} {
		cc := net.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{})
		size := 32 * (i + 1)
		k.Sim.After(delay, func(now core.Time) { cc.Send(now, make([]byte, size)) })
		k.Sim.After(delay+18*core.Millisecond, func(now core.Time) { cc.Send(now, make([]byte, size)) })
	}

	base.Dispatch()
	k.Sim.Run()

	fmt.Printf("done: %d reads, %d watchdog beats, %d dispatch iterations, CPU %v\n",
		reads, beats, base.Iterations(), k.CPU.Busy)

	// Output:
	// event base on "epoll"
	// at 0.003116s [read] fd 4: 32 bytes
	// at 0.008118s [read] fd 5: 64 bytes
	// at 0.010003s [watchdog] beat 1 (TIMEOUT), interval now 20.000ms
	// at 0.015003s [housekeeping] 2 reads so far
	// at 0.021116s [read] fd 4: 32 bytes
	// at 0.026118s [read] fd 5: 64 bytes
	// at 0.030006s [housekeeping] 4 reads so far
	// at 0.030006s [watchdog] beat 2 (TIMEOUT), interval now 40.000ms
	// at 0.045008s [housekeeping] 4 reads so far
	// at 0.060011s [housekeeping] 4 reads so far
	// at 0.070008s [watchdog] beat 3 (TIMEOUT), interval now 80.000ms
	// at 0.070008s [watchdog] final beat: shutting the base down
	// done: 4 reads, 3 watchdog beats, 11 dispatch iterations, CPU 222.70µs
}
