package epoll_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/epoll"
	"repro/internal/netsim"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

// The fourth event mechanism, in isolation.
//
// This example drives the simulated epoll interface directly — the successor
// mechanism Linux adopted after the paper's /dev/poll and RT-signal
// experiments — and contrasts its two trigger modes on the same workload. A
// level-triggered instance keeps reporting a descriptor while request bytes
// remain unread; an edge-triggered instance reports each readiness transition
// exactly once. Both share the kernel-resident interest engine
// (internal/interest) with the other mechanisms, so a wait touches only the
// ready list no matter how many idle descriptors are registered.
func ExampleOptions() {
	k := simkernel.NewKernel(nil)
	net := netsim.New(k, netsim.DefaultConfig())
	proc := k.NewProc("epoll-example")
	api := netsim.NewSockAPI(k, proc, net)

	// One level-triggered and one edge-triggered instance watch the same
	// descriptors (a process may hold many epoll instances).
	lt := epoll.Open(k, proc, epoll.Options{EdgeTriggered: false})
	et := epoll.Open(k, proc, epoll.Options{EdgeTriggered: true})

	// A listener plus three connections: one active, two idle.
	var lfd *simkernel.FD
	proc.Batch(k.Now(), func() {
		lfd, _ = api.Listen()
		for _, ep := range []*epoll.Epoll{lt, et} {
			if err := ep.Add(lfd.Num, core.POLLIN); err != nil {
				panic(err)
			}
		}
	}, nil)

	active := net.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{})
	net.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{})
	net.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{})
	k.Sim.Run()

	// Accept everything and register each connection with both instances.
	proc.Batch(k.Now(), func() {
		for {
			fd, _, err := api.Accept(lfd)
			if err != nil {
				break
			}
			for _, ep := range []*epoll.Epoll{lt, et} {
				if err := ep.Add(fd.Num, core.POLLIN); err != nil {
					panic(err)
				}
			}
		}
	}, nil)
	k.Sim.Run()
	fmt.Printf("interest sets: LT holds %d descriptors, ET holds %d\n", lt.Len(), et.Len())

	// The active client sends 64 bytes of request data: one readiness
	// transition, observed by both instances.
	active.Send(k.Now(), make([]byte, 64))
	k.Sim.Run()

	collect := func(label string, ep *epoll.Epoll) int {
		n := 0
		ep.Wait(16, 0, func(events []core.Event, now core.Time) {
			n = len(events)
			fmt.Printf("at %v %s epoll_wait returned %d event(s)\n", now, label, len(events))
			for _, ev := range events {
				fmt.Printf("  fd %d ready for %v\n", ev.FD, ev.Ready)
			}
		})
		k.Sim.Run()
		return n
	}

	// First wait: both modes report the readable connection.
	collect("LT", lt)
	collect("ET", et)

	// Second wait without reading the data: level-triggered reports it again,
	// edge-triggered stays silent until the next transition.
	ltAgain := collect("LT", lt)
	etAgain := collect("ET", et)
	fmt.Printf("unread data redelivered: LT=%d event(s), ET=%d event(s)\n", ltAgain, etAgain)

	ltStats, etStats := lt.MechanismStats(), et.MechanismStats()
	fmt.Printf("LT stats: waits=%d driver-polls=%d events=%d\n",
		ltStats.Waits, ltStats.DriverPolls, ltStats.EventsReturned)
	fmt.Printf("ET stats: waits=%d driver-polls=%d events=%d\n",
		etStats.Waits, etStats.DriverPolls, etStats.EventsReturned)
	fmt.Printf("simulated CPU time consumed: %v\n", k.CPU.Busy)

	// Output:
	// interest sets: LT holds 4 descriptors, ET holds 4
	// at 0.000393s LT epoll_wait returned 1 event(s)
	//   fd 4 ready for POLLIN
	// at 0.000395s ET epoll_wait returned 2 event(s)
	//   fd 3 ready for POLLIN
	//   fd 4 ready for POLLIN
	// at 0.000398s LT epoll_wait returned 1 event(s)
	//   fd 4 ready for POLLIN
	// at 0.000400s ET epoll_wait returned 0 event(s)
	// unread data redelivered: LT=1 event(s), ET=0 event(s)
	// LT stats: waits=2 driver-polls=7 events=2
	// ET stats: waits=2 driver-polls=4 events=2
	// simulated CPU time consumed: 129.70µs
}
