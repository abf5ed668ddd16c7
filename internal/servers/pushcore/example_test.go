package pushcore_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/servers/pushcore"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

// Server-originated traffic over a mostly idle interest set. The
// request-driven figures measure how much a reply costs; this example
// measures what it costs to merely *hold* connections. A pushcore daemon
// keeps every member readable-registered, and on each 10 ms tick fans a
// 512-byte payload out to 32 members sampled from the set — so with 2000
// members, over 98% of the interest set is idle at any instant, and almost
// all the work is interest-set bookkeeping rather than I/O.
//
// That is the regime where the paper's mechanisms separate hardest: stock
// poll() rebuilds and scans the whole 2000-entry pollfd array every loop,
// while /dev/poll, epoll and the completion ring pay per *event*, i.e. per
// fan-out, no matter how large the idle population grows. RT signals sit in
// between: per-event delivery, but through a bounded queue. The same daemon
// runs on all five mechanisms below; only the CPU column moves.
func Example() {
	// --- 1. A set every mechanism can hold --------------------------------
	// At 400 members all five mechanisms subscribe everyone and fire every
	// tick; the CPU column already separates them, because poll pays for 400
	// registrations per loop while the others pay for ~32 events per tick.
	fmt.Println("1. 400 members, fanout 32 every 10 ms, 3 s of virtual time")
	fmt.Printf("   active fraction per tick: %.0f%%\n\n", 100*32.0/400)
	exampleTable(400)

	// --- 2. Growing only the idle population ------------------------------
	// Five times the members, identical traffic: the fan-out is still 32
	// payloads per tick, so a per-event mechanism's work barely moves. poll's
	// scan cost is O(members) per loop, and here it saturates the CPU —
	// subscriptions lag and ticks are missed outright, the figure-36/37 knee
	// in miniature.
	fmt.Println("\n2. 2000 members, same fanout — only the *idle* set grew")
	fmt.Printf("   active fraction per tick: %.1f%%\n\n", 100*32.0/2000)
	exampleTable(2000)

	fmt.Println("\nThe pushed column is the real throughput: per-event mechanisms do")
	fmt.Println("identical application work in both tables, while poll loses ticks to")
	fmt.Println("interest-set scanning. Figures 36-37 sweep this to 100k+ members.")

	// Output:
	// 1. 400 members, fanout 32 every 10 ms, 3 s of virtual time
	//    active fraction per tick: 8%
	//
	// backend   subscribed    ticks   pushed   server-cpu
	// poll             400      287     9184    863.048ms
	// devpoll          400      299     9568    304.361ms
	// rtsig            400      299     9568    345.929ms
	// epoll            400      299     9568    288.286ms
	// compio           400      299     9568    285.769ms
	//
	// 2. 2000 members, same fanout — only the *idle* set grew
	//    active fraction per tick: 1.6%
	//
	// backend   subscribed    ticks   pushed   server-cpu
	// poll            1773       26      832       3.244s
	// devpoll         2000      296     9472       1.080s
	// rtsig           2000      298     9536       1.076s
	// epoll           2000      299     9568    867.251ms
	// compio          2000      299     9568    852.950ms
	//
	// The pushed column is the real throughput: per-event mechanisms do
	// identical application work in both tables, while poll loses ticks to
	// interest-set scanning. Figures 36-37 sweep this to 100k+ members.
}

// exampleRun starts a pushcore daemon on the named backend, ramps the member
// population in over the first virtual second and lets the fan-out tick fire
// until the three-second mark.
func exampleRun(backend string, members int) (pushcore.Stats, core.Duration) {
	k := simkernel.NewKernel(nil)
	ncfg := netsim.DefaultConfig()
	ncfg.ListenBacklog = members // let join bursts queue rather than refuse
	net := netsim.New(k, ncfg)

	cfg := pushcore.DefaultConfig() // fanout 32, 512 B payload, 10 ms tick
	cfg.Backend = backend
	cfg.Seed = 1
	s := pushcore.New(k, net, cfg)
	s.Start()

	ramp := core.Second / core.Duration(members)
	for i := 0; i < members; i++ {
		k.Sim.At(core.Time(core.Duration(i)*ramp), func(now core.Time) {
			var cc *netsim.ClientConn
			hooks := &simtest.ConnHooks{}
			hooks.OnConnected = func(now core.Time) {
				cc.Send(now, make([]byte, pushcore.SubscribeSize))
			}
			cc = net.ConnectWith(now, netsim.ConnectOptions{}, hooks)
		})
	}

	k.Sim.RunUntil(core.Time(3 * core.Second))
	s.Stop()
	k.Sim.Run()
	return s.Stats(), k.CPU.Busy
}

// exampleTable prints one row per backend at the given member count.
func exampleTable(members int) {
	fmt.Printf("%-9s %10s %8s %8s %12s\n",
		"backend", "subscribed", "ticks", "pushed", "server-cpu")
	for _, backend := range []string{"poll", "devpoll", "rtsig", "epoll", "compio"} {
		st, busy := exampleRun(backend, members)
		fmt.Printf("%-9s %10d %8d %8d %12v\n",
			backend, st.Subscribed, st.Ticks, st.Pushed, busy)
	}
}
