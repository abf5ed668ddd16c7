// Dhtchurn: a datagram rendezvous node under peer churn.
//
// The push example grows an idle interest set; this one keeps the set small
// but churning. Peers ping a well-known datagram address to join; the node
// opens a dedicated session socket per live peer (the NAT-keepalive shape of
// real DHT nodes), pongs every ping from it, and expires peers that go quiet
// past the peer timeout, closing their sockets. The interest set is one
// descriptor per live peer, joining and leaving at the churn rate — so
// descriptor numbers recycle constantly while pings for dead sessions may
// still be in flight, which is exactly the race the fd-generation machinery
// exists to kill: a stale datagram must die at the generation check, never
// leak into whichever new session recycled the slot.
//
// Part 2 makes peers ping slower than the node's peer timeout, so each
// session expires before its first keepalive: every keepalive meets an
// unbound address and is dropped, and the wire's books still balance.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/servers/dhtnode"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

// tally counts the client side of one run.
type tally struct {
	pings int
	pongs int
}

// startPeer schedules one peer: join at `at`, then ping the session socket
// every interval, `pings` times, and go silent (to be expired by the sweep).
func startPeer(k *simkernel.Kernel, net *netsim.Network, at core.Time,
	pings int, interval core.Duration, c *tally) {
	k.Sim.At(at, func(now core.Time) {
		var pr *netsim.Peer
		var session netsim.Addr
		hooks := &simtest.DgramHooks{}
		hooks.OnStarted = func(now core.Time) {
			c.pings++
			pr.SendTo(now, dhtnode.WellKnownAddr, 64)
		}
		hooks.OnDatagram = func(now core.Time, from netsim.Addr, size int) {
			c.pongs++
			if session != 0 {
				return
			}
			// The first pong reveals the dedicated session socket; keep it
			// alive for a while, then stop and let the node expire us.
			session = from
			for i := 1; i <= pings; i++ {
				k.Sim.At(now.Add(core.Duration(i)*interval), func(now core.Time) {
					c.pings++
					pr.SendTo(now, session, 64)
				})
			}
		}
		pr = net.NewPeer(now, netsim.PeerOptions{}, hooks)
	})
}

// run drives `peers` churning peers, each pinging its session five times
// `interval` apart, through a dhtnode on the named backend for three virtual
// seconds and returns both sides' books.
func run(backend string, peers int, interval core.Duration) (dhtnode.Stats, netsim.Stats, tally, int, core.Duration) {
	k := simkernel.NewKernel(nil)
	net := netsim.New(k, netsim.DefaultConfig())

	cfg := dhtnode.DefaultConfig()
	cfg.Backend = backend
	cfg.PeerTimeout = 300 * core.Millisecond
	cfg.SweepInterval = 100 * core.Millisecond
	s := dhtnode.New(k, net, cfg)
	s.Start()

	var c tally
	ramp := core.Second / core.Duration(peers)
	for i := 0; i < peers; i++ {
		startPeer(k, net, core.Time(core.Duration(i)*ramp), 5, interval, &c)
	}
	k.Sim.RunUntil(core.Time(3 * core.Second))
	s.Stop()
	k.Sim.Run()
	return s.Stats(), net.Stats(), c, s.LivePeers(), k.CPU.Busy
}

func main() {
	const peers = 200

	// --- 1. The churn lifecycle, on every mechanism -----------------------
	// 200 peers join over one second, each keeps its session alive for half a
	// second and goes quiet; the sweep expires it 300 ms later. Every backend
	// sees the same deterministic traffic: each peer lives ~500 ms (5
	// keepalives at 100 ms), so joins and expiries overlap for the whole
	// first two seconds.
	fmt.Printf("1. %d peers churning through the node, 3 s of virtual time\n\n", peers)
	fmt.Printf("%-9s %6s %6s %8s %6s %12s\n",
		"backend", "joins", "pongs", "expired", "live", "server-cpu")
	for _, backend := range []string{"poll", "devpoll", "rtsig", "epoll", "compio"} {
		st, _, _, live, busy := run(backend, peers, 100*core.Millisecond)
		fmt.Printf("%-9s %6d %6d %8d %6d %12v\n",
			backend, st.Joins, st.Pongs, st.Expired, live, busy)
	}

	// --- 2. Keepalives slower than the peer timeout -----------------------
	// Peers ping every 400 ms against the node's 300 ms timeout, so the sweep
	// expires each session before its first keepalive. The node answers only
	// the join pings; each keepalive finds no socket bound at its address and
	// is dropped (this network sends no ICMP). Every datagram is still
	// accounted for once: delivered, dropped, or stale.
	st, ns, c, live, _ := run("epoll", peers, 400*core.Millisecond)
	fmt.Printf("\n2. same run on epoll, keepalives every 400 ms\n")
	fmt.Printf("   client pings sent: %d   pongs received: %d\n", c.pings, c.pongs)
	fmt.Printf("   node: joins=%d pongs=%d expired=%d live-at-end=%d\n",
		st.Joins, st.Pongs, st.Expired, live)
	fmt.Printf("   wire: sent=%d delivered=%d dropped=%d stale=%d (sent = delivered+dropped+stale: %v)\n",
		ns.DgramsSent, ns.DgramsDelivered, ns.DgramsDropped, ns.DgramsStale,
		ns.DgramsSent == ns.DgramsDelivered+ns.DgramsDropped+ns.DgramsStale)
	fmt.Println("\nFigure 38 sweeps this node's ping rate past saturation on all five")
	fmt.Println("mechanisms; figure 39 holds the rate and sweeps the churn instead.")
}
