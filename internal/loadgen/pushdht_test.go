package loadgen

import (
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/servers/dhtnode"
	"repro/internal/servers/pushcore"
	"repro/internal/simkernel"
)

func TestPushWorkloadDeliversBudget(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())

	wl, ok := LookupWorkload("push")
	if !ok || wl.Kind != KindPush {
		t.Fatalf("push workload missing: %+v ok=%v", wl, ok)
	}
	wl.FanoutSize = 8
	scfg := pushcore.DefaultConfig()
	scfg.Backend = "epoll"
	scfg.FanoutSize = wl.FanoutSize
	scfg.Payload = wl.PushPayload
	scfg.TickInterval = 5 * core.Millisecond
	srv := pushcore.New(k, n, scfg)

	cfg := DefaultConfig(1600, 0)
	cfg.Connections = 100
	cfg.SampleInterval = 100 * core.Millisecond
	cfg.Workload = wl
	gen := New(k, n, cfg)
	srv.OnDeliver = gen.PushDeliver

	var final Result
	gen.OnDone(func(r Result) { final = r; srv.Stop(); k.Sim.Stop() })
	srv.Start()
	gen.Start(0)
	k.Sim.RunUntil(core.Time(30 * core.Second))

	if !gen.Done() {
		t.Fatalf("push run never finished: %+v", gen.Result())
	}
	if final.Issued != 100 || final.Completed != 100 || final.Errors != 0 {
		t.Fatalf("result = issued %d completed %d errors %d (%+v)",
			final.Issued, final.Completed, final.Errors, final.ErrorsBy)
	}
	// The budget is exact: one booked delivery per configured connection.
	if final.Replies != 100 {
		t.Fatalf("replies = %d, want 100", final.Replies)
	}
	if final.Latency.P50 <= 0 {
		t.Fatalf("median delivery latency = %v ms", final.Latency.P50)
	}
	// The member population was fully subscribed before measurement started.
	if st := srv.Stats(); st.Subscribed != 100 {
		t.Fatalf("subscribed = %d, want 100", st.Subscribed)
	}
}

// pushTestbed is TestPushWorkloadDeliversBudget's testbed: a pushcore server
// on epoll, 100 members, 1600 deliveries/s, the run stopping when the
// generator is done. With two lanes the server runs on lane 1 and the
// generator launches from lane 0, as a -threads 2 run does.
func pushTestbed(t *testing.T, lanes int) (*simkernel.Kernel, *netsim.Network, *Generator) {
	t.Helper()
	k := simkernel.NewKernel(nil)
	if lanes > 1 {
		k.EnableParallel(lanes, lanes, 100*core.Microsecond)
	}
	n := netsim.New(k, netsim.DefaultConfig())
	if lanes > 1 {
		n.Parallelize()
	}
	wl, _ := LookupWorkload("push")
	wl.FanoutSize = 8
	scfg := pushcore.DefaultConfig()
	scfg.Backend = "epoll"
	scfg.FanoutSize = wl.FanoutSize
	scfg.Payload = wl.PushPayload
	scfg.TickInterval = 5 * core.Millisecond
	srv := pushcore.New(k, n, scfg)
	cfg := DefaultConfig(1600, 0)
	cfg.Connections = 100
	cfg.Workload = wl
	gen := New(k, n, cfg)
	srv.OnDeliver = gen.PushDeliver
	gen.OnDone(func(Result) { srv.Stop(); k.Sim.Stop() })
	srv.Start()
	gen.Start(0)
	return k, n, gen
}

// A 1-lane push run that spends its delivery budget is done inside that very
// event, so it closes no member: no client close is counted, no port enters
// TIME-WAIT and no FIN is left queued behind the stopped engine. Before, every
// member closed at that instant, leaving 100 closes, 100 TIME-WAIT ports and
// 100 undelivered FINs.
func TestPushBudgetEndsRunWithoutTeardown(t *testing.T) {
	k, n, gen := pushTestbed(t, 1)
	k.Sim.RunUntil(core.Time(30 * core.Second))
	if !gen.Done() {
		t.Fatalf("push run never finished: %+v", gen.Result())
	}
	if r := gen.Result(); r.Completed != 100 || r.Replies != 100 || r.Errors != 0 {
		t.Fatalf("completed %d replies %d errors %d, want 100 100 0", r.Completed, r.Replies, r.Errors)
	}
	if c := n.Stats().ClientCloses; c != 0 {
		t.Errorf("%d members closed after the run was done", c)
	}
	if tw := n.PortsInTimeWait(k.Now()); tw != 0 {
		t.Errorf("%d ports in TIME-WAIT after the run was done", tw)
	}
	if p := k.Sim.Pending(); p >= 100 {
		t.Errorf("%d events pending after the run was done, want fewer than one per member", p)
	}
}

// When the budget is spent while a member's SYN is still in flight, the run
// goes on until that member connects, so the live members close as before,
// and the late member closes and resolves when it connects.
func TestPushBudgetWithSYNInFlightClosesMembers(t *testing.T) {
	k, n, gen := pushTestbed(t, 1)
	// One extra member, launched as measurement starts, whose handshake
	// takes two seconds: the budget (100 deliveries at 1600/s) is spent
	// long before it connects.
	gen.driverQ.At(gen.started, func(now core.Time) {
		gen.issued++
		m := gen.memberSlab.New()
		m.gen = gen
		m.conn = n.ConnectWith(now, netsim.ConnectOptions{RTT: 2 * core.Second}, m)
	})
	k.Sim.RunUntil(core.Time(30 * core.Second))
	if !gen.Done() {
		t.Fatalf("push run never finished: %+v", gen.Result())
	}
	r := gen.Result()
	if r.Issued != 101 || r.Completed != 101 || r.Replies != 100 || r.Errors != 0 {
		t.Fatalf("issued %d completed %d replies %d errors %d, want 101 101 100 0",
			r.Issued, r.Completed, r.Replies, r.Errors)
	}
	if r.Finished < gen.started.Add(2*core.Second) {
		t.Fatalf("run finished at %v, before the late member connected", r.Finished)
	}
	if c := n.Stats().ClientCloses; c != 101 {
		t.Errorf("%d members closed, want all 101", c)
	}
	if tw := n.PortsInTimeWait(k.Now()); tw != 101 {
		t.Errorf("%d ports in TIME-WAIT, want 101", tw)
	}
}

// A 2-lane push run finds the end of the run a barrier after the budget is
// spent, so the run goes on past finishPush and every member closes there,
// as a finished client would; its books equal the 1-lane run's.
func TestPushBudgetOnTwoLanesClosesMembers(t *testing.T) {
	k1, _, seq := pushTestbed(t, 1)
	k1.Sim.RunUntil(core.Time(30 * core.Second))
	k, n, gen := pushTestbed(t, 2)
	k.Sim.RunUntil(core.Time(30 * core.Second))
	if !gen.Done() {
		t.Fatalf("push run never finished: %+v", gen.Result())
	}
	want, got := seq.Result(), gen.Result()
	if got.Completed != want.Completed || got.Replies != want.Replies || got.Errors != want.Errors ||
		got.Finished != want.Finished || got.Latency != want.Latency {
		t.Fatalf("2 lanes: completed %d replies %d errors %d finished %v latency %+v; 1 lane: %d %d %d %v %+v",
			got.Completed, got.Replies, got.Errors, got.Finished, got.Latency,
			want.Completed, want.Replies, want.Errors, want.Finished, want.Latency)
	}
	if c := n.Stats().ClientCloses; c != 100 {
		t.Errorf("%d members closed, want all 100", c)
	}
}

func TestDHTChurnWorkloadPingsQuota(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())

	wl, ok := LookupWorkload("dhtchurn")
	if !ok || wl.Kind != KindDHTChurn {
		t.Fatalf("dhtchurn workload missing: %+v ok=%v", wl, ok)
	}
	scfg := dhtnode.DefaultConfig()
	scfg.Backend = "epoll"
	scfg.PeerTimeout = wl.PeerTimeout
	srv := dhtnode.New(k, n, scfg)

	cfg := DefaultConfig(1000, 0) // quota = 1000/200 = 5 pings per peer
	cfg.Connections = 20
	cfg.SampleInterval = 500 * core.Millisecond
	cfg.Workload = wl
	gen := New(k, n, cfg)

	var final Result
	gen.OnDone(func(r Result) { final = r; srv.Stop(); k.Sim.Stop() })
	srv.Start()
	gen.Start(0)
	k.Sim.RunUntil(core.Time(60 * core.Second))

	if !gen.Done() {
		t.Fatalf("dht run never finished: %+v", gen.Result())
	}
	if final.Issued != 20 || final.Completed != 20 || final.Errors != 0 {
		t.Fatalf("result = issued %d completed %d errors %d (%+v)",
			final.Issued, final.Completed, final.Errors, final.ErrorsBy)
	}
	if final.Replies != 100 {
		t.Fatalf("pongs = %d, want 20 peers x 5 pings", final.Replies)
	}
	if st := srv.Stats(); st.Joins != 20 || st.Pongs != 100 {
		t.Fatalf("server joins=%d pongs=%d", st.Joins, st.Pongs)
	}
}

// TestDHTPeerRejoinsAfterSessionExpiry pins the churn interplay: a node
// timeout shorter than the ping interval expires every session between
// pings, so peers must re-enter through the rendezvous address (and the
// node's descriptor churn shows up as expiries), yet the run still
// completes without client-visible errors.
func TestDHTPeerRejoinsAfterSessionExpiry(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())

	wl, _ := LookupWorkload("dhtchurn")
	wl.ChurnRate = 100
	wl.PingInterval = 400 * core.Millisecond
	scfg := dhtnode.DefaultConfig()
	scfg.Backend = "poll"
	scfg.PeerTimeout = 100 * core.Millisecond // expires every idle session
	scfg.SweepInterval = 50 * core.Millisecond
	srv := dhtnode.New(k, n, scfg)

	cfg := DefaultConfig(200, 0) // quota = 2 pongs per peer
	cfg.Connections = 3
	cfg.Profile.Timeout = core.Second
	cfg.Workload = wl
	gen := New(k, n, cfg)

	var final Result
	gen.OnDone(func(r Result) { final = r; srv.Stop(); k.Sim.Stop() })
	srv.Start()
	gen.Start(0)
	k.Sim.RunUntil(core.Time(120 * core.Second))

	if !gen.Done() {
		t.Fatalf("run never finished: %+v", gen.Result())
	}
	if final.Completed != 3 || final.Errors != 0 {
		t.Fatalf("completed=%d errors=%d (%+v)", final.Completed, final.Errors, final.ErrorsBy)
	}
	st := srv.Stats()
	if st.Expired == 0 {
		t.Fatalf("no sessions expired, sweep never churned descriptors: %+v", st)
	}
	if st.Joins <= 3 {
		t.Fatalf("joins = %d, want rejoins beyond the 3 first joins", st.Joins)
	}
}

// TestProfileNormalisation pins that New fills the profile's zero fields with
// the defaults and keeps the fields a caller set.
func TestProfileNormalisation(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	cfg := DefaultConfig(100, 0)
	cfg.Profile.RequestsPerConn = 3
	cfg.Profile.Timeout = 7 * core.Second
	got := New(k, n, cfg).cfg.Profile
	if got.RequestsPerConn != 3 || got.Timeout != 7*core.Second {
		t.Fatalf("set fields not kept: %+v", got)
	}
	if got.PipelineDepth != 1 || got.InactiveRTT != 100*core.Millisecond || got.Jitter != 0.2 {
		t.Fatalf("defaults not filled: %+v", got)
	}
	bare := New(k, n, Config{Profile: ClientProfile{Retry: true}}).cfg.Profile
	if bare.Timeout != 5*core.Second || bare.RequestsPerConn != 1 || bare.Jitter != 0 {
		t.Fatalf("zero profile not defaulted: %+v", bare)
	}
}

// pushRig is a push generator whose members connect to a bare listener in
// place of a push server, so a test drives PushDeliver and Data by hand. It
// returns the connected members and, in the same order, their server ends;
// measurement starts at virtual time 0, so every delivery is booked.
func pushRig(t *testing.T, members int) (*simkernel.Kernel, *Generator, []*pushMember, []*netsim.ServerConn) {
	t.Helper()
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	p := k.NewProc("rig")
	api := netsim.NewSockAPI(k, p, n)
	var lfd *simkernel.FD
	p.Batch(0, func() { lfd, _ = api.Listen() }, nil)
	wl, _ := LookupWorkload("push")
	cfg := DefaultConfig(1000, 0)
	cfg.Connections = 10 * members // a budget the test never spends
	cfg.Workload = wl
	gen := New(k, n, cfg)
	gen.pushPayload = wl.PushPayload
	ms := make([]*pushMember, members)
	gen.driverQ.At(0, func(now core.Time) {
		for i := range ms {
			ms[i] = gen.memberSlab.New()
			ms[i].gen = gen
			ms[i].conn = n.ConnectWith(now, netsim.ConnectOptions{}, ms[i])
		}
	})
	k.Sim.RunUntil(core.Time(core.Second))
	var scs []*netsim.ServerConn
	p.Batch(k.Now(), func() {
		for {
			sc, ok := api.AcceptDetach(lfd)
			if !ok {
				break
			}
			scs = append(scs, sc)
		}
	}, nil)
	k.Sim.RunUntil(core.Time(2 * core.Second))
	if len(scs) != members || len(gen.pushMembers) != members {
		t.Fatalf("%d members accepted, %d connected, want %d", len(scs), len(gen.pushMembers), members)
	}
	for i, sc := range scs {
		if sc.Peer() != ms[i].conn {
			t.Fatalf("server end %d belongs to another member", i)
		}
	}
	return k, gen, ms, scs
}

// Two deliveries to one member that overlap — the second initiated before the
// first has arrived — resolve in initiation order, each measured from its own
// initiation instant: the first from the member's inline anchor, the second
// from the spill behind it.
func TestPushOverlappingDeliveriesKeepTheirAnchors(t *testing.T) {
	k, gen, ms, scs := pushRig(t, 1)
	m, sc := ms[0], scs[0]
	t0 := k.Now()
	at := func(d core.Duration) core.Time { return t0.Add(d) }
	gen.PushDeliver(at(1*core.Millisecond), sc)
	gen.PushDeliver(at(3*core.Millisecond), sc)
	payload := gen.pushPayload
	m.Data(at(4*core.Millisecond), payload/2)
	m.Data(at(5*core.Millisecond), payload) // completes the first, half the second
	m.Data(at(9*core.Millisecond), payload-payload/2)
	h := &gen.lanes[0].hist
	if h.Count() != 2 || h.MinMs() != 4 || h.MaxMs() != 6 {
		t.Fatalf("%d latencies from %v to %v ms, want 4 and 6: each delivery measured from its own initiation", h.Count(), h.MinMs(), h.MaxMs())
	}
	if m.waiting || m.spill == nil || len(*m.spill) != 0 || m.received != 0 {
		t.Fatalf("member left waiting=%v spill=%v received=%d, want an empty spill and nothing pending", m.waiting, m.spill, m.received)
	}
}

// A delivery that does not overlap another costs the host no allocation:
// its anchor lives in the member, so PushDeliver and the Data that completes
// it allocate nothing, even for a member's first delivery.
func TestPushDeliveryDoesNotAllocate(t *testing.T) {
	const runs = 40
	k, gen, ms, scs := pushRig(t, runs+1) // AllocsPerRun adds one warm-up run
	now := k.Now()
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		gen.PushDeliver(now, scs[i])
		ms[i].Data(now.Add(core.Millisecond), gen.pushPayload)
		i++
	})
	if allocs != 0 {
		t.Fatalf("PushDeliver plus Data: %v allocations per delivery, want 0", allocs)
	}
	if got := gen.lanes[0].hist.Count(); got != runs+1 {
		t.Fatalf("%d deliveries booked, want %d", got, runs+1)
	}
}

// A held member is 40 bytes: the generator, the connection, the oldest
// pending delivery's anchor, a pointer to the rare spill, and the received
// count beside the two flags.
func TestPushMemberSize(t *testing.T) {
	if got := unsafe.Sizeof(pushMember{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(pushMember{}) = %d, want 40", got)
	}
}
