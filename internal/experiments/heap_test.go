package experiments

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/servers/pushcore"
	"repro/internal/simkernel"
)

// pushBed is the push-idle-epoll testbed — a pushcore server on epoll fed by
// loadgen's push members, at 1000 deliveries/s — for the given member count,
// started and stopping when the generator is done.
type pushBed struct {
	k       *simkernel.Kernel
	gen     *loadgen.Generator
	srv     *pushcore.Server
	members int
	ramp    core.Duration // to the end of the member ramp: measurement starts
}

func newPushBed(members int) *pushBed {
	wl, _ := loadgen.LookupWorkload("push")
	k := simkernel.NewKernel(nil)
	ncfg := netsim.DefaultConfig()
	ncfg.PortSpace = 2*members + 100000
	ncfg.ListenBacklog = members
	net := netsim.New(k, ncfg)
	scfg := pushcore.DefaultConfig()
	scfg.Backend = "epoll"
	scfg.Seed = 1
	scfg.TickInterval = core.Duration(float64(scfg.FanoutSize) / 1000 * float64(core.Second))
	srv := pushcore.New(k, net, scfg)
	lcfg := loadgen.DefaultConfig(1000, 0)
	lcfg.Connections = members
	lcfg.Seed = 1
	lcfg.Workload = wl
	gen := loadgen.New(k, net, lcfg)
	srv.OnDeliver = gen.PushDeliver
	gen.OnDone(func(loadgen.Result) { srv.Stop(); k.Sim.Stop() })
	srv.Start()
	gen.Start(k.Now())
	// Members join at the workload's 50,000/s; measurement starts 400 ms
	// after the last one.
	ramp := core.Duration(float64(members)/wl.MemberRate*float64(core.Second)) + 400*core.Millisecond
	return &pushBed{k: k, gen: gen, srv: srv, members: members, ramp: ramp}
}

// runToPlateau runs to the end of the member ramp: every member connected and
// subscribed, measurement about to start.
func (b *pushBed) runToPlateau() {
	b.k.Sim.RunUntil(core.Time(b.ramp))
	if b.srv.Members() != b.members {
		panic("experiments: the push ramp did not subscribe every member")
	}
}

// runToEnd runs until the delivery budget is spent and the generator is done.
func (b *pushBed) runToEnd() {
	b.k.Sim.RunUntil(core.Time(b.ramp + 60*core.Second))
	if !b.gen.Done() {
		panic("experiments: the push run did not finish")
	}
}

// heap reports the live heap and the bytes of heap spans in use after a
// collection, with the testbed still reachable.
func (b *pushBed) heap() (live, inuse uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(b)
	return ms.HeapAlloc, ms.HeapInuse
}

// heldHeap reports the live heap and the in-use span bytes of a push testbed
// with every member held (see pushBed.runToPlateau).
func heldHeap(members int) (live, inuse uint64) {
	b := newPushBed(members)
	b.runToPlateau()
	return b.heap()
}

// A held push member costs the host its live records only: the difference
// in live heap between two member counts, divided by the member difference,
// so the fixed cost of the testbed cancels. Budget: 80% of the 727 bytes
// per member measured before each shared fact (the pair's network, id, RTT
// and lane; the conn's ServerConn; the FD's watcher list) was stored once.
// Measured: 727 bytes per member before, 569 after.
func TestHeldMemberHeapBudget(t *testing.T) {
	heldHeap(1000) // first-run package state (registries, tables)
	small, smallInuse := heldHeap(5000)
	large, largeInuse := heldHeap(20000)
	perMember := (float64(large) - float64(small)) / 15000
	t.Logf("per held member: live heap %.0f bytes, heap spans in use %.0f bytes",
		perMember, (float64(largeInuse)-float64(smallInuse))/15000)
	if perMember > 580 {
		t.Fatalf("a held push member costs %.0f bytes of live heap, budget 580", perMember)
	}
}

// Spending the delivery budget ends a 1-lane push run inside that event, so
// the end of the run costs the host no more than holding the members did: the
// live heap once the generator is done stays within 40 bytes per member of
// the plateau with every member held (the per-reply latencies and each
// member's delivery record account for about 16). Closing every member at
// that instant, as the run once did, left one queued FIN and one pooled
// network event record per member live: about 150 bytes per member above
// the plateau.
func TestPushRunEndHeapBound(t *testing.T) {
	heldHeap(1000) // first-run package state (registries, tables)
	b := newPushBed(20000)
	b.runToPlateau()
	plateau, _ := b.heap()
	b.runToEnd()
	end, _ := b.heap()
	perMember := (float64(end) - float64(plateau)) / float64(b.members)
	t.Logf("live heap: plateau %d bytes, end of run %d bytes (%+.0f bytes per member)", plateau, end, perMember)
	if perMember > 40 {
		t.Fatalf("the end of the run adds %.0f bytes of live heap per member, bound 40", perMember)
	}
}
