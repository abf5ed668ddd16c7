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

// heldHeap builds the push-idle-epoll testbed — a pushcore server on epoll
// fed by loadgen's push members, at 1000 deliveries/s — for the given member
// count, runs it to the end of the member ramp (every member connected and
// subscribed, measurement about to start) and reports the live heap after a
// collection, with the testbed still reachable.
func heldHeap(members int) uint64 {
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
	srv.Start()
	gen.Start(k.Now())
	// Members join at the workload's 50,000/s; measurement starts 400 ms
	// after the last one.
	ramp := core.Duration(float64(members) / wl.MemberRate * float64(core.Second))
	k.Sim.RunUntil(core.Time(ramp + 400*core.Millisecond))
	if srv.Members() != members {
		panic("experiments: the push ramp did not subscribe every member")
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(gen)
	runtime.KeepAlive(srv)
	return ms.HeapAlloc
}

// A held push member costs the host its live records only: the difference
// in live heap between two member counts, divided by the member difference,
// so the fixed cost of the testbed cancels. Budget: 80% of the 727 bytes
// per member measured before each shared fact (the pair's network, id, RTT
// and lane; the conn's ServerConn; the FD's watcher list) was stored once.
// Measured: 727 bytes per member before, 569 after.
func TestHeldMemberHeapBudget(t *testing.T) {
	heldHeap(1000) // first-run package state (registries, tables)
	small := heldHeap(5000)
	large := heldHeap(20000)
	perMember := (float64(large) - float64(small)) / 15000
	t.Logf("live heap per held member: %.0f bytes", perMember)
	if perMember > 580 {
		t.Fatalf("a held push member costs %.0f bytes of live heap, budget 580", perMember)
	}
}
