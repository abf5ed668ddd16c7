package experiments

import (
	"runtime"
	"testing"
)

// mallocsOf reports the heap allocations one sequential run makes, and the
// run's result.
func mallocsOf(spec RunSpec) (uint64, RunResult) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Run(spec)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, res
}

// perConnMallocs is the marginal allocation count of one more connection:
// the difference between runs of n and 2n connections, divided by n, so the
// fixed setup cost and the pools' warm-up cancel.
func perConnMallocs(mk func(n int) RunSpec, n int) float64 {
	mallocsOf(mk(n / 4)) // first-run package state (registries, tables)
	small, _ := mallocsOf(mk(n))
	large, _ := mallocsOf(mk(2 * n))
	return (float64(large) - float64(small)) / float64(n)
}

// A churned connection's lifecycle allocates nothing of its own: loadgen's
// activeConn, the netsim endpoint pair, the eventlib event and the accept
// queue slot are all recycled, and its simkernel.FD comes from the process's
// slab. At 250 connections/s both runs outlast the 5 s client timeout that
// gates recycling, so the pools are in steady state.
// Measured: 10.00 per connection before recycling, 1.00 after, 0.04 with
// the FD slab.
func TestChurnAllocationBudget(t *testing.T) {
	mk := func(n int) RunSpec {
		return RunSpec{Server: ServerThttpdEpoll, RequestRate: 250, Inactive: 1, Connections: n, Seed: 1, Threads: 1}
	}
	if got := perConnMallocs(mk, 2000); got > 0.1 {
		t.Fatalf("churn-epoll allocates %.3f times per connection, budget 0.1", got)
	}
}

// Push members are held for the whole run, so nothing they own is recycled;
// each object they pin comes from its owner's slab instead. What remains is
// mostly the callback bound to each fresh netsim delivery record and the
// member's pending-delivery slice.
// Measured: 13.02 per member before, 9.02 with the pair in one allocation,
// 1.90 with slabs.
func TestPushMemberAllocationBudget(t *testing.T) {
	mk := func(n int) RunSpec {
		return RunSpec{Server: "push-epoll", Workload: "push", RequestRate: 1000, Connections: n, Seed: 1, Threads: 1}
	}
	if got := perConnMallocs(mk, 2000); got > 2.0 {
		t.Fatalf("push allocates %.3f times per member, budget 2.0", got)
	}
}
