package experiments

import (
	"runtime"
	"testing"
)

// mallocsOf reports the heap allocations one sequential run makes.
func mallocsOf(spec RunSpec) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(spec)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// perConnMallocs is the marginal allocation count of one more connection:
// the difference between runs of n and 2n connections, divided by n, so the
// fixed setup cost and the pools' warm-up cancel.
func perConnMallocs(mk func(n int) RunSpec, n int) float64 {
	mallocsOf(mk(n / 4)) // first-run package state (registries, tables)
	small := mallocsOf(mk(n))
	large := mallocsOf(mk(2 * n))
	return (float64(large) - float64(small)) / float64(n)
}

// A churned connection's lifecycle allocates only its simkernel.FD: loadgen's
// activeConn, the netsim endpoint pair, the eventlib event and the accept
// queue slot are all recycled. At 250 connections/s both runs outlast the
// 5 s client timeout that gates recycling, so the pools are in steady state.
// Measured: 10.00 per connection before recycling, 1.00 after.
func TestChurnAllocationBudget(t *testing.T) {
	mk := func(n int) RunSpec {
		return RunSpec{Server: ServerThttpdEpoll, RequestRate: 250, Inactive: 1, Connections: n, Seed: 1, Threads: 1}
	}
	if got := perConnMallocs(mk, 2000); got > 1.1 {
		t.Fatalf("churn-epoll allocates %.3f times per connection, budget 1.1", got)
	}
}

// Push members are held for the whole run, so nothing they own is recycled;
// what they still shed is the bound callback, the accept-queue regrowth and
// the receive-buffer copy, and the two endpoints share one allocation.
// Measured: 13.02 per member before, 9.02 after.
func TestPushMemberAllocationBudget(t *testing.T) {
	mk := func(n int) RunSpec {
		return RunSpec{Server: "push-epoll", Workload: "push", RequestRate: 1000, Connections: n, Seed: 1, Threads: 1}
	}
	if got := perConnMallocs(mk, 2000); got > 9.5 {
		t.Fatalf("push allocates %.3f times per member, budget 9.5", got)
	}
}
