package simkernel

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

const testLookahead = 100 * core.Microsecond

// runChainWorkload drives a deterministic cross-lane workload through a
// sharded simulator: chains of events hop between lanes with pseudo-random
// (but seed-determined) delays of at least the lookahead, occasionally
// spawning same-instant local events to exercise the per-lane sorted runs. It
// returns the per-lane execution logs — the sequence of events each lane
// dispatched, in order — and the lane-agnostic sorted multiset of all events.
func runChainWorkload(t *testing.T, lanes, workers int) (perLane []string, multiset []string) {
	t.Helper()
	sim := NewSimulator()
	sim.EnableSharding(lanes, workers, testLookahead)
	nLanes := sim.NumLanes()
	qs := make([]Q, nLanes)
	for i := range qs {
		qs[i] = sim.LaneQ(i)
	}
	logs := make([][]string, nLanes)

	la := core.Duration(testLookahead)
	var fire func(self Q, chain, hop int, rng uint64) func(core.Time)
	fire = func(self Q, chain, hop int, rng uint64) func(core.Time) {
		return func(now core.Time) {
			lane := self.LaneIndex()
			logs[lane] = append(logs[lane], fmt.Sprintf("c%d h%d @%d", chain, hop, now))
			if hop == 0 {
				return
			}
			rng = rng*6364136223846793005 + 1442695040888963407
			next := int((rng >> 33) % uint64(nLanes))
			rng = rng*6364136223846793005 + 1442695040888963407
			delay := la + core.Duration((rng>>33)%uint64(3*la))
			if (rng>>13)&7 == 0 {
				// Same-instant local event: lands on one of the lane's sorted runs.
				self.At(now, func(z core.Time) {
					logs[lane] = append(logs[lane], fmt.Sprintf("c%d h%dz @%d", chain, hop, z))
				})
			}
			self.Post(qs[next], now.Add(delay), fire(qs[next], chain, hop-1, rng))
		}
	}
	for c := 0; c < 40; c++ {
		start := core.Time(c%7) * core.Time(core.Microsecond)
		home := qs[c%nLanes]
		home.At(start, fire(home, c, 6, uint64(c+1)))
	}
	sim.Run()
	if p := sim.Pending(); p != 0 {
		t.Fatalf("lanes=%d workers=%d: %d events still pending after Run", lanes, workers, p)
	}

	perLane = make([]string, nLanes)
	for i, l := range logs {
		perLane[i] = strings.Join(l, "\n")
		multiset = append(multiset, l...)
	}
	sort.Strings(multiset)
	return perLane, multiset
}

// TestShardedDeterministicAcrossWorkerCounts is the engine's core invariant:
// with the lane count fixed, every worker count must execute the identical
// per-lane event sequence — byte-identical logs — because workers only claim
// lanes, never reorder them. Run under -race this also exercises the barrier
// and ring synchronization with real goroutine parallelism.
func TestShardedDeterministicAcrossWorkerCounts(t *testing.T) {
	const lanes = 8
	base, baseAll := runChainWorkload(t, lanes, 1)
	for _, workers := range []int{2, 4, 8} {
		got, gotAll := runChainWorkload(t, lanes, workers)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: lane %d log diverges from workers=1\nworkers=1:\n%s\nworkers=%d:\n%s",
					workers, i, base[i], workers, got[i])
			}
		}
		if strings.Join(gotAll, "|") != strings.Join(baseAll, "|") {
			t.Fatalf("workers=%d: event multiset diverges from workers=1", workers)
		}
	}
}

// TestShardedMatchesSingleLane checks that sharding changes where events run
// but not what runs: the lane-agnostic multiset of (chain, hop, time) is
// identical between a single-lane and an 8-lane partitioning of the same
// workload.
func TestShardedMatchesSingleLane(t *testing.T) {
	_, one := runChainWorkload(t, 1, 1)
	_, eight := runChainWorkload(t, 8, 4)
	if len(one) != len(eight) {
		t.Fatalf("single-lane executed %d events, 8-lane %d", len(one), len(eight))
	}
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("event %d: single-lane %q vs 8-lane %q", i, one[i], eight[i])
		}
	}
}

// TestShardedLookaheadViolationPanics pins the safety assert: a cross-lane
// post closer than the lookahead window must panic rather than silently break
// the conservative-horizon guarantee.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	sim := NewSimulator()
	sim.EnableSharding(4, 1, testLookahead)
	q0, q1 := sim.LaneQ(0), sim.LaneQ(1)
	q0.At(core.Time(core.Millisecond), func(now core.Time) {
		q0.Post(q1, now.Add(core.Duration(testLookahead)/2), func(core.Time) {})
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("cross-lane post inside the lookahead window did not panic")
		}
	}()
	sim.Run()
}

// TestShardedDirectSchedulingPanics: once sharded, the global At must refuse —
// every missed call-site conversion should fail loudly, not corrupt the run.
func TestShardedDirectSchedulingPanics(t *testing.T) {
	sim := NewSimulator()
	sim.EnableSharding(2, 1, testLookahead)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("direct At on a sharded simulator did not panic")
		}
	}()
	sim.At(0, func(core.Time) {})
}

// TestShardedDeadlineAndResume checks RunUntil's contract survives sharding:
// events beyond the deadline stay queued, the clock parks at the deadline,
// and a later RunUntil resumes them.
func TestShardedDeadlineAndResume(t *testing.T) {
	sim := NewSimulator()
	sim.EnableSharding(2, 2, testLookahead)
	q0, q1 := sim.LaneQ(0), sim.LaneQ(1)
	var fired []string
	q0.At(core.Time(1*core.Millisecond), func(now core.Time) {
		fired = append(fired, "early")
		q0.Post(q1, now.Add(10*core.Millisecond), func(core.Time) { fired = append(fired, "late") })
	})
	sim.RunUntil(core.Time(5 * core.Millisecond))
	if len(fired) != 1 || fired[0] != "early" {
		t.Fatalf("fired %v before deadline, want [early]", fired)
	}
	if sim.Now() != core.Time(5*core.Millisecond) {
		t.Fatalf("clock at %v, want parked at deadline", sim.Now())
	}
	if sim.Pending() != 1 {
		t.Fatalf("pending %d, want 1", sim.Pending())
	}
	sim.Run()
	if len(fired) != 2 || fired[1] != "late" {
		t.Fatalf("fired %v after resume, want [early late]", fired)
	}
}

// TestShardedBarrierHookStops checks OnBarrier hooks run against quiescent
// state and can stop the run (the load generator's completion path).
func TestShardedBarrierHookStops(t *testing.T) {
	sim := NewSimulator()
	sim.EnableSharding(4, 2, testLookahead)
	qs := make([]Q, 4)
	for i := range qs {
		qs[i] = sim.LaneQ(i)
	}
	counts := make([]int64, 4)
	var chain func(q Q, hops int) func(core.Time)
	chain = func(q Q, hops int) func(core.Time) {
		return func(now core.Time) {
			counts[q.LaneIndex()]++
			if hops > 0 {
				next := qs[(q.LaneIndex()+1)%4]
				q.Post(next, now.Add(core.Duration(testLookahead)), chain(next, hops-1))
			}
		}
	}
	for i := range qs {
		qs[i].At(0, chain(qs[i], 1000))
	}
	var total int64
	sim.OnBarrier(func(core.Time) {
		total = counts[0] + counts[1] + counts[2] + counts[3]
		if total >= 100 {
			sim.Stop()
		}
	})
	sim.Run()
	if total < 100 {
		t.Fatalf("hook saw %d events at exit, want >= 100", total)
	}
	if sim.Pending() == 0 {
		t.Fatal("Stop drained the queue; expected remaining events")
	}
}
