package simkernel

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// refEvent / refHeap reimplement the pre-optimization event queue — a
// container/heap of pointers ordered by (at, seq) — as the reference model for
// the property test below. The inline 4-ary heap plus same-instant ring must
// pop in exactly this order for every schedule, or simulation runs would stop
// being bit-reproducible across the rewrite.
type refEvent struct {
	at  core.Time
	seq uint64
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// TestSimulatorMatchesReferenceHeap drives randomized schedules — bursts of
// same-time events (exercising the fast-path ring), near-time events, far
// deadlines, and reschedules from inside callbacks — through both the
// Simulator and the reference container/heap model, and requires the pop
// order (including seq tie-breaks) to match exactly. Every schedule runs
// once through Simulator.At and once through the LaneQ(0) handle, which
// must be the same queue.
func TestSimulatorMatchesReferenceHeap(t *testing.T) {
	for _, via := range []string{"Simulator.At", "LaneQ(0).At"} {
		t.Run(via, func(t *testing.T) { matchReferenceHeap(t, via == "LaneQ(0).At") })
	}
}

func matchReferenceHeap(t *testing.T, viaLane bool) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		sim := NewSimulator()
		at := sim.At
		if viaLane {
			at = sim.LaneQ(0).At
		}

		ref := refHeap{}
		heap.Init(&ref)
		var refSeq uint64

		var got, want []uint64

		// schedule mirrors one event into both queues. fires record into got;
		// the reference order is reconstructed by draining ref afterwards.
		var schedule func(when core.Time)
		var scheduled int
		schedule = func(when core.Time) {
			scheduled++
			refSeq++
			seq := refSeq
			heap.Push(&ref, &refEvent{at: when, seq: seq})
			at(when, func(now core.Time) {
				if now != when {
					t.Fatalf("trial %d: event %d fired at %v, scheduled for %v", trial, seq, now, when)
				}
				got = append(got, seq)
				// Occasionally reschedule from inside the callback, including
				// zero-delay events that land on the same-instant ring.
				if scheduled < 300 && rng.Intn(3) == 0 {
					n := 1 + rng.Intn(3)
					for i := 0; i < n; i++ {
						schedule(now.Add(core.Duration(rng.Intn(5)) * core.Microsecond))
					}
				}
			})
		}

		initial := 30 + rng.Intn(50)
		for i := 0; i < initial; i++ {
			// Cluster times so same-(at) ties with distinct seq are frequent.
			schedule(core.Time(rng.Intn(20)) * core.Time(core.Microsecond))
		}
		sim.Run()

		for ref.Len() > 0 {
			want = append(want, heap.Pop(&ref).(*refEvent).seq)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: executed %d events, reference holds %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pop %d: simulator fired seq %d, reference expects seq %d",
					trial, i, got[i], want[i])
			}
		}
		if sim.Pending() != 0 {
			t.Fatalf("trial %d: %d events still pending after Run", trial, sim.Pending())
		}
	}
}

// TestSimulatorRunUntilDeadline checks the deadline semantics survive the
// split queue: events beyond the deadline stay queued, the clock parks at the
// deadline, and a later RunUntil picks them up in order.
func TestSimulatorRunUntilDeadline(t *testing.T) {
	sim := NewSimulator()
	var fired []int
	for i, at := range []core.Duration{1, 2, 3, 10, 11} {
		i, at := i, at
		sim.At(core.Time(at*core.Microsecond), func(core.Time) { fired = append(fired, i) })
	}
	sim.RunUntil(core.Time(5 * core.Microsecond))
	if len(fired) != 3 {
		t.Fatalf("fired %v before deadline, want first 3", fired)
	}
	if sim.Now() != core.Time(5*core.Microsecond) {
		t.Fatalf("clock at %v, want parked at deadline", sim.Now())
	}
	if sim.Pending() != 2 {
		t.Fatalf("pending %d, want 2", sim.Pending())
	}
	sim.Run()
	if len(fired) != 5 || fired[3] != 3 || fired[4] != 4 {
		t.Fatalf("fired %v after drain, want all five in order", fired)
	}
}

// TestSimulatorSameInstantOrdering pins the interleaving the fast-path ring
// must preserve: events scheduled for the current instant from inside a
// callback run after already-queued events for the same instant with smaller
// sequence numbers, exactly as with a single heap.
func TestSimulatorSameInstantOrdering(t *testing.T) {
	sim := NewSimulator()
	at := core.Time(3 * core.Microsecond)
	var order []string
	sim.At(at, func(now core.Time) {
		order = append(order, "a")
		// Lands on the ring (now == at) but must fire after "b", which was
		// scheduled earlier for the same instant.
		sim.At(now, func(core.Time) { order = append(order, "c") })
	})
	sim.At(at, func(core.Time) { order = append(order, "b") })
	sim.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order %v, want [a b c]", order)
	}
}
