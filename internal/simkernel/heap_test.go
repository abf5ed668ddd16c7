package simkernel

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// refEvent / refHeap reimplement the pre-optimization event queue — a
// container/heap of pointers ordered by (at, seq) — as the reference model for
// the property tests below. The inline 4-ary heap plus sorted runs must pop
// in exactly this order for every schedule, or simulation runs would stop
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

// refHarness mirrors every scheduled event into a Simulator and the reference
// container/heap model, records the simulator's firing order, and watches the
// lane's internals so each schedule shape can prove it exercised the path it
// was written for (heap spills, run compaction).
type refHarness struct {
	t      *testing.T
	trial  int
	rng    *rand.Rand
	sim    *Simulator
	at     func(core.Time, func(core.Time))
	ref    refHeap
	refSeq uint64
	got    []refEvent // fired (at, label): the seq, or a series' label

	// series holds the reference seq block [first, last] of each AtEach
	// call; see label.
	series [][2]uint64

	maxHeap     int
	compactions int
	heads       [numRuns]int
}

func newRefHarness(t *testing.T, trial int, viaLane bool) *refHarness {
	h := &refHarness{t: t, trial: trial, rng: rand.New(rand.NewSource(int64(trial + 1))), sim: NewSimulator()}
	h.at = h.sim.At
	if viaLane {
		h.at = h.sim.LaneQ(0).At
	}
	return h
}

// schedule queues one event at when in both models; then, if non-nil, runs
// inside the event's callback (where it may schedule more).
func (h *refHarness) schedule(when core.Time, then func(now core.Time)) {
	h.refSeq++
	seq := h.refSeq
	heap.Push(&h.ref, &refEvent{at: when, seq: seq})
	h.at(when, func(now core.Time) {
		if now != when {
			h.t.Fatalf("trial %d: event %d fired at %v, scheduled for %v", h.trial, seq, now, when)
		}
		h.got = append(h.got, refEvent{at: now, seq: seq})
		h.observe()
		if then != nil {
			then(now)
		}
	})
}

// seriesLabel marks a fired AtEach instant in got: instants of one series
// that tie call the same fn at the same time, so only the series and the
// instant can be compared, not which of the reserved seqs fired.
const seriesLabel = uint64(1) << 63

// scheduleEach mirrors one Q.AtEach call: the reference gets one event per
// instant, with consecutive seqs in slice order — what len(times) At calls
// would queue — and the block is remembered so label can map it.
func (h *refHarness) scheduleEach(times []core.Time) {
	first := h.refSeq + 1
	for _, at := range times {
		h.refSeq++
		heap.Push(&h.ref, &refEvent{at: at, seq: h.refSeq})
	}
	h.series = append(h.series, [2]uint64{first, h.refSeq})
	label := seriesLabel + uint64(len(h.series)-1)
	h.sim.LaneQ(0).AtEach(slices.Clone(times), func(now core.Time) {
		h.got = append(h.got, refEvent{at: now, seq: label})
		h.observe()
	})
}

// label maps a reference seq to what got records for it.
func (h *refHarness) label(seq uint64) uint64 {
	for i, b := range h.series {
		if seq >= b[0] && seq <= b[1] {
			return seriesLabel + uint64(i)
		}
	}
	return seq
}

// observe checks Pending against the reference count and the lane's cached
// run keys against the runs themselves (live has a bit exactly for each
// non-empty run, whose head and tail keys are those of its first pending and
// last event), and records the heap's high-water mark and any run compaction
// since the previous pop. It runs right after a pop and before the callback
// schedules anything, so a head that moved back on a non-empty run can only
// be a compaction (a drained run is still empty here).
func (h *refHarness) observe() {
	ln := &h.sim.lane
	if want := int(h.refSeq) - len(h.got); h.sim.Pending() != want {
		h.t.Fatalf("trial %d: Pending() = %d, want %d", h.trial, h.sim.Pending(), want)
	}
	h.maxHeap = max(h.maxHeap, len(ln.heap))
	for i := range ln.runs {
		r := &ln.runs[i]
		nonEmpty := r.head < len(r.ev)
		if live := ln.live&(1<<i) != 0; live != nonEmpty {
			h.t.Fatalf("trial %d: run %d holds %d events but its live bit is %v",
				h.trial, i, len(r.ev)-r.head, live)
		}
		if nonEmpty {
			if first := r.ev[r.head].key; ln.head[i] != first {
				h.t.Fatalf("trial %d: run %d head key %+v, first event %+v", h.trial, i, ln.head[i], first)
			}
			if last := r.ev[len(r.ev)-1].key; ln.tail[i] != last {
				h.t.Fatalf("trial %d: run %d tail key %+v, last event %+v", h.trial, i, ln.tail[i], last)
			}
		}
		if r.head < h.heads[i] && len(r.ev) > 0 {
			h.compactions++
		}
		h.heads[i] = r.head
	}
}

// check runs the simulator dry and requires its firing order, seq
// tie-breaks included, to equal the reference heap's.
func (h *refHarness) check() {
	h.sim.Run()
	var want []refEvent
	for h.ref.Len() > 0 {
		e := heap.Pop(&h.ref).(*refEvent)
		want = append(want, refEvent{at: e.at, seq: h.label(e.seq)})
	}
	if len(h.got) != len(want) {
		h.t.Fatalf("trial %d: executed %d events, reference holds %d", h.trial, len(h.got), len(want))
	}
	for i := range h.got {
		if h.got[i] != want[i] {
			h.t.Fatalf("trial %d: pop %d: simulator fired %+v, reference expects %+v",
				h.trial, i, h.got[i], want[i])
		}
	}
	if h.sim.Pending() != 0 {
		h.t.Fatalf("trial %d: %d events still pending after Run", h.trial, h.sim.Pending())
	}
}

// queueShapes are the schedule shapes the reference test drives. Each drive
// schedules the initial events; check then runs the simulator. verify, when
// set, asserts the shape reached the queue path it targets.
var queueShapes = []struct {
	name   string
	trials int
	drive  func(h *refHarness)
	verify func(t *testing.T, maxHeap, compactions int)
}{
	{
		// Clustered instants with frequent (at) ties, near-time and
		// same-instant reschedules from inside callbacks.
		name: "random", trials: 50,
		drive: func(h *refHarness) {
			scheduled := 0
			var spawn func(now core.Time)
			spawn = func(now core.Time) {
				if scheduled < 300 && h.rng.Intn(3) == 0 {
					for n := 1 + h.rng.Intn(3); n > 0; n-- {
						scheduled++
						h.schedule(now.Add(core.Duration(h.rng.Intn(5))*core.Microsecond), spawn)
					}
				}
			}
			for i := 30 + h.rng.Intn(50); i > 0; i-- {
				scheduled++
				h.schedule(core.Time(h.rng.Intn(20))*core.Time(core.Microsecond), spawn)
			}
		},
	},
	{
		// More fixed-delay monotone streams than there are runs: a ticker
		// feeds every stream each microsecond, each stream alone is sorted,
		// but together they outnumber the runs, so some events must spill
		// to the heap.
		name: "streams", trials: 5,
		drive: func(h *refHarness) {
			delays := make([]core.Duration, numRuns+4)
			for k := range delays {
				delays[k] = core.Duration(3+5*k+h.rng.Intn(3)) * core.Microsecond
			}
			ticks := 60
			var tick func(now core.Time)
			tick = func(now core.Time) {
				for _, d := range delays {
					h.schedule(now.Add(d), nil)
				}
				if ticks--; ticks > 0 {
					h.schedule(now.Add(core.Microsecond), tick)
				}
			}
			h.schedule(core.Time(h.rng.Intn(10))*core.Time(core.Microsecond), tick)
		},
		verify: func(t *testing.T, maxHeap, _ int) {
			if maxHeap == 0 {
				t.Fatal("no event spilled to the heap")
			}
		},
	},
	{
		// A ticker arms a long fixed-delay timeout every microsecond, so the
		// timeout run always holds about a thousand events and never drains:
		// only compaction keeps its backing array bounded.
		name: "long-runs", trials: 3,
		drive: func(h *refHarness) {
			timeout := core.Duration(900+h.rng.Intn(200)) * core.Microsecond
			ticks := 4 * compactMin
			var tick func(now core.Time)
			tick = func(now core.Time) {
				h.schedule(now.Add(timeout), nil)
				if ticks--; ticks > 0 {
					h.schedule(now.Add(core.Microsecond), tick)
				}
			}
			h.schedule(0, tick)
		},
		verify: func(t *testing.T, _, compactions int) {
			if compactions == 0 {
				t.Fatal("no run was compacted")
			}
		},
	},
	{
		// Same-instant bursts: several events pre-queued for one instant,
		// each of which schedules a burst at its own instant and a few just
		// after it.
		name: "bursts", trials: 10,
		drive: func(h *refHarness) {
			rounds := 0
			var burst func(now core.Time)
			burst = func(now core.Time) {
				if rounds++; rounds > 40 {
					return
				}
				for n := 2 + h.rng.Intn(12); n > 0; n-- {
					h.schedule(now, nil)
				}
				for n := h.rng.Intn(3); n > 0; n-- {
					h.schedule(now.Add(core.Duration(1+h.rng.Intn(2))*core.Microsecond), burst)
				}
			}
			for i := 0; i < 6; i++ {
				h.schedule(core.Time(5*core.Microsecond), burst)
			}
		},
	},
}

// TestSimulatorMatchesReferenceHeap drives every schedule shape through both
// the Simulator and the reference container/heap model and requires the pop
// order (including seq tie-breaks) to match exactly, with Pending agreeing at
// every pop. Every shape runs once through Simulator.At and once through the
// LaneQ(0) handle, which must be the same queue.
func TestSimulatorMatchesReferenceHeap(t *testing.T) {
	for _, via := range []string{"Simulator.At", "LaneQ(0).At"} {
		t.Run(via, func(t *testing.T) {
			for _, shape := range queueShapes {
				t.Run(shape.name, func(t *testing.T) {
					maxHeap, compactions := 0, 0
					for trial := 0; trial < shape.trials; trial++ {
						h := newRefHarness(t, trial, via == "LaneQ(0).At")
						shape.drive(h)
						h.check()
						maxHeap = max(maxHeap, h.maxHeap)
						compactions += h.compactions
					}
					if shape.verify != nil {
						shape.verify(t, maxHeap, compactions)
					}
				})
			}
		})
	}
}

// TestAtEachMatchesReferenceHeap checks Q.AtEach against the reference model
// of one At call per instant. Each case starts at 10 µs, queues ordinary
// events that tie with the series' instants both before and after the call,
// and lets every ordinary event add a same-instant follow-up; the firing
// order, the fired instants and Pending at every pop must all match.
func TestAtEachMatchesReferenceHeap(t *testing.T) {
	us := func(n int) core.Time { return core.Time(n) * core.Time(core.Microsecond) }
	cases := []struct {
		name          string
		before, after []core.Time
		times         []core.Time
	}{
		{"sorted-ties", []core.Time{us(20), us(20), us(30)}, []core.Time{us(20), us(40)},
			[]core.Time{us(20), us(20), us(30), us(40), us(40)}},
		{"unsorted", []core.Time{us(20), us(25)}, []core.Time{us(20), us(30)},
			[]core.Time{us(40), us(20), us(30), us(20), us(25), us(12)}},
		{"at-now", []core.Time{us(10), us(11)}, []core.Time{us(10)},
			[]core.Time{us(10), us(10), us(11)}},
		{"empty", []core.Time{us(15)}, []core.Time{us(15)}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newRefHarness(t, 0, true)
			followUp := func(now core.Time) { h.schedule(now, nil) }
			h.schedule(us(10), func(core.Time) {
				for _, at := range c.before {
					h.schedule(at, followUp)
				}
				seq, pending := h.sim.lane.seq, h.sim.Pending()
				h.scheduleEach(c.times)
				if got := h.sim.lane.seq - seq; got != uint64(len(c.times)) {
					t.Fatalf("AtEach reserved %d sequence numbers, want %d", got, len(c.times))
				}
				if got := h.sim.Pending() - pending; got != len(c.times) {
					t.Fatalf("Pending grew by %d, want %d", got, len(c.times))
				}
				for _, at := range c.after {
					h.schedule(at, followUp)
				}
			})
			h.check()
		})
	}
}

// TestAtEachPanics: a series reaching into the past and a nil callback are
// refused like At refuses them, before anything is queued or reserved.
func TestAtEachPanics(t *testing.T) {
	sim := NewSimulator()
	q := sim.LaneQ(0)
	now := core.Time(10 * core.Microsecond)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"past", func() { q.AtEach([]core.Time{now + 5, now - 1}, func(core.Time) {}) }},
		{"nil-fn", func() { q.AtEach([]core.Time{now}, nil) }},
	} {
		name, call := c.name, c.call
		sim.At(now, func(core.Time) {
			seq, pending := sim.lane.seq, sim.Pending()
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AtEach did not panic", name)
				}
				if sim.lane.seq != seq || sim.Pending() != pending {
					t.Errorf("%s: a refused AtEach changed the lane (seq %d -> %d, pending %d -> %d)",
						name, seq, sim.lane.seq, pending, sim.Pending())
				}
			}()
			call()
		})
		sim.Run()
	}
}

// TestAtEachOnShardedLane runs a series on one lane of a sharded simulator,
// interleaved with local ties and cross-lane posts, and requires every lane's
// log to equal the same schedule built from one At call per instant. The
// sharded Pending must count the series' not-yet-queued instants.
func TestAtEachOnShardedLane(t *testing.T) {
	run := func(each bool) []string {
		sim := NewSimulator()
		sim.EnableSharding(3, 2, testLookahead)
		q1, q2 := sim.LaneQ(1), sim.LaneQ(2)
		logs := make([][]string, 3)
		rec := func(lane int, name string) func(core.Time) {
			return func(now core.Time) { logs[lane] = append(logs[lane], fmt.Sprintf("%s@%d", name, now)) }
		}
		la := core.Duration(testLookahead)
		times := make([]core.Time, 50)
		for i := range times {
			times[i] = core.Time(i/2) * core.Time(la/4) // pairs of ties
		}
		q1.At(times[3], rec(1, "before"))
		launch := func(now core.Time) {
			logs[1] = append(logs[1], fmt.Sprintf("launch@%d", now))
			q1.At(now, rec(1, "same-instant"))
			q1.Post(q2, now.Add(la), func(t core.Time) {
				logs[2] = append(logs[2], fmt.Sprintf("hop@%d", t))
				q2.Post(q1, t.Add(la), rec(1, "back"))
			})
		}
		if each {
			q1.AtEach(times, launch)
		} else {
			for _, at := range times {
				q1.At(at, launch)
			}
		}
		q1.At(times[3], rec(1, "after"))
		if p := sim.Pending(); p != len(times)+2 {
			t.Fatalf("each=%v: Pending() = %d before the run, want %d", each, p, len(times)+2)
		}
		sim.Run()
		if p := sim.Pending(); p != 0 {
			t.Fatalf("each=%v: %d events pending after the run", each, p)
		}
		out := make([]string, len(logs))
		for i, l := range logs {
			out[i] = strings.Join(l, " ")
		}
		return out
	}
	want, got := run(false), run(true)
	for lane := range want {
		if got[lane] != want[lane] {
			t.Errorf("lane %d diverged:\nAt:     %s\nAtEach: %s", lane, want[lane], got[lane])
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

// TestSimulatorSameInstantOrdering pins the interleaving the sorted runs
// must preserve: events scheduled for the current instant from inside a
// callback run after already-queued events for the same instant with smaller
// sequence numbers, exactly as with a single heap.
func TestSimulatorSameInstantOrdering(t *testing.T) {
	sim := NewSimulator()
	at := core.Time(3 * core.Microsecond)
	var order []string
	sim.At(at, func(now core.Time) {
		order = append(order, "a")
		// Lands on a run (now == at) but must fire after "b", which was
		// scheduled earlier for the same instant.
		sim.At(now, func(core.Time) { order = append(order, "c") })
	})
	sim.At(at, func(core.Time) { order = append(order, "b") })
	sim.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order %v, want [a b c]", order)
	}
}
