package eventlib

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// timerRef is the reference model for the property test below: the armed set
// as a plain map, popped by scanning for the (deadline, seq) minimum — the
// semantics of a binary heap keyed the same way. The timer list must
// reproduce this order exactly for every schedule, or dispatch batches (and
// with them every figure) would stop being bit-reproducible.
type timerRef map[*Event]core.Time

// before is the reference's own (deadline, seq) order.
func (r timerRef) before(a, b *Event) bool {
	return r[a] < r[b] || (r[a] == r[b] && a.seq < b.seq)
}

func (r timerRef) min() (*Event, bool) {
	var best *Event
	for ev := range r {
		if best == nil || r.before(ev, best) {
			best = ev
		}
	}
	return best, best != nil
}

func (r timerRef) expired(now core.Time) []*Event {
	var due []*Event
	for ev, d := range r {
		if d <= now {
			due = append(due, ev)
		}
	}
	sort.Slice(due, func(i, j int) bool { return r.before(due[i], due[j]) })
	return due
}

// TestTimerWheelMatchesReferenceHeap (named for the timing wheel the list
// replaced; the property is unchanged) drives randomized schedules through
// both the timer list and the reference model, and requires pop order, pop
// identity, exact MinDeadline and counts to match at every step. The inputs
// include exact-deadline ties (among them clusters armed in reverse creation
// order, which must pop in creation order), sub-millisecond offsets, cancels
// and re-arms, deadlines hours apart, time jumps of hours, and advances to
// one nanosecond before and exactly onto the earliest deadline (a timer fires
// at, not before, its instant).
func TestTimerWheelMatchesReferenceHeap(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		var l timerList
		ref := timerRef{}
		var seq uint64
		var armed []*Event
		now := core.Time(0)

		newEvent := func() *Event {
			seq++
			return &Event{seq: seq}
		}
		schedule := func(ev *Event, d core.Time) {
			l.Schedule(ev, d)
			ref[ev] = d
		}
		randDelay := func() core.Duration {
			switch rng.Intn(10) {
			case 0, 1, 2: // a few whole milliseconds: frequent exact ties
				return core.Duration(rng.Intn(3)) * core.Millisecond
			case 3, 4: // sub-millisecond offsets
				return core.Duration(rng.Intn(int(core.Millisecond)))
			case 5, 6: // up to a minute
				return core.Duration(rng.Intn(60000)) * core.Millisecond
			case 7, 8: // minutes to hours
				return core.Duration(1+rng.Intn(120)) * 2 * core.Minute
			default: // hours beyond the rest
				return 360*core.Minute + core.Duration(rng.Intn(1000))*core.Second
			}
		}

		check := func(what string) {
			if l.Len() != len(ref) {
				t.Fatalf("trial %d (%s): list holds %d timers, reference %d", trial, what, l.Len(), len(ref))
			}
			gotMin, gotOK := l.MinDeadline()
			refEv, refOK := ref.min()
			if gotOK != refOK {
				t.Fatalf("trial %d (%s): MinDeadline ok=%v, reference %v", trial, what, gotOK, refOK)
			}
			if refOK && gotMin != ref[refEv] {
				t.Fatalf("trial %d (%s): MinDeadline %d, reference %d (seq %d)", trial, what, gotMin, ref[refEv], refEv.seq)
			}
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(11); {
			case op < 4: // arm a fresh timer
				ev := newEvent()
				schedule(ev, now.Add(randDelay()))
				armed = append(armed, ev)
			case op < 5: // a tie cluster armed in reverse creation order, one cancelled
				d := now.Add(randDelay())
				cluster := make([]*Event, 2+rng.Intn(5))
				for i := range cluster {
					cluster[i] = newEvent()
				}
				for i := len(cluster) - 1; i >= 0; i-- {
					schedule(cluster[i], d)
				}
				gone := cluster[rng.Intn(len(cluster))]
				l.Cancel(gone)
				delete(ref, gone)
				armed = append(armed, cluster...)
			case op < 7 && len(armed) > 0: // re-arm an existing timer
				ev := armed[rng.Intn(len(armed))]
				if _, ok := ref[ev]; ok {
					schedule(ev, now.Add(randDelay()))
				}
			case op < 9 && len(armed) > 0: // cancel
				ev := armed[rng.Intn(len(armed))]
				if _, ok := ref[ev]; ok {
					l.Cancel(ev)
					delete(ref, ev)
				}
			default: // advance time and drain expired
				var jump core.Duration
				switch rng.Intn(6) {
				case 0:
					jump = core.Duration(rng.Intn(int(4 * core.Millisecond)))
				case 1:
					jump = core.Duration(rng.Intn(2000)) * core.Millisecond
				case 2:
					jump = core.Duration(rng.Intn(10)) * core.Minute
				case 3:
					jump = core.Duration(rng.Intn(3)) * 180 * core.Minute
				default: // onto the earliest deadline, or one nanosecond short of it
					if ev, ok := ref.min(); ok && ref[ev] > now {
						jump = ref[ev].Sub(now) - core.Duration(rng.Intn(2))
					}
				}
				now = now.Add(jump)
				want := ref.expired(now)
				for i := 0; ; i++ {
					got := l.PopExpired(now)
					if got == nil {
						if i != len(want) {
							t.Fatalf("trial %d step %d: list popped %d events, reference expects %d", trial, step, i, len(want))
						}
						break
					}
					if i >= len(want) {
						t.Fatalf("trial %d step %d: list popped extra event seq %d (deadline %d, now %d)",
							trial, step, got.seq, got.deadline, now)
					}
					if got != want[i] {
						t.Fatalf("trial %d step %d: pop %d: list fired seq %d (deadline %d), reference expects seq %d (deadline %d)",
							trial, step, i, got.seq, got.deadline, want[i].seq, want[i].deadline)
					}
					if got.armed {
						t.Fatalf("trial %d step %d: popped event seq %d still marked armed", trial, step, got.seq)
					}
					delete(ref, got)
				}
			}
			check("step")
		}

		// Drain the remainder through PopMin (Close's path): exact global
		// order to the end.
		for {
			refEv, ok := ref.min()
			got := l.PopMin()
			if !ok {
				if got != nil {
					t.Fatalf("trial %d: PopMin returned seq %d from an empty reference", trial, got.seq)
				}
				break
			}
			if got != refEv {
				t.Fatalf("trial %d: PopMin fired seq %d, reference expects seq %d", trial, got.seq, refEv.seq)
			}
			delete(ref, got)
		}
		if l.Len() != 0 {
			t.Fatalf("trial %d: %d timers left after drain", trial, l.Len())
		}
	}
}

// TestTimerWheelSameTickFIFO pins the tie rule explicitly: timers sharing an
// exact deadline fire in creation-sequence order, even when armed in reverse
// and interleaved with a cancel — the heap's (deadline, seq) comparator.
func TestTimerWheelSameTickFIFO(t *testing.T) {
	var l timerList
	deadline := core.Time(500 * core.Millisecond)
	evs := make([]*Event, 6)
	for i := range evs {
		evs[i] = &Event{seq: uint64(i + 1)}
	}
	// Arm in reverse creation order; the pop must come back in seq order.
	for i := len(evs) - 1; i >= 0; i-- {
		l.Schedule(evs[i], deadline)
	}
	l.Cancel(evs[2])
	want := []uint64{1, 2, 4, 5, 6}
	var got []uint64
	for {
		ev := l.PopExpired(deadline)
		if ev == nil {
			break
		}
		got = append(got, ev.seq)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("popped %v, want seq order %v", got, want)
	}
}

// TestTimerWheelFarFutureCascade pins far-future behavior: a deadline hours
// ahead is reported exactly by MinDeadline, survives advancement in uneven
// steps below its deadline, and fires at — not before — its exact instant.
func TestTimerWheelFarFutureCascade(t *testing.T) {
	var l timerList
	far := &Event{seq: 1}
	deadline := core.Time(540*core.Minute + 123*core.Millisecond + 45)
	l.Schedule(far, deadline)
	if min, ok := l.MinDeadline(); !ok || min != deadline {
		t.Fatalf("MinDeadline = %d,%v; want exact far deadline %d", min, ok, deadline)
	}
	for _, at := range []core.Time{
		core.Time(60 * core.Minute), core.Time(300 * core.Minute),
		deadline - 1,
	} {
		if ev := l.PopExpired(at); ev != nil {
			t.Fatalf("timer fired at %d, %d before its deadline", at, deadline-at)
		}
		if min, ok := l.MinDeadline(); !ok || min != deadline {
			t.Fatalf("MinDeadline after advance to %d = %d,%v; want %d", at, min, ok, deadline)
		}
	}
	if ev := l.PopExpired(deadline); ev != far {
		t.Fatalf("timer did not fire at its exact deadline")
	}
	if l.Len() != 0 {
		t.Fatalf("%d timers left", l.Len())
	}
}

// Event keeps its 64-byte layout: the 32-bit descriptor and queue count share
// a word, and the one-byte flags share the final one.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 64", got)
	}
}
