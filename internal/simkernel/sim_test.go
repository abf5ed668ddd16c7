package simkernel

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestSimulatorRunsEventsInOrder(t *testing.T) {
	s := NewSimulator()
	var order []int
	s.At(core.Time(30*core.Microsecond), func(core.Time) { order = append(order, 3) })
	s.At(core.Time(10*core.Microsecond), func(core.Time) { order = append(order, 1) })
	s.At(core.Time(20*core.Microsecond), func(core.Time) { order = append(order, 2) })
	end := s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if end != core.Time(30*core.Microsecond) {
		t.Fatalf("end = %v", end)
	}
	if s.Executed != 3 {
		t.Fatalf("Executed = %d", s.Executed)
	}
}

func TestSimulatorTieBreakIsFIFO(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(core.Time(5*core.Microsecond), func(core.Time) { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestSimulatorAfterAndNow(t *testing.T) {
	s := NewSimulator()
	var seen core.Time
	s.After(2*core.Millisecond, func(now core.Time) {
		seen = now
		s.After(3*core.Millisecond, func(now core.Time) { seen = now })
	})
	s.Run()
	if seen != core.Time(5*core.Millisecond) {
		t.Fatalf("nested After: got %v", seen)
	}
}

func TestSimulatorAfterNegativeIsImmediate(t *testing.T) {
	s := NewSimulator()
	ran := false
	s.After(-5, func(core.Time) { ran = true })
	s.Run()
	if !ran {
		t.Fatal("negative After never ran")
	}
}

func TestSimulatorSchedulingInPastPanics(t *testing.T) {
	s := NewSimulator()
	s.At(core.Time(core.Second), func(now core.Time) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		s.At(now-1, func(core.Time) {})
	})
	s.Run()
}

func TestSimulatorNilCallbackPanics(t *testing.T) {
	s := NewSimulator()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil callback")
		}
	}()
	s.At(0, nil)
}

func TestSimulatorRunUntil(t *testing.T) {
	s := NewSimulator()
	var ran []int
	s.At(core.Time(1*core.Second), func(core.Time) { ran = append(ran, 1) })
	s.At(core.Time(2*core.Second), func(core.Time) { ran = append(ran, 2) })
	s.At(core.Time(3*core.Second), func(core.Time) { ran = append(ran, 3) })
	now := s.RunUntil(core.Time(2 * core.Second))
	if len(ran) != 2 {
		t.Fatalf("ran = %v", ran)
	}
	if now != core.Time(2*core.Second) {
		t.Fatalf("now = %v", now)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	// Resuming runs the rest.
	s.Run()
	if len(ran) != 3 {
		t.Fatalf("after resume ran = %v", ran)
	}
}

func TestSimulatorStop(t *testing.T) {
	s := NewSimulator()
	count := 0
	for i := 1; i <= 5; i++ {
		s.At(core.Time(i)*core.Time(core.Second), func(core.Time) {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2 (Stop should halt the loop)", count)
	}
	if s.Pending() != 3 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestSimulatorStep(t *testing.T) {
	s := NewSimulator()
	if s.Step() {
		t.Fatal("Step on empty queue should report false")
	}
	ran := 0
	s.At(core.Time(core.Millisecond), func(core.Time) { ran++ })
	if !s.Step() {
		t.Fatal("Step should execute the pending event")
	}
	if ran != 1 {
		t.Fatalf("ran = %d", ran)
	}
}

// Property: regardless of insertion order, events execute in nondecreasing
// time order and virtual time is monotone.
func TestSimulatorMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSimulator()
		count := int(n%64) + 1
		times := make([]core.Time, count)
		var executed []core.Time
		for i := 0; i < count; i++ {
			times[i] = core.Time(rng.Int63n(int64(10 * core.Second)))
			at := times[i]
			s.At(at, func(now core.Time) { executed = append(executed, now) })
		}
		s.Run()
		if len(executed) != count {
			return false
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := range times {
			if executed[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestLaneQAndSimulatorShareOneQueue: a sequential simulator is the 1-lane
// engine, so Simulator.At and the LaneQ(0) handle feed one queue with one
// sequence counter, and interleaved schedules run in a single (at, seq)
// order.
func TestLaneQAndSimulatorShareOneQueue(t *testing.T) {
	s := NewSimulator()
	q := s.LaneQ(0)
	var order []string
	rec := func(name string) func(core.Time) {
		return func(core.Time) { order = append(order, name) }
	}
	s.At(core.Time(2*core.Microsecond), rec("s2a"))
	q.At(core.Time(1*core.Microsecond), rec("q1"))
	q.At(core.Time(2*core.Microsecond), rec("q2"))
	s.At(core.Time(2*core.Microsecond), rec("s2b"))
	s.At(core.Time(1*core.Microsecond), func(now core.Time) {
		order = append(order, "s1")
		// Same-instant events from both front ends land behind everything
		// already queued for this instant, in call order.
		q.At(now, rec("q1-now"))
		s.At(now, rec("s1-now"))
		q.After(core.Microsecond, rec("q2-after"))
	})
	s.Run()
	want := []string{"q1", "s1", "q1-now", "s1-now", "s2a", "q2", "s2b", "q2-after"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if q.Now() != s.Now() || s.Now() != core.Time(2*core.Microsecond) {
		t.Fatalf("lane clock %v, simulator clock %v, want both at 2µs", q.Now(), s.Now())
	}
	if s.Executed != int64(len(want)) {
		t.Fatalf("Executed = %d, want %d", s.Executed, len(want))
	}
}

// TestRunUntilParksClockOnlyWithEventsLeft pins RunUntil's deadline rule: the
// clock moves to the deadline only when events remain beyond it; a queue that
// drains first leaves the clock at the last executed event.
func TestRunUntilParksClockOnlyWithEventsLeft(t *testing.T) {
	s := NewSimulator()
	s.At(core.Time(core.Millisecond), func(core.Time) {})
	if now := s.RunUntil(core.Time(5 * core.Millisecond)); now != core.Time(core.Millisecond) {
		t.Fatalf("drained run left the clock at %v, want the last event's 1ms", now)
	}
	s.LaneQ(0).At(core.Time(9*core.Millisecond), func(core.Time) {})
	if now := s.RunUntil(core.Time(5 * core.Millisecond)); now != core.Time(5*core.Millisecond) {
		t.Fatalf("run with an event beyond the deadline left the clock at %v, want 5ms", now)
	}
	if s.LaneQ(0).Now() != s.Now() {
		t.Fatalf("lane clock %v differs from simulator clock %v", s.LaneQ(0).Now(), s.Now())
	}
	if now := s.Run(); now != core.Time(9*core.Millisecond) || s.Pending() != 0 {
		t.Fatalf("resume ended at %v with %d pending, want 9ms and none", now, s.Pending())
	}
}
