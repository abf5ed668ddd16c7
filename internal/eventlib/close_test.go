package eventlib

// White-box test for Base.Close's timer teardown. The loop used to read the
// earliest timer and call Del, trusting Del to remove that exact element; progress
// depended on an invariant Del does not promise (it early-returns for events
// it considers not pending). The teardown now pops the head unconditionally,
// so no state an event can reach — today's or a future Del early-return — can
// turn Close into an infinite loop.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simkernel"
)

func closeTestBase(t *testing.T) *Base {
	t.Helper()
	k := simkernel.NewKernel(nil)
	p := k.NewProc("close-test")
	b, err := New(k, p, Config{Backend: "poll"})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCloseDrainsTimerHeap(t *testing.T) {
	b := closeTestBase(t)
	var evs []*Event
	for i := 0; i < 5; i++ {
		ev := b.NewTimer(EvPersist, func(int, What, core.Time) {})
		if err := ev.Add(core.Duration(i+1) * core.Second); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if b.timers.Len() != 0 {
		t.Fatalf("timer list not drained: %d left", b.timers.Len())
	}
	for i, ev := range evs {
		if ev.Pending() || ev.armed {
			t.Fatalf("timer %d still armed after Close (pending=%v armed=%v)", i, ev.Pending(), ev.armed)
		}
	}
}

// TestCloseTerminatesWhenDelWouldNoOp forces the exact hazard: an armed timer
// whose added flag is already false makes Del a pure no-op, so a teardown
// relying on Del for progress would spin forever. The unconditional pop must
// still terminate and empty the timer list.
func TestCloseTerminatesWhenDelWouldNoOp(t *testing.T) {
	b := closeTestBase(t)
	ev := b.NewTimer(EvPersist, func(int, What, core.Time) {})
	if err := ev.Add(core.Second); err != nil {
		t.Fatal(err)
	}
	// Simulate the state a future Del early-return could leave behind: the
	// event sits in the timer list but Del will refuse to touch it.
	ev.added = false

	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = b.Close()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not terminate with a no-op Del event in the timer list")
	}
	if b.timers.Len() != 0 {
		t.Fatalf("timer list not drained: %d left", b.timers.Len())
	}
}
