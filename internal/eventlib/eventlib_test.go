package eventlib_test

// Tests for the hard edges of the event API: timer-only dispatch, deleting an
// event from inside a callback, re-adding a
// one-shot event, close-while-pending, and the interest bookkeeping behind
// Activate/MirrorInterest that the dual-mechanism servers rely on.

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/devpoll"
	"repro/internal/eventlib"
	"repro/internal/rtsig"
	"repro/internal/simtest"
	"repro/internal/stockpoll"
)

// fire records one callback invocation.
type fire struct {
	fd   int
	what eventlib.What
	at   core.Time
}

// recorder collects callback invocations tagged with a label.
type recorder struct {
	fires  []fire
	labels []string
}

func (r *recorder) cb(label string) eventlib.Callback {
	return func(fd int, what eventlib.What, now core.Time) {
		r.fires = append(r.fires, fire{fd: fd, what: what, at: now})
		r.labels = append(r.labels, label)
	}
}

func TestBackendRegistry(t *testing.T) {
	var names []string
	for _, b := range eventlib.Backends() {
		names = append(names, b.Name)
	}
	if len(names) < 4 || names[0] != "epoll" || names[len(names)-1] != "poll" {
		t.Fatalf("backend preference order = %v", names)
	}
	for _, want := range []string{"epoll", "epoll-et", "devpoll", "rtsig", "poll"} {
		if _, ok := eventlib.Lookup(want); !ok {
			t.Fatalf("backend %q not registered", want)
		}
	}
	if b, ok := eventlib.Lookup(""); !ok || b.Name != "epoll" {
		t.Fatalf("empty name should select the preferred backend, got %+v ok=%v", b, ok)
	}
	if _, ok := eventlib.Lookup("kqueue"); ok {
		t.Fatal("kqueue should not be registered")
	}
	err := eventlib.UnknownBackendError("kqueue")
	if err == nil || !strings.Contains(err.Error(), "choices") || !strings.Contains(err.Error(), "devpoll") {
		t.Fatalf("listed-choices error = %v", err)
	}
	rb, ok := eventlib.Lookup("rtsig")
	if !ok || !rb.EdgeStyle {
		t.Fatalf("rtsig backend should be edge-style: %+v", rb)
	}

	env := simtest.NewEnv()
	for _, name := range names {
		p, b, err := eventlib.OpenBackend(env.K, env.P, name)
		if err != nil {
			t.Fatalf("OpenBackend(%s): %v", name, err)
		}
		if b.Name != name {
			t.Fatalf("OpenBackend(%s) metadata = %+v", name, b)
		}
		if p.Name() != name {
			t.Fatalf("backend %q opened poller %q", name, p.Name())
		}
	}
	if _, _, err := eventlib.OpenBackend(env.K, env.P, "kqueue"); err == nil {
		t.Fatal("OpenBackend(kqueue) should fail")
	}
}

func TestNewUsesRegistryAndOwnsPoller(t *testing.T) {
	env := simtest.NewEnv()
	base, err := eventlib.New(env.K, env.P, eventlib.Config{Backend: "devpoll"})
	if err != nil {
		t.Fatal(err)
	}
	if base.Poller().Name() != "devpoll" {
		t.Fatalf("poller = %s", base.Poller().Name())
	}
	if base.Backend().Name != "devpoll" {
		t.Fatalf("backend metadata = %+v", base.Backend())
	}
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}
	// The base owned the poller, so Close closed it too.
	if err := base.Poller().Add(3, core.POLLIN); err != core.ErrClosed {
		t.Fatalf("owned poller after base Close: Add = %v, want ErrClosed", err)
	}
	if err := base.Close(); err != core.ErrClosed {
		t.Fatalf("double Close = %v", err)
	}

	if _, err := eventlib.New(env.K, env.P, eventlib.Config{Backend: "kqueue"}); err == nil {
		t.Fatal("New with an unknown backend should fail")
	}
}

func TestTimerOnlyDispatch(t *testing.T) {
	env := simtest.NewEnv()
	base := eventlib.NewWithPoller(env.K, env.P, stockpoll.New(env.K, env.P), eventlib.Config{})

	var rec recorder
	oneShot := base.NewTimer(0, rec.cb("once"))
	if err := oneShot.Add(5 * core.Millisecond); err != nil {
		t.Fatal(err)
	}
	periodic := base.NewTimer(eventlib.EvPersist, rec.cb("tick"))
	if err := periodic.Add(10 * core.Millisecond); err != nil {
		t.Fatal(err)
	}
	// A pure timer without a timeout is meaningless.
	if err := base.NewTimer(0, rec.cb("bad")).Add(0); err == nil {
		t.Fatal("pure timer with no timeout should fail to Add")
	}

	base.Dispatch()
	env.K.Sim.At(core.Time(35*core.Millisecond), func(core.Time) {
		_ = periodic.Del()
		base.Stop()
	})
	env.Run()

	var ticks []core.Time
	for i, f := range rec.fires {
		if !f.what.Has(eventlib.EvTimeout) {
			t.Fatalf("fire %d what = %v", i, f.what)
		}
		if rec.labels[i] == "tick" {
			ticks = append(ticks, f.at)
		}
	}
	if rec.labels[0] != "once" || rec.fires[0].at < core.Time(5*core.Millisecond) {
		t.Fatalf("one-shot timer: %v %v", rec.labels, rec.fires)
	}
	if oneShot.Pending() {
		t.Fatal("one-shot timer still pending after firing")
	}
	// The periodic timer re-armed itself every 10 ms: 10, 20, 30.
	if len(ticks) != 3 {
		t.Fatalf("periodic ticks = %v", ticks)
	}
	for i, at := range ticks {
		want := core.Time(core.Duration(i+1) * 10 * core.Millisecond)
		if at < want || at > want.Add(core.Millisecond) {
			t.Fatalf("tick %d at %v, want ~%v", i, at, want)
		}
	}
	if base.Running() {
		t.Fatal("loop still running after Stop")
	}
}

func TestDispatchExitsWhenNothingRemains(t *testing.T) {
	env := simtest.NewEnv()
	base := eventlib.NewWithPoller(env.K, env.P, stockpoll.New(env.K, env.P), eventlib.Config{})
	var rec recorder
	if err := base.NewTimer(0, rec.cb("once")).Add(core.Millisecond); err != nil {
		t.Fatal(err)
	}
	base.Dispatch()
	env.Run()
	if len(rec.fires) != 1 {
		t.Fatalf("fires = %d", len(rec.fires))
	}
	if base.Running() {
		t.Fatal("dispatch should exit once no events remain")
	}
	// The loop can be restarted.
	if err := base.NewTimer(0, rec.cb("again")).Add(core.Millisecond); err != nil {
		t.Fatal(err)
	}
	base.Dispatch()
	env.Run()
	if len(rec.fires) != 2 {
		t.Fatalf("fires after restart = %d", len(rec.fires))
	}
}

func TestDelFromInsideCallback(t *testing.T) {
	env := simtest.NewEnv()
	base := eventlib.NewWithPoller(env.K, env.P, stockpoll.New(env.K, env.P), eventlib.Config{})

	fdA, fileA := env.NewFD(0)
	fdB, fileB := env.NewFD(0)
	var rec recorder
	var evA, evB *eventlib.Event
	evA = base.NewEvent(fdA.Num, eventlib.EvRead|eventlib.EvPersist, func(fd int, what eventlib.What, now core.Time) {
		rec.cb("A")(fd, what, now)
		// Deleting a sibling activated in the same batch must prevent its
		// callback from running.
		_ = evB.Del()
		_ = evA.Del()
		base.Stop()
	})
	evB = base.NewEvent(fdB.Num, eventlib.EvRead|eventlib.EvPersist, rec.cb("B"))
	if err := evA.Add(0); err != nil {
		t.Fatal(err)
	}
	if err := evB.Add(0); err != nil {
		t.Fatal(err)
	}
	// Both become readable before the scan, so both activate in one batch, in
	// registration order.
	fileA.ReadyMask = core.POLLIN
	fileB.ReadyMask = core.POLLIN
	base.Dispatch()
	env.Run()

	if len(rec.fires) != 1 || rec.labels[0] != "A" {
		t.Fatalf("fires = %v (labels %v), want only A", rec.fires, rec.labels)
	}
	if evB.Pending() || base.Poller().Interested(fdB.Num) {
		t.Fatal("B still registered after Del")
	}
	if fdB.Watchers() != 0 {
		t.Fatalf("watchers leaked on B: %d", fdB.Watchers())
	}
}

// A released event is reused by the next NewEvent — but not while a queued
// activation still points at it: the drain must pass the stale entry first,
// so the new registration can never be fired through the old one.
func TestReleaseWaitsForQueuedActivation(t *testing.T) {
	env := simtest.NewEnv()
	base := eventlib.NewWithPoller(env.K, env.P, stockpoll.New(env.K, env.P), eventlib.Config{})

	fdA, fileA := env.NewFD(0)
	fdB, fileB := env.NewFD(0)
	var rec recorder
	var evA, evB, evC *eventlib.Event
	evA = base.NewEvent(fdA.Num, eventlib.EvRead|eventlib.EvPersist, func(fd int, what eventlib.What, now core.Time) {
		rec.cb("A")(fd, what, now)
		if evC != nil {
			base.Stop()
			return
		}
		// B is activated later in this same batch: release it and register
		// a replacement on its descriptor.
		_ = evB.Del()
		evB.Release()
		evC = base.NewEvent(fdB.Num, eventlib.EvRead|eventlib.EvPersist, rec.cb("C"))
		if evC == evB {
			t.Fatal("NewEvent reused a record still queued for this batch")
		}
		if err := evC.Add(0); err != nil {
			t.Fatal(err)
		}
	})
	evB = base.NewEvent(fdB.Num, eventlib.EvRead|eventlib.EvPersist, rec.cb("B"))
	if err := evA.Add(0); err != nil {
		t.Fatal(err)
	}
	if err := evB.Add(0); err != nil {
		t.Fatal(err)
	}
	fileA.ReadyMask = core.POLLIN
	fileB.ReadyMask = core.POLLIN
	base.Dispatch()
	env.Run()

	if got := strings.Join(rec.labels, ","); got != "A,A,C" {
		t.Fatalf("dispatch order = %s, want A,A,C (B deleted, C fired from the next wait)", got)
	}
	if ev := base.NewTimer(0, rec.cb("T")); ev != evB {
		t.Fatal("the drained record was not reused")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("releasing a pending event did not panic")
			}
		}()
		evA.Release()
	}()
}

func TestReAddOneShot(t *testing.T) {
	env := simtest.NewEnv()
	base := eventlib.NewWithPoller(env.K, env.P, stockpoll.New(env.K, env.P), eventlib.Config{})

	fd, file := env.NewFD(core.POLLIN)
	var fires int
	var ev *eventlib.Event
	ev = base.NewEvent(fd.Num, eventlib.EvRead, func(_ int, what eventlib.What, _ core.Time) {
		if !what.Has(eventlib.EvRead) {
			t.Fatalf("what = %v", what)
		}
		fires++
		// A one-shot event is deleted before its callback runs…
		if ev.Pending() || base.Poller().Interested(fd.Num) {
			t.Fatal("one-shot event still registered inside its callback")
		}
		if fires < 3 {
			// …so the callback may re-add it, as in libevent.
			if err := ev.Add(0); err != nil {
				t.Fatal(err)
			}
		} else {
			base.Stop()
		}
	})
	if err := ev.Add(0); err != nil {
		t.Fatal(err)
	}
	_ = file
	base.Dispatch()
	env.Run()

	if fires != 3 {
		t.Fatalf("fires = %d, want 3 (one per re-add)", fires)
	}
	if ev.Pending() {
		t.Fatal("event pending after final fire without re-add")
	}
}

func TestCloseWhileWaitPending(t *testing.T) {
	env := simtest.NewEnv()
	base, err := eventlib.New(env.K, env.P, eventlib.Config{Backend: "poll"})
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := env.NewFD(0) // never becomes ready
	var rec recorder
	ev := base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist, rec.cb("never"))
	if err := ev.Add(0); err != nil {
		t.Fatal(err)
	}
	base.Dispatch()
	env.K.Sim.At(core.Time(core.Millisecond), func(core.Time) {
		if err := base.Close(); err != nil {
			t.Errorf("Close while pending: %v", err)
		}
	})
	env.Run()

	if len(rec.fires) != 0 {
		t.Fatalf("callback ran despite close: %v", rec.fires)
	}
	if base.Running() {
		t.Fatal("loop still running after Close")
	}
	if ev.Pending() {
		t.Fatal("event survived Close")
	}
	if fd.Watchers() != 0 {
		t.Fatalf("watchers leaked: %d", fd.Watchers())
	}
}

func TestPersistentTimeoutRearmsAfterActivity(t *testing.T) {
	env := simtest.NewEnv()
	base := eventlib.NewWithPoller(env.K, env.P, stockpoll.New(env.K, env.P), eventlib.Config{})
	fd, file := env.NewFD(0)
	var rec recorder
	ev := base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist, func(f int, what eventlib.What, now core.Time) {
		rec.cb("ev")(f, what, now)
		if what.Has(eventlib.EvRead) {
			file.ReadyMask = 0 // drain, so the next firing is a timeout
		}
		if len(rec.fires) == 3 {
			base.Stop()
		}
	})
	if err := ev.Add(10 * core.Millisecond); err != nil {
		t.Fatal(err)
	}
	base.Dispatch()
	// Readiness at 4 ms beats the 10 ms timeout…
	env.K.Sim.At(core.Time(4*core.Millisecond), func(now core.Time) {
		file.SetReady(now, core.POLLIN)
	})
	env.Run()

	if len(rec.fires) != 3 {
		t.Fatalf("fires = %v", rec.fires)
	}
	if !rec.fires[0].what.Has(eventlib.EvRead) || rec.fires[0].at < core.Time(4*core.Millisecond) {
		t.Fatalf("first fire = %+v, want EvRead at ~4ms", rec.fires[0])
	}
	// …and the persistent timeout re-arms from the activity, so the next two
	// firings are timeouts ~10 ms apart.
	for i := 1; i < 3; i++ {
		if !rec.fires[i].what.Has(eventlib.EvTimeout) {
			t.Fatalf("fire %d = %+v, want EvTimeout", i, rec.fires[i])
		}
		gap := rec.fires[i].at.Sub(rec.fires[i-1].at)
		if gap < 9*core.Millisecond || gap > 12*core.Millisecond {
			t.Fatalf("timeout gap %d = %v, want ~10ms", i, gap)
		}
	}
}

func TestMirrorInterestAndActivate(t *testing.T) {
	env := simtest.NewEnv()
	primary := rtsig.New(env.K, env.P, rtsig.DefaultOptions())
	mirror := devpoll.Open(env.K, env.P, devpoll.DefaultOptions())
	base := eventlib.NewWithPoller(env.K, env.P, primary, eventlib.Config{MirrorInterest: true})
	base.AttachPoller(mirror)

	fd, _ := env.NewFD(0)
	ev := base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist, func(int, eventlib.What, core.Time) {})
	if err := ev.Add(0); err != nil {
		t.Fatal(err)
	}
	if !primary.Interested(fd.Num) || !mirror.Interested(fd.Num) {
		t.Fatal("MirrorInterest should register on both pollers")
	}
	if err := base.Activate(mirror, false); err != nil {
		t.Fatal(err)
	}
	if base.Poller() != mirror {
		t.Fatal("Activate did not switch the wait target")
	}
	if err := base.Activate(stockpoll.New(env.K, env.P), false); err == nil {
		t.Fatal("Activate of an unattached poller should fail")
	}
	if err := ev.Del(); err != nil {
		t.Fatal(err)
	}
	if primary.Interested(fd.Num) || mirror.Interested(fd.Num) {
		t.Fatal("Del should remove the interest from both pollers")
	}
}

func TestActivateReregisters(t *testing.T) {
	env := simtest.NewEnv()
	primary := rtsig.New(env.K, env.P, rtsig.DefaultOptions())
	sibling := stockpoll.New(env.K, env.P)
	base := eventlib.NewWithPoller(env.K, env.P, primary, eventlib.Config{})
	base.AttachPoller(sibling)

	var fds []int
	for i := 0; i < 3; i++ {
		fd, _ := env.NewFD(0)
		ev := base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist, func(int, eventlib.What, core.Time) {})
		if err := ev.Add(0); err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd.Num)
	}
	if sibling.Len() != 0 {
		t.Fatal("sibling gained interests without MirrorInterest")
	}
	// phhttpd's overflow recovery: rebuild the sibling's interest set from the
	// pending events, then wait on it.
	if err := base.Activate(sibling, true); err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		if !sibling.Interested(fd) {
			t.Fatalf("fd %d not re-registered on the sibling", fd)
		}
	}
	// Interests registered before the switch linger on the old mechanism (as
	// phhttpd leaves its F_SETSIG registrations behind); Del cleans up both.
	if primary.Len() != 3 {
		t.Fatalf("primary interests = %d", primary.Len())
	}
}

func TestDuplicateEventPerDescriptorRejected(t *testing.T) {
	env := simtest.NewEnv()
	base := eventlib.NewWithPoller(env.K, env.P, stockpoll.New(env.K, env.P), eventlib.Config{})
	fd, _ := env.NewFD(0)
	a := base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist, func(int, eventlib.What, core.Time) {})
	b := base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist, func(int, eventlib.What, core.Time) {})
	if err := a.Add(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(0); err == nil {
		t.Fatal("second event on the same descriptor should fail to Add")
	}
	// Re-adding the same handle is fine (it re-arms the timeout).
	if err := a.Add(core.Second); err != nil {
		t.Fatal(err)
	}
}

func TestWhatString(t *testing.T) {
	w := eventlib.EvRead | eventlib.EvPersist
	if s := w.String(); !strings.Contains(s, "READ") || !strings.Contains(s, "PERSIST") {
		t.Fatalf("What.String = %q", s)
	}
	if eventlib.What(0).String() != "0" {
		t.Fatal("zero What should render as 0")
	}
}
