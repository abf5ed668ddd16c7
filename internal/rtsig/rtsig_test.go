package rtsig

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/simtest"
)

func newQueue(env *simtest.Env, opts Options) *Queue { return New(env.K, env.P, opts) }

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaults(t *testing.T) {
	env := simtest.NewEnv()
	q := newQueue(env, Options{})
	if q.Name() != "rtsig" {
		t.Fatalf("Name = %q", q.Name())
	}
	if q.opts.QueueLimit != DefaultQueueLimit {
		t.Fatalf("QueueLimit = %d", q.opts.QueueLimit)
	}
	o := DefaultOptions()
	if o.QueueLimit != DefaultQueueLimit || o.BatchDequeue {
		t.Fatalf("DefaultOptions = %+v", o)
	}
}

func TestRegistrationLifecycle(t *testing.T) {
	env := simtest.NewEnv()
	q := newQueue(env, DefaultOptions())
	fd, _ := env.NewFD(0)
	env.P.Batch(0, func() {
		must(t, q.Add(fd.Num, core.POLLIN))
	}, nil)
	env.Run()
	if !q.Interested(fd.Num) || q.Len() != 1 {
		t.Fatal("registration missing")
	}
	if fd.Watchers() != 1 {
		t.Fatalf("fasync watchers = %d", fd.Watchers())
	}
	// Registering costs an fcntl round trip.
	want := env.K.Cost.SyscallEntry + env.K.Cost.FcntlSetSig
	if env.P.TotalCharged != want {
		t.Fatalf("charged %v, want %v", env.P.TotalCharged, want)
	}
	if err := q.Add(fd.Num, core.POLLIN); err != core.ErrExists {
		t.Fatalf("duplicate Add: %v", err)
	}
	if err := q.Add(999, core.POLLIN); err != core.ErrBadFD {
		t.Fatalf("Add of unknown fd: %v", err)
	}
	env.P.Batch(env.K.Now(), func() {
		must(t, q.Modify(fd.Num, core.POLLIN|core.POLLOUT))
	}, nil)
	env.Run()
	if err := q.Modify(12345, core.POLLIN); err != core.ErrNotFound {
		t.Fatalf("Modify missing: %v", err)
	}
	env.P.Batch(env.K.Now(), func() {
		must(t, q.Remove(fd.Num))
	}, nil)
	env.Run()
	if q.Interested(fd.Num) || fd.Watchers() != 0 {
		t.Fatal("Remove did not unregister")
	}
	if err := q.Remove(fd.Num); err != core.ErrNotFound {
		t.Fatalf("double Remove: %v", err)
	}
}

func TestSignalDeliveryOneAtATime(t *testing.T) {
	env := simtest.NewEnv()
	q := newQueue(env, DefaultOptions())
	fd, file := env.NewFD(0)
	env.P.Batch(0, func() { must(t, q.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()

	// Two completions queue two siginfo entries.
	file.SetReady(env.K.Now(), core.POLLIN)
	file.SetReady(env.K.Now(), core.POLLIN)
	env.Run()
	if q.QueueLength() != 2 {
		t.Fatalf("QueueLength = %d", q.QueueLength())
	}

	var col simtest.Collector
	q.Wait(10, core.Forever, col.Handler())
	env.Run()
	// Without batch dequeue, sigwaitinfo returns exactly one event per call.
	if len(col.Events) != 1 || col.Events[0].FD != fd.Num || !col.Events[0].Ready.Has(core.POLLIN) {
		t.Fatalf("events = %+v", col.Events)
	}
	if q.QueueLength() != 1 {
		t.Fatalf("QueueLength after one dequeue = %d", q.QueueLength())
	}
	st := q.MechanismStats()
	if st.Enqueued != 2 || st.EventsReturned != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBatchDequeueSigtimedwait4(t *testing.T) {
	env := simtest.NewEnv()
	opts := DefaultOptions()
	opts.BatchDequeue = true
	q := newQueue(env, opts)
	fd, file := env.NewFD(0)
	env.P.Batch(0, func() { must(t, q.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	for i := 0; i < 5; i++ {
		file.SetReady(env.K.Now(), core.POLLIN)
	}
	env.Run()

	var col simtest.Collector
	q.Wait(3, core.Forever, col.Handler())
	env.Run()
	if len(col.Events) != 3 {
		t.Fatalf("batch dequeue returned %d events, want 3", len(col.Events))
	}
	if q.QueueLength() != 2 {
		t.Fatalf("QueueLength = %d", q.QueueLength())
	}
}

func TestBatchDequeueCheaperPerEventThanSingle(t *testing.T) {
	run := func(batch bool) core.Duration {
		env := simtest.NewEnv()
		opts := DefaultOptions()
		opts.BatchDequeue = batch
		q := newQueue(env, opts)
		fd, file := env.NewFD(0)
		env.P.Batch(0, func() { must(t, q.Add(fd.Num, core.POLLIN)) }, nil)
		env.Run()
		for i := 0; i < 16; i++ {
			file.SetReady(env.K.Now(), core.POLLIN)
		}
		env.Run()
		before := env.P.TotalCharged
		remaining := 16
		for remaining > 0 {
			got := 0
			q.Wait(16, core.Forever, func(ev []core.Event, _ core.Time) { got = len(ev) })
			env.Run()
			remaining -= got
		}
		return env.P.TotalCharged - before
	}
	single := run(false)
	batched := run(true)
	if batched >= single {
		t.Fatalf("sigtimedwait4 batching (%v) should beat one syscall per event (%v)", batched, single)
	}
}

func TestDequeueOrderIsFIFO(t *testing.T) {
	env := simtest.NewEnv()
	q := newQueue(env, DefaultOptions())
	fdA, fileA := env.NewFD(0)
	fdB, fileB := env.NewFD(0)
	env.P.Batch(0, func() {
		must(t, q.Add(fdA.Num, core.POLLIN))
		must(t, q.Add(fdB.Num, core.POLLIN))
	}, nil)
	env.Run()

	// Every descriptor carries SIGRTMIN, so siginfo dequeues in completion
	// order across descriptors.
	fileA.SetReady(env.K.Now(), core.POLLIN)
	fileB.SetReady(env.K.Now(), core.POLLIN)
	fileA.SetReady(env.K.Now(), core.POLLHUP)
	env.Run()

	var order []core.Event
	for i := 0; i < 3; i++ {
		q.Wait(1, core.Forever, func(ev []core.Event, _ core.Time) { order = append(order, ev...) })
		env.Run()
	}
	if len(order) != 3 {
		t.Fatalf("order = %+v", order)
	}
	if order[0].FD != fdA.Num || !order[0].Ready.Has(core.POLLIN) ||
		order[1].FD != fdB.Num ||
		order[2].FD != fdA.Num || !order[2].Ready.Has(core.POLLHUP) {
		t.Fatalf("dequeue order is not completion order: %+v", order)
	}
}

func TestWaitBlocksUntilCompletionArrives(t *testing.T) {
	env := simtest.NewEnv()
	q := newQueue(env, DefaultOptions())
	fd, file := env.NewFD(0)
	env.P.Batch(0, func() { must(t, q.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	var col simtest.Collector
	q.Wait(1, core.Forever, col.Handler())
	env.K.Sim.At(core.Time(4*core.Millisecond), func(now core.Time) { file.SetReady(now, core.POLLIN) })
	env.Run()
	if col.Calls != 1 || len(col.Events) != 1 {
		t.Fatalf("collector = %+v", col)
	}
	if col.At < core.Time(4*core.Millisecond) {
		t.Fatalf("woke too early: %v", col.At)
	}
}

func TestWaitTimeoutAndZeroTimeout(t *testing.T) {
	env := simtest.NewEnv()
	q := newQueue(env, DefaultOptions())
	fd, _ := env.NewFD(0)
	env.P.Batch(0, func() { must(t, q.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()

	var col simtest.Collector
	q.Wait(1, 0, col.Handler())
	env.Run()
	if col.Calls != 1 || len(col.Events) != 0 {
		t.Fatalf("non-blocking wait: %+v", col)
	}

	var col2 simtest.Collector
	q.Wait(1, 5*core.Millisecond, col2.Handler())
	env.Run()
	if col2.Calls != 1 || len(col2.Events) != 0 || col2.At < core.Time(5*core.Millisecond) {
		t.Fatalf("timed wait: %+v", col2)
	}
}

func TestOverflowRaisesSIGIOAndRecoverFlushes(t *testing.T) {
	env := simtest.NewEnv()
	opts := DefaultOptions()
	opts.QueueLimit = 4
	q := newQueue(env, opts)
	fd, file := env.NewFD(0)
	env.P.Batch(0, func() { must(t, q.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()

	for i := 0; i < 10; i++ {
		file.SetReady(env.K.Now(), core.POLLIN)
	}
	env.Run()
	if !q.Overflowed() {
		t.Fatal("queue did not overflow")
	}
	if q.QueueLength() != 4 {
		t.Fatalf("QueueLength = %d, want the limit 4", q.QueueLength())
	}
	st := q.MechanismStats()
	if st.Overflows != 1 || st.Dropped != 6 || st.Enqueued != 4 {
		t.Fatalf("stats = %+v", st)
	}

	// The next wait reports the SIGIO sentinel before anything else.
	var col simtest.Collector
	q.Wait(1, core.Forever, col.Handler())
	env.Run()
	if len(col.Events) != 1 || col.Events[0].FD != OverflowFD {
		t.Fatalf("expected overflow sentinel, got %+v", col.Events)
	}

	// Recovery flushes pending signals; the application would now poll().
	env.P.Batch(env.K.Now(), func() {
		if flushed := q.Recover(); flushed != 4 {
			t.Errorf("Recover flushed %d, want 4", flushed)
		}
	}, nil)
	env.Run()
	if q.Overflowed() || q.QueueLength() != 0 {
		t.Fatal("Recover did not reset the queue")
	}

	// New completions queue normally again.
	file.SetReady(env.K.Now(), core.POLLIN)
	env.Run()
	if q.QueueLength() != 1 {
		t.Fatalf("QueueLength after recovery = %d", q.QueueLength())
	}
}

func TestStaleEventsSurviveRemoveAndClose(t *testing.T) {
	env := simtest.NewEnv()
	q := newQueue(env, DefaultOptions())
	fd, file := env.NewFD(0)
	env.P.Batch(0, func() { must(t, q.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	file.SetReady(env.K.Now(), core.POLLIN)
	env.Run()

	// The application closes the connection before picking up the event; the
	// stale event stays on the queue and is delivered afterwards.
	env.P.Batch(env.K.Now(), func() {
		must(t, q.Remove(fd.Num))
	}, nil)
	env.Run()
	if err := env.P.CloseFD(env.K.Now(), fd.Num); err != nil {
		t.Fatal(err)
	}
	var col simtest.Collector
	q.Wait(1, core.Forever, col.Handler())
	env.Run()
	if len(col.Events) != 1 || col.Events[0].FD != fd.Num {
		t.Fatalf("stale event lost: %+v", col.Events)
	}
}

func TestEventMaskFiltering(t *testing.T) {
	env := simtest.NewEnv()
	q := newQueue(env, DefaultOptions())
	fd, file := env.NewFD(0)
	env.P.Batch(0, func() { must(t, q.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	// A write-readiness transition does not produce a read-interest signal.
	file.SetReady(env.K.Now(), core.POLLOUT)
	env.Run()
	if q.QueueLength() != 0 {
		t.Fatalf("unwanted completion queued: %d", q.QueueLength())
	}
	// Hangups are always delivered.
	file.SetReady(env.K.Now(), core.POLLHUP)
	env.Run()
	if q.QueueLength() != 1 {
		t.Fatalf("hangup not queued: %d", q.QueueLength())
	}
}

func TestEnqueueCostGrowsWithRegisteredDescriptors(t *testing.T) {
	cost := func(registered int) core.Duration {
		env := simtest.NewEnv()
		q := newQueue(env, DefaultOptions())
		var active *simtest.FakeFile
		env.P.Batch(0, func() {
			fd, f := env.NewFD(0)
			must(t, q.Add(fd.Num, core.POLLIN))
			active = f
			for i := 0; i < registered-1; i++ {
				idleFD, _ := env.NewFD(0)
				must(t, q.Add(idleFD.Num, core.POLLIN))
			}
		}, nil)
		env.Run()
		before := env.K.CPU.Busy
		active.SetReady(env.K.Now(), core.POLLIN)
		env.Run()
		return env.K.CPU.Busy - before
	}
	small := cost(10)
	large := cost(510)
	if large <= small {
		t.Fatalf("enqueue cost should grow with the fasync population: %v -> %v", small, large)
	}
}

func TestCloseAndUseAfterClose(t *testing.T) {
	env := simtest.NewEnv()
	q := newQueue(env, DefaultOptions())
	fd, _ := env.NewFD(0)
	env.P.Batch(0, func() { must(t, q.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if fd.Watchers() != 0 {
		t.Fatal("fasync watcher leaked")
	}
	if err := q.Close(); err != core.ErrClosed {
		t.Fatalf("double Close: %v", err)
	}
	if err := q.Add(fd.Num, core.POLLIN); err != core.ErrClosed {
		t.Fatalf("Add after Close: %v", err)
	}
	if err := q.Modify(fd.Num, core.POLLIN); err != core.ErrClosed {
		t.Fatalf("Modify after Close: %v", err)
	}
	if err := q.Remove(fd.Num); err != core.ErrClosed {
		t.Fatalf("Remove after Close: %v", err)
	}
	var col simtest.Collector
	q.Wait(1, core.Forever, col.Handler())
	if col.Calls != 1 || col.Events != nil {
		t.Fatalf("Wait after Close: %+v", col)
	}
}

// Property (DESIGN.md §6): the queue never exceeds its limit, every completion
// is either enqueued or counted as dropped, and overflow implies SIGIO.
func TestQueueBoundProperty(t *testing.T) {
	f := func(limit uint8, completions uint8) bool {
		env := simtest.NewEnv()
		opts := DefaultOptions()
		opts.QueueLimit = int(limit%32) + 1
		q := newQueue(env, opts)
		fd, file := env.NewFD(0)
		var err error
		env.P.Batch(0, func() { err = q.Add(fd.Num, core.POLLIN) }, nil)
		env.Run()
		if err != nil {
			return false
		}
		total := int(completions%100) + 1
		for i := 0; i < total; i++ {
			file.SetReady(env.K.Now(), core.POLLIN)
			if q.QueueLength() > opts.QueueLimit {
				return false
			}
		}
		env.Run()
		st := q.MechanismStats()
		if st.Enqueued+st.Dropped != int64(total) {
			return false
		}
		if st.Dropped > 0 && (!q.Overflowed() || st.Overflows == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
