package compio

import (
	"testing"

	"repro/internal/core"
	"repro/internal/simtest"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// open builds a ring with registered buffers off so charge assertions don't
// need to fold in the one-time RingRegisterBuf.
func open(env *simtest.Env, opts Options) *Compio {
	return Open(env.K, env.P, opts)
}

func TestDefaults(t *testing.T) {
	opts := DefaultOptions()
	if opts.SQSize != 64 || opts.CQSize != 4096 {
		t.Fatalf("DefaultOptions = %+v", opts)
	}
	if !opts.RegisteredBuffers {
		t.Fatal("registered buffers must be the default configuration")
	}
	env := simtest.NewEnv()
	c := open(env, Options{})
	if o := c.Options(); o.SQSize != 64 || o.CQSize != 4096 {
		t.Fatalf("zero options not clamped: %+v", o)
	}
	if c.Name() != "compio" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestRegisteredBufferPoolChargedOnceAtOpen(t *testing.T) {
	env := simtest.NewEnv()
	open(env, Options{RegisteredBuffers: true})
	want := env.K.Cost.SyscallEntry + env.K.Cost.RingRegisterBuf
	if env.P.TotalCharged != want {
		t.Fatalf("open charged %v, want %v", env.P.TotalCharged, want)
	}
}

// Submissions are syscall-free until the SQ fills: an Add charges only the
// registration-time driver readiness check, never a syscall entry.
func TestSubmissionIsSyscallFree(t *testing.T) {
	env := simtest.NewEnv()
	c := open(env, Options{SQSize: 16})
	var fds []int
	env.P.Batch(0, func() {
		for i := 0; i < 3; i++ {
			fd, _ := env.NewFD(0)
			must(t, c.Add(fd.Num, core.POLLIN))
			fds = append(fds, fd.Num)
		}
	}, nil)
	env.Run()
	want := env.K.Cost.DriverPoll.Scale(3)
	if env.P.TotalCharged != want {
		t.Fatalf("3 Adds charged %v, want %v (driver polls only)", env.P.TotalCharged, want)
	}
	if c.SQPending() != 3 || c.MechanismStats().Enqueued != 3 {
		t.Fatalf("SQPending = %d, Enqueued = %d", c.SQPending(), c.MechanismStats().Enqueued)
	}
	for _, fd := range fds {
		if !c.Interested(fd) {
			t.Fatalf("fd %d not armed", fd)
		}
	}
}

// A full SQ forces one batched Enter: SyscallEntry + RingEnter once, plus
// RingSubmit per drained entry — the backpressure path.
func TestSQFullForcesBatchedFlush(t *testing.T) {
	env := simtest.NewEnv()
	c := open(env, Options{SQSize: 4})
	env.P.Batch(0, func() {
		for i := 0; i < 4; i++ {
			fd, _ := env.NewFD(0)
			must(t, c.Add(fd.Num, core.POLLIN))
		}
	}, nil)
	env.Run()
	cost := env.K.Cost
	want := cost.DriverPoll.Scale(4) +
		cost.SyscallEntry + cost.RingEnter + cost.RingSubmit.Scale(4)
	if env.P.TotalCharged != want {
		t.Fatalf("4 Adds with SQSize=4 charged %v, want %v", env.P.TotalCharged, want)
	}
	if c.SQPending() != 0 || c.SQFlushes() != 1 {
		t.Fatalf("SQPending = %d, SQFlushes = %d", c.SQPending(), c.SQFlushes())
	}
}

// The first Wait pass drains the pending SQ under one Enter and reaps the
// primed completion from the shared ring — no copy-out is ever charged.
func TestWaitDrainsSQAndReapsFromSharedRing(t *testing.T) {
	env := simtest.NewEnv()
	c := open(env, Options{SQSize: 16})
	fd, _ := env.NewFD(core.POLLIN)
	env.P.Batch(0, func() { must(t, c.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	before := env.P.TotalCharged
	var col simtest.Collector
	c.Wait(16, core.Second, col.Handler())
	env.Run()
	if col.Calls != 1 || len(col.Events) != 1 || col.Events[0].FD != fd.Num {
		t.Fatalf("collected %+v", col)
	}
	if col.Events[0].Gen != fd.Gen {
		t.Fatalf("event gen = %d, want %d", col.Events[0].Gen, fd.Gen)
	}
	cost := env.K.Cost
	want := cost.SyscallEntry + cost.RingEnter + cost.RingSubmit.Scale(1) +
		cost.RingCQReap.Scale(1)
	if got := env.P.TotalCharged - before; got != want {
		t.Fatalf("Wait charged %v, want %v", got, want)
	}
	if st := c.MechanismStats(); st.CopiedOut != 0 || st.EventsReturned != 1 {
		t.Fatalf("stats = %+v, want zero CopiedOut", st)
	}
}

// When completions are already visible in the CQ ring and nothing is pending
// submission, a Wait is pure user-space work: no syscall entry at all.
func TestReapWithoutSyscallWhenCQNonEmpty(t *testing.T) {
	env := simtest.NewEnv()
	c := open(env, Options{SQSize: 16})
	fd, f := env.NewFD(0)
	env.P.Batch(0, func() { must(t, c.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	// First Wait drains the SQ and blocks; readiness arrives at 2ms.
	var col1 simtest.Collector
	c.Wait(16, core.Second, col1.Handler())
	env.K.Sim.At(core.Time(2*core.Millisecond), func(now core.Time) {
		f.SetReady(now, core.POLLIN)
	})
	env.Run()
	if col1.Calls != 1 || len(col1.Events) != 1 {
		t.Fatalf("first wait collected %+v", col1)
	}
	if col1.At < core.Time(2*core.Millisecond) {
		t.Fatalf("delivered at %v, before readiness", col1.At)
	}
	// Readiness fires again while no one waits: the completion sits in the
	// shared ring, so the next Wait reaps it without entering the kernel.
	f.SetReady(env.K.Now(), core.POLLIN)
	if c.CQLen() != 1 {
		t.Fatalf("CQLen = %d", c.CQLen())
	}
	before := env.P.TotalCharged
	var col2 simtest.Collector
	c.Wait(16, core.Second, col2.Handler())
	env.Run()
	if col2.Calls != 1 || len(col2.Events) != 1 {
		t.Fatalf("second wait collected %+v", col2)
	}
	if got, want := env.P.TotalCharged-before, env.K.Cost.RingCQReap.Scale(1); got != want {
		t.Fatalf("syscall-free reap charged %v, want %v", got, want)
	}
}

// The interrupt-context doorbell is charged once per posting batch: only the
// completion that finds the CQ empty pays RingCQPost; the rest of the batch
// coalesces onto the pending doorbell.
func TestDoorbellChargedPerPostingBatch(t *testing.T) {
	env := simtest.NewEnv()
	c := open(env, Options{SQSize: 16})
	var files []*simtest.FakeFile
	env.P.Batch(0, func() {
		for i := 0; i < 3; i++ {
			fd, f := env.NewFD(0)
			must(t, c.Add(fd.Num, core.POLLIN))
			files = append(files, f)
		}
	}, nil)
	env.Run()
	busyBefore := env.K.CPU.Busy
	for _, f := range files {
		f.SetReady(env.K.Now(), core.POLLIN)
	}
	if c.Doorbells() != 1 {
		t.Fatalf("Doorbells = %d, want 1 for the whole batch", c.Doorbells())
	}
	if got, want := env.K.CPU.Busy-busyBefore, env.K.Cost.RingCQPost; got != want {
		t.Fatalf("posting batch charged %v interrupt time, want %v", got, want)
	}
	if c.CQLen() != 3 {
		t.Fatalf("CQLen = %d", c.CQLen())
	}
	// A second transition on an fd already in the ring coalesces for free.
	files[0].SetReady(env.K.Now(), core.POLLIN|core.POLLOUT)
	if c.Doorbells() != 1 || c.CQLen() != 3 {
		t.Fatalf("coalescing failed: doorbells=%d cqlen=%d", c.Doorbells(), c.CQLen())
	}
	// Reaping empties the ring; the next posting batch pays a new doorbell.
	var col simtest.Collector
	c.Wait(16, core.Second, col.Handler())
	env.Run()
	if len(col.Events) != 3 {
		t.Fatalf("reaped %d events", len(col.Events))
	}
	files[1].SetReady(env.K.Now(), core.POLLIN)
	if c.Doorbells() != 2 {
		t.Fatalf("Doorbells = %d, want 2 after ring drained", c.Doorbells())
	}
}

// CQ overflow drops completions, raises the overflow flag once, and never
// strands a blocked waiter; the next wait rescans the armed interest set with
// the drivers and repopulates the ring from ground truth.
func TestCQOverflowAndRecovery(t *testing.T) {
	env := simtest.NewEnv()
	c := open(env, Options{SQSize: 64, CQSize: 2})
	var files []*simtest.FakeFile
	var fds []int
	env.P.Batch(0, func() {
		for i := 0; i < 3; i++ {
			fd, f := env.NewFD(0)
			must(t, c.Add(fd.Num, core.POLLIN))
			files = append(files, f)
			fds = append(fds, fd.Num)
		}
	}, nil)
	env.Run()
	// Drain the SQ with a non-blocking wait, then let readiness arrive while
	// the server is busy elsewhere (no wait in flight): the third completion
	// finds the 2-slot ring full and is dropped.
	var col0 simtest.Collector
	c.Wait(16, 0, col0.Handler())
	env.Run()
	for _, f := range files {
		f.SetReady(env.K.Now(), core.POLLIN)
	}
	st := c.MechanismStats()
	if st.Overflows != 1 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want 1 overflow episode dropping 1 completion", st)
	}
	if !c.Overflowed() || c.CQLen() != 2 {
		t.Fatalf("overflowed=%v cqlen=%d", c.Overflowed(), c.CQLen())
	}
	// The next wait runs the recovery rescan, so all three completions —
	// including the dropped one — are delivered.
	var col1 simtest.Collector
	c.Wait(16, core.Second, col1.Handler())
	env.Run()
	if col1.Calls != 1 {
		t.Fatal("waiter stranded by overflow")
	}
	if len(col1.Events) != 3 {
		t.Fatalf("recovered %d events, want 3 (got %v)", len(col1.Events), col1.FDNums())
	}
	if c.Overflowed() {
		t.Fatal("overflow flag not cleared by recovery")
	}
	if c.Recoveries() != 1 {
		t.Fatalf("Recoveries = %d", c.Recoveries())
	}
	// Steady state after recovery: a fresh transition flows normally.
	files[2].SetReady(env.K.Now(), core.POLLIN)
	var col2 simtest.Collector
	c.Wait(16, core.Second, col2.Handler())
	env.Run()
	if len(col2.Events) != 1 || col2.Events[0].FD != fds[2] {
		t.Fatalf("post-recovery events = %v", col2.FDNums())
	}
}

// The recovery pass prices the rescan per armed descriptor (DriverPoll each)
// plus one Enter — the §6 "fall back to a scan" cost shape.
func TestRecoveryChargesInterestSetScan(t *testing.T) {
	env := simtest.NewEnv()
	c := open(env, Options{SQSize: 64, CQSize: 1})
	var files []*simtest.FakeFile
	env.P.Batch(0, func() {
		for i := 0; i < 4; i++ {
			fd, f := env.NewFD(0)
			must(t, c.Add(fd.Num, core.POLLIN))
			files = append(files, f)
		}
	}, nil)
	// Drain the SQ so recovery's Enter carries no submissions.
	var warm simtest.Collector
	c.Wait(16, 0, warm.Handler())
	env.Run()
	for _, f := range files {
		f.SetReady(env.K.Now(), core.POLLIN)
	}
	if !c.Overflowed() {
		t.Fatal("1-slot CQ did not overflow")
	}
	before := env.P.TotalCharged
	var col simtest.Collector
	c.Wait(16, core.Second, col.Handler())
	env.Run()
	if len(col.Events) != 4 {
		t.Fatalf("recovered %d events, want 4", len(col.Events))
	}
	cost := env.K.Cost
	want := cost.SyscallEntry + cost.RingEnter + cost.DriverPoll.Scale(4) +
		cost.RingCQReap.Scale(4)
	if got := env.P.TotalCharged - before; got != want {
		t.Fatalf("recovery charged %v, want %v", got, want)
	}
}

// Registered buffers arm on read interests and die with the interest: the
// descriptor flag is what netsim's socket reads consult for the copy skip.
func TestRegisteredBufferArming(t *testing.T) {
	env := simtest.NewEnv()
	c := open(env, Options{RegisteredBuffers: true})
	fd, _ := env.NewFD(0)
	wfd, _ := env.NewFD(0)
	env.P.Batch(0, func() {
		must(t, c.Add(fd.Num, core.POLLIN))
		must(t, c.Add(wfd.Num, core.POLLOUT))
	}, nil)
	env.Run()
	if !fd.BufferRegistered {
		t.Fatal("read interest did not arm a registered buffer")
	}
	if wfd.BufferRegistered {
		t.Fatal("write-only interest must not arm a registered buffer")
	}
	env.P.Batch(env.K.Now(), func() { must(t, c.Modify(fd.Num, core.POLLOUT)) }, nil)
	env.Run()
	if fd.BufferRegistered {
		t.Fatal("Modify away from reads must release the registered buffer")
	}
	env.P.Batch(env.K.Now(), func() { must(t, c.Modify(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	if !fd.BufferRegistered {
		t.Fatal("Modify back to reads must re-arm")
	}
	env.P.Batch(env.K.Now(), func() { must(t, c.Remove(fd.Num)) }, nil)
	env.Run()
	if fd.BufferRegistered {
		t.Fatal("Remove must release the registered buffer")
	}

	// Without the option nothing is armed.
	env2 := simtest.NewEnv()
	c2 := open(env2, Options{})
	fd2, _ := env2.NewFD(0)
	env2.P.Batch(0, func() { must(t, c2.Add(fd2.Num, core.POLLIN)) }, nil)
	env2.Run()
	if fd2.BufferRegistered {
		t.Fatal("registered buffer armed without the option")
	}
}

func TestCloseReleasesEverything(t *testing.T) {
	env := simtest.NewEnv()
	c := open(env, Options{RegisteredBuffers: true})
	fd, _ := env.NewFD(core.POLLIN)
	env.P.Batch(0, func() { must(t, c.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	must(t, c.Close())
	if fd.Watchers() != 0 {
		t.Fatalf("watchers = %d after close", fd.Watchers())
	}
	if fd.BufferRegistered {
		t.Fatal("registered buffer survived close")
	}
	if c.CQLen() != 0 || c.SQPending() != 0 {
		t.Fatal("rings not released")
	}
	if err := c.Close(); err != core.ErrClosed {
		t.Fatalf("double close: %v", err)
	}
	var col simtest.Collector
	c.Wait(16, core.Second, col.Handler())
	if col.Calls != 1 || len(col.Events) != 0 {
		t.Fatalf("Wait after close: %+v", col)
	}
}
