package simkernel

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// fakeFile is a minimal File implementation for descriptor-table tests.
type fakeFile struct {
	ready    core.EventMask
	notify   Notifier
	closed   bool
	closedAt core.Time
}

func (f *fakeFile) Poll() core.EventMask { return f.ready }
func (f *fakeFile) SetNotifier(n Notifier) {
	f.notify = n
}
func (f *fakeFile) Close(now core.Time) { f.closed = true; f.closedAt = now }

// setReady changes readiness and fires the notifier, like a driver would.
func (f *fakeFile) setReady(now core.Time, mask core.EventMask) {
	f.ready = mask
	if f.notify != nil {
		f.notify.Notify(now, mask)
	}
}

type recordingWatcher struct {
	events []core.EventMask
	fds    []int
	// removeSelf, when set, unregisters the watcher on first delivery to
	// exercise mutation during fan-out.
	removeSelf bool
}

func (w *recordingWatcher) ReadinessChanged(now core.Time, fd *FD, mask core.EventMask) {
	w.events = append(w.events, mask)
	w.fds = append(w.fds, fd.Num)
	if w.removeSelf {
		fd.RemoveWatcher(w)
	}
}

func TestCPUSerializesWork(t *testing.T) {
	sim := NewSimulator()
	cpu := NewCPU(sim)
	var done []core.Time
	cpu.Exec(0, 10*core.Microsecond, func(now core.Time) { done = append(done, now) })
	cpu.Exec(0, 5*core.Microsecond, func(now core.Time) { done = append(done, now) })
	sim.Run()
	if len(done) != 2 {
		t.Fatalf("done = %v", done)
	}
	if done[0] != core.Time(10*core.Microsecond) {
		t.Fatalf("first completion = %v", done[0])
	}
	if done[1] != core.Time(15*core.Microsecond) {
		t.Fatalf("second completion should queue behind first: %v", done[1])
	}
	if cpu.Busy != 15*core.Microsecond {
		t.Fatalf("Busy = %v", cpu.Busy)
	}
	if cpu.Jobs != 2 {
		t.Fatalf("Jobs = %d", cpu.Jobs)
	}
}

func TestCPUIdleGap(t *testing.T) {
	sim := NewSimulator()
	cpu := NewCPU(sim)
	cpu.Exec(0, 10*core.Microsecond, nil)
	// Work arriving after the CPU went idle starts immediately.
	finish := cpu.Exec(core.Time(100*core.Microsecond), 5*core.Microsecond, nil)
	if finish != core.Time(105*core.Microsecond) {
		t.Fatalf("finish = %v", finish)
	}
	if got := cpu.QueueDelay(core.Time(101 * core.Microsecond)); got != 4*core.Microsecond {
		t.Fatalf("QueueDelay = %v", got)
	}
	if got := cpu.QueueDelay(core.Time(200 * core.Microsecond)); got != 0 {
		t.Fatalf("QueueDelay idle = %v", got)
	}
}

func TestCPUNegativeCostTreatedAsZero(t *testing.T) {
	sim := NewSimulator()
	cpu := NewCPU(sim)
	finish := cpu.Exec(core.Time(5*core.Microsecond), -10, nil)
	if finish != core.Time(5*core.Microsecond) {
		t.Fatalf("finish = %v", finish)
	}
	if cpu.Busy != 0 {
		t.Fatalf("Busy = %v", cpu.Busy)
	}
}

func TestCPUUtilization(t *testing.T) {
	sim := NewSimulator()
	cpu := NewCPU(sim)
	cpu.Exec(0, 500*core.Millisecond, nil)
	if u := cpu.Utilization(core.Second); u != 0.5 {
		t.Fatalf("Utilization = %v", u)
	}
	if u := cpu.Utilization(0); u != 0 {
		t.Fatalf("Utilization(0) = %v", u)
	}
	// No clamping: a ratio above 1 against a window the work does not fit in
	// is reported as-is, so double-charged batches cannot hide behind "100%".
	if u := cpu.Utilization(100 * core.Millisecond); u != 5 {
		t.Fatalf("Utilization must not clamp, got %v", u)
	}
	// Against the work window the ratio is a true utilisation, <= 1 whenever
	// charging is correct.
	if u := cpu.Utilization(cpu.WorkWindow(0)); u != 1 {
		t.Fatalf("Utilization over WorkWindow = %v, want 1", u)
	}
}

// Property: completion times are nondecreasing and Busy equals the sum of all
// submitted costs, regardless of submission times.
func TestCPUAccountingProperty(t *testing.T) {
	f := func(costs []uint16, gaps []uint16) bool {
		sim := NewSimulator()
		cpu := NewCPU(sim)
		now := core.Time(0)
		var total core.Duration
		last := core.Time(-1)
		for i, c := range costs {
			if i < len(gaps) {
				now = now.Add(core.Duration(gaps[i]) * core.Microsecond)
			}
			cost := core.Duration(c) * core.Nanosecond
			total += cost
			fin := cpu.Exec(now, cost, nil)
			if fin < last {
				return false
			}
			last = fin
		}
		return cpu.Busy == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKernelDefaults(t *testing.T) {
	k := NewKernel(nil)
	if k.Cost == nil || k.Sim == nil || k.CPU == nil {
		t.Fatal("NewKernel(nil) left fields unset")
	}
	if k.Now() != 0 {
		t.Fatalf("Now = %v", k.Now())
	}
	// Interrupt charges the CPU.
	k.Interrupt(0, 5*core.Microsecond, nil)
	if k.CPU.Busy != 5*core.Microsecond {
		t.Fatalf("Interrupt did not charge CPU: %v", k.CPU.Busy)
	}
}

func TestDefaultCostModelSanity(t *testing.T) {
	c := DefaultCostModel()
	if c.SyscallEntry <= 0 || c.DriverPoll <= 0 || c.HTTPService <= 0 {
		t.Fatal("cost model has non-positive key costs")
	}
	// The hint check must be far cheaper than a driver poll, otherwise the
	// /dev/poll optimisation the paper measures would be meaningless.
	if c.HintCheck*5 > c.DriverPoll {
		t.Fatalf("HintCheck (%v) should be much cheaper than DriverPoll (%v)", c.HintCheck, c.DriverPoll)
	}
	// The per-event sigwaitinfo dequeue must cost at least one syscall entry;
	// that asymmetry with batched poll results drives Figure 11.
	if c.SigDequeue < c.SyscallEntry {
		t.Fatalf("SigDequeue (%v) should not be cheaper than a syscall entry (%v)", c.SigDequeue, c.SyscallEntry)
	}
	// Serving a request must dominate per-descriptor bookkeeping so the
	// unloaded server saturates near ~1000 req/s.
	if c.HTTPService < 100*core.Microsecond {
		t.Fatalf("HTTPService suspiciously small: %v", c.HTTPService)
	}
	if c.WriteCost(6*1024) <= 0 {
		t.Fatal("WriteCost(6KB) must be positive")
	}
	if c.WriteCost(0) != 0 || c.WriteCost(-1) != 0 {
		t.Fatal("WriteCost of non-positive sizes must be zero")
	}
	if c.WriteCost(2048) != 2*c.SockWritePerKB {
		t.Fatalf("WriteCost(2KB) = %v, want %v", c.WriteCost(2048), 2*c.SockWritePerKB)
	}
}

func TestCostModelClone(t *testing.T) {
	c := DefaultCostModel()
	d := c.Clone()
	d.DriverPoll = 42
	if c.DriverPoll == 42 {
		t.Fatal("Clone aliases the original")
	}
}

func TestProcInstallAndGet(t *testing.T) {
	k := NewKernel(nil)
	p := k.NewProc("test")
	f1, f2 := &fakeFile{}, &fakeFile{}
	fd1 := p.Install(f1)
	fd2 := p.Install(f2)
	if fd1.Num != 3 || fd2.Num != 4 {
		t.Fatalf("descriptor numbers: %d %d", fd1.Num, fd2.Num)
	}
	if p.NumFDs() != 2 {
		t.Fatalf("NumFDs = %d", p.NumFDs())
	}
	got, ok := p.Get(3)
	if !ok || got != fd1 {
		t.Fatal("Get(3) failed")
	}
	if _, ok := p.Get(99); ok {
		t.Fatal("Get(99) should fail")
	}
	fds := p.FDs()
	if len(fds) != 2 || fds[0] != 3 || fds[1] != 4 {
		t.Fatalf("FDs = %v", fds)
	}
}

func TestProcDescriptorReuseLowestFree(t *testing.T) {
	k := NewKernel(nil)
	p := k.NewProc("test")
	a := p.Install(&fakeFile{})
	b := p.Install(&fakeFile{})
	c := p.Install(&fakeFile{})
	_ = b
	if err := p.CloseFD(0, a.Num); err != nil {
		t.Fatal(err)
	}
	// POSIX requires the lowest unused number: the very next install must
	// recycle a's slot — the behaviour the stale-readiness generation
	// machinery exists to make safe — and carry a fresh generation.
	d := p.Install(&fakeFile{})
	if d.Num != a.Num {
		t.Fatalf("Install allocated %d, want recycled lowest free %d", d.Num, a.Num)
	}
	if d.Gen == a.Gen || d.Gen == 0 {
		t.Fatalf("recycled descriptor generation %d not distinct from %d", d.Gen, a.Gen)
	}
	e := p.Install(&fakeFile{})
	if e.Num != c.Num+1 {
		t.Fatalf("next install allocated %d, want %d", e.Num, c.Num+1)
	}
}

func TestProcCloseFD(t *testing.T) {
	k := NewKernel(nil)
	p := k.NewProc("test")
	f := &fakeFile{}
	fd := p.Install(f)
	if err := p.CloseFD(core.Time(7*core.Second), fd.Num); err != nil {
		t.Fatal(err)
	}
	if !f.closed || f.closedAt != core.Time(7*core.Second) {
		t.Fatal("underlying file not closed at the right time")
	}
	if !fd.Closed() {
		t.Fatal("FD not marked closed")
	}
	if fd.Poll() != core.POLLNVAL {
		t.Fatalf("Poll on closed fd = %v", fd.Poll())
	}
	if err := p.CloseFD(0, fd.Num); err != core.ErrBadFD {
		t.Fatalf("double close: %v", err)
	}
	if p.NumFDs() != 0 {
		t.Fatalf("NumFDs = %d", p.NumFDs())
	}
}

func TestFDWatchersFanOutAndRemoval(t *testing.T) {
	k := NewKernel(nil)
	p := k.NewProc("test")
	f := &fakeFile{}
	fd := p.Install(f)

	w1 := &recordingWatcher{}
	w2 := &recordingWatcher{removeSelf: true}
	fd.AddWatcher(w1)
	fd.AddWatcher(w1) // duplicate registration is a no-op
	fd.AddWatcher(w2)
	if fd.Watchers() != 2 {
		t.Fatalf("Watchers = %d", fd.Watchers())
	}

	f.setReady(core.Time(core.Millisecond), core.POLLIN)
	if len(w1.events) != 1 || w1.events[0] != core.POLLIN || w1.fds[0] != fd.Num {
		t.Fatalf("w1 events = %v fds = %v", w1.events, w1.fds)
	}
	if len(w2.events) != 1 {
		t.Fatalf("w2 events = %v", w2.events)
	}
	// w2 removed itself during delivery.
	if fd.Watchers() != 1 {
		t.Fatalf("Watchers after self-removal = %d", fd.Watchers())
	}
	f.setReady(core.Time(2*core.Millisecond), core.POLLIN|core.POLLOUT)
	if len(w1.events) != 2 || len(w2.events) != 1 {
		t.Fatalf("second notify: w1=%d w2=%d", len(w1.events), len(w2.events))
	}

	fd.RemoveWatcher(w1)
	if fd.Watchers() != 0 {
		t.Fatalf("Watchers after removal = %d", fd.Watchers())
	}
	// Removing an unregistered watcher is a no-op.
	fd.RemoveWatcher(w1)
}

func TestClosedFDDoesNotNotify(t *testing.T) {
	k := NewKernel(nil)
	p := k.NewProc("test")
	f := &fakeFile{}
	fd := p.Install(f)
	w := &recordingWatcher{}
	fd.AddWatcher(w)
	if err := p.CloseFD(0, fd.Num); err != nil {
		t.Fatal(err)
	}
	// The notifier was detached by CloseFD; even a direct notify on the FD is
	// suppressed for a closed descriptor.
	fd.Notify(0, core.POLLIN)
	if len(w.events) != 0 {
		t.Fatalf("closed fd delivered events: %v", w.events)
	}
}

func TestProcBatchChargesCPUAndRunsDeferred(t *testing.T) {
	k := NewKernel(nil)
	p := k.NewProc("server")
	var deferredAt, doneAt core.Time
	p.Batch(0, func() {
		p.Charge(100 * core.Microsecond)
		p.ChargeSyscall(0)
		p.Defer(func(now core.Time) { deferredAt = now })
	}, func(now core.Time) { doneAt = now })
	k.Sim.Run()

	want := core.Time(100*core.Microsecond + k.Cost.SyscallEntry)
	if doneAt != want {
		t.Fatalf("doneAt = %v, want %v", doneAt, want)
	}
	if deferredAt != want {
		t.Fatalf("deferredAt = %v, want %v", deferredAt, want)
	}
	if p.TotalCharged != 100*core.Microsecond+k.Cost.SyscallEntry {
		t.Fatalf("TotalCharged = %v", p.TotalCharged)
	}
	if p.InBatch() {
		t.Fatal("InBatch should be false after completion")
	}
}

func TestProcBatchesQueueOnCPU(t *testing.T) {
	k := NewKernel(nil)
	p := k.NewProc("server")
	q := k.NewProc("other")
	var first, second core.Time
	p.Batch(0, func() { p.Charge(50 * core.Microsecond) }, func(now core.Time) { first = now })
	q.Batch(0, func() { q.Charge(30 * core.Microsecond) }, func(now core.Time) { second = now })
	k.Sim.Run()
	if first != core.Time(50*core.Microsecond) {
		t.Fatalf("first = %v", first)
	}
	if second != core.Time(80*core.Microsecond) {
		t.Fatalf("second should queue behind first on the uniprocessor: %v", second)
	}
}

func TestProcNestedBatchPanics(t *testing.T) {
	k := NewKernel(nil)
	p := k.NewProc("server")
	defer func() {
		if recover() == nil {
			t.Error("nested Batch should panic")
		}
	}()
	p.Batch(0, func() {
		p.Batch(0, func() {}, nil)
	}, nil)
}

func TestProcDeferOutsideBatchRunsImmediately(t *testing.T) {
	k := NewKernel(nil)
	p := k.NewProc("server")
	ran := false
	p.Defer(func(core.Time) { ran = true })
	if !ran {
		t.Fatal("Defer outside a batch should run immediately")
	}
}

func TestProcChargeNegativeClamped(t *testing.T) {
	k := NewKernel(nil)
	p := k.NewProc("server")
	p.Charge(-5)
	if p.TotalCharged != 0 {
		t.Fatalf("TotalCharged = %v", p.TotalCharged)
	}
}

func TestDriverPollChargesCost(t *testing.T) {
	k := NewKernel(nil)
	p := k.NewProc("server")
	f := &fakeFile{ready: core.POLLIN}
	fd := p.Install(f)
	var got core.EventMask
	p.Batch(0, func() { got = fd.DriverPoll() }, nil)
	k.Sim.Run()
	if got != core.POLLIN {
		t.Fatalf("DriverPoll = %v", got)
	}
	if p.TotalCharged != k.Cost.DriverPoll {
		t.Fatalf("TotalCharged = %v, want %v", p.TotalCharged, k.Cost.DriverPoll)
	}
}
