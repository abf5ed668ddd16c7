package devpoll

import (
	"testing"

	"repro/internal/core"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

func open(env *simtest.Env, opts Options) *DevPoll { return Open(env.K, env.P, opts) }

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if !o.UseHints || !o.UseMmap {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

func TestInterestManagementChargesKernelCosts(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	if d.Name() != "devpoll" {
		t.Fatalf("Name = %q", d.Name())
	}
	fd, _ := env.NewFD(0)
	env.P.Batch(0, func() {
		must(t, d.Add(fd.Num, core.POLLIN))
	}, nil)
	env.Run()
	want := env.K.Cost.SyscallEntry + env.K.Cost.InterestUpdate
	if env.P.TotalCharged != want {
		t.Fatalf("Add charged %v, want %v", env.P.TotalCharged, want)
	}
	if !d.Interested(fd.Num) || d.Len() != 1 {
		t.Fatal("interest not registered")
	}
	if err := d.Add(fd.Num, core.POLLIN); err != core.ErrExists {
		t.Fatalf("duplicate Add: %v", err)
	}
	if err := d.Modify(99, core.POLLIN); err != core.ErrNotFound {
		t.Fatalf("Modify missing: %v", err)
	}
	if err := d.Remove(99); err != core.ErrNotFound {
		t.Fatalf("Remove missing: %v", err)
	}
	// The backmap watcher is installed on the descriptor.
	if fd.Watchers() != 1 {
		t.Fatalf("backmap watchers = %d", fd.Watchers())
	}
	env.P.Batch(env.K.Now(), func() {
		must(t, d.Remove(fd.Num))
	}, nil)
	env.Run()
	if fd.Watchers() != 0 {
		t.Fatal("backmap watcher leaked after Remove")
	}
	if d.Interested(fd.Num) {
		t.Fatal("interest survived Remove")
	}
}

func TestPollRemoveFlagDeletesInterest(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	fd, _ := env.NewFD(0)
	env.P.Batch(0, func() {
		must(t, d.Update([]core.PollFD{{FD: fd.Num, Events: core.POLLIN}}))
		must(t, d.Update([]core.PollFD{{FD: fd.Num, Events: core.POLLREMOVE}}))
	}, nil)
	env.Run()
	if d.Len() != 0 {
		t.Fatalf("Len = %d", d.Len())
	}
	// Removing an unknown fd via POLLREMOVE is a silent no-op, like the device.
	env.P.Batch(env.K.Now(), func() {
		must(t, d.Update([]core.PollFD{{FD: 12345, Events: core.POLLREMOVE}}))
	}, nil)
	env.Run()
}

func TestModifyReplacesInterest(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	fd, _ := env.NewFD(0)
	env.P.Batch(0, func() {
		must(t, d.Add(fd.Num, core.POLLIN))
		must(t, d.Modify(fd.Num, core.POLLOUT))
	}, nil)
	env.Run()
	if e := d.Table.Lookup(fd.Num); e == nil || e.Events != core.POLLOUT {
		t.Fatalf("replace semantics: got %+v", e)
	}
}

func TestWaitReturnsOnlyReadyDescriptors(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	ready, _ := env.NewFD(core.POLLIN)
	idle, _ := env.NewFD(0)
	env.P.Batch(0, func() {
		must(t, d.Add(ready.Num, core.POLLIN))
		must(t, d.Add(idle.Num, core.POLLIN))
	}, nil)
	env.Run()

	var col simtest.Collector
	d.Wait(0, core.Forever, col.Handler())
	env.Run()
	if col.Calls != 1 || len(col.Events) != 1 || col.Events[0].FD != ready.Num {
		t.Fatalf("collector = %+v", col)
	}
	st := d.MechanismStats()
	if st.EventsReturned != 1 || st.Waits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHintsSkipDriverPollsForIdleDescriptors(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	var idleFiles []*simtest.FakeFile
	const idle = 50
	env.P.Batch(0, func() {
		for i := 0; i < idle; i++ {
			fd, f := env.NewFD(0)
			must(t, d.Add(fd.Num, core.POLLIN))
			idleFiles = append(idleFiles, f)
		}
	}, nil)
	env.Run()

	// First DP_POLL primes every descriptor (all were marked hinted on Add).
	var col simtest.Collector
	d.Wait(0, 0, col.Handler())
	env.Run()
	first := d.MechanismStats()
	if first.DriverPolls != idle {
		t.Fatalf("first scan driver polls = %d, want %d", first.DriverPolls, idle)
	}

	// Second DP_POLL: nothing changed, so hints let every driver poll be
	// skipped.
	var col2 simtest.Collector
	d.Wait(0, 0, col2.Handler())
	env.Run()
	second := d.MechanismStats()
	if got := second.DriverPolls - first.DriverPolls; got != 0 {
		t.Fatalf("second scan performed %d driver polls, want 0", got)
	}
	if second.HintHits-first.HintHits != idle {
		t.Fatalf("hint hits = %d, want %d", second.HintHits-first.HintHits, idle)
	}
	for _, f := range idleFiles {
		if f.Polls > 1 {
			t.Fatalf("idle descriptor driver-polled %d times", f.Polls)
		}
	}
}

func TestHintTriggersDriverPollOnlyForChangedDescriptor(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	var files []*simtest.FakeFile
	var fds []int
	env.P.Batch(0, func() {
		for i := 0; i < 20; i++ {
			fd, f := env.NewFD(0)
			must(t, d.Add(fd.Num, core.POLLIN))
			files = append(files, f)
			fds = append(fds, fd.Num)
		}
	}, nil)
	env.Run()
	// Prime.
	d.Wait(0, 0, func([]core.Event, core.Time) {})
	env.Run()
	before := d.MechanismStats().DriverPolls

	// One driver posts a hint.
	files[5].SetReady(env.K.Now(), core.POLLIN)
	var col simtest.Collector
	d.Wait(0, 0, col.Handler())
	env.Run()
	after := d.MechanismStats().DriverPolls
	if after-before != 1 {
		t.Fatalf("driver polls for one hint = %d, want 1", after-before)
	}
	if len(col.Events) != 1 || col.Events[0].FD != fds[5] {
		t.Fatalf("events = %+v", col.Events)
	}
}

func TestCachedReadyResultIsRevalidated(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	fd, file := env.NewFD(core.POLLIN)
	env.P.Batch(0, func() { must(t, d.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()

	// First scan sees it ready.
	d.Wait(0, 0, func([]core.Event, core.Time) {})
	env.Run()
	polls := file.Polls

	// The socket was drained meanwhile without a hint (there is no
	// ready→not-ready hint). The cached "ready" result must be re-validated by
	// calling the driver again, and no event is reported.
	file.ReadyMask = 0
	var col simtest.Collector
	d.Wait(0, 0, col.Handler())
	env.Run()
	if file.Polls != polls+1 {
		t.Fatalf("driver polls = %d, want %d", file.Polls, polls+1)
	}
	if len(col.Events) != 0 {
		t.Fatalf("stale event reported: %+v", col.Events)
	}
	if d.MechanismStats().CacheHits == 0 {
		t.Fatal("cache revalidation not counted")
	}
}

func TestNoHintsOptionDriverPollsEverything(t *testing.T) {
	env := simtest.NewEnv()
	opts := DefaultOptions()
	opts.UseHints = false
	d := open(env, opts)
	env.P.Batch(0, func() {
		for i := 0; i < 10; i++ {
			fd, _ := env.NewFD(0)
			must(t, d.Add(fd.Num, core.POLLIN))
		}
	}, nil)
	env.Run()
	d.Wait(0, 0, func([]core.Event, core.Time) {})
	env.Run()
	d.Wait(0, 0, func([]core.Event, core.Time) {})
	env.Run()
	st := d.MechanismStats()
	if st.DriverPolls != 20 {
		t.Fatalf("driver polls = %d, want 20 (no hinting)", st.DriverPolls)
	}
	if st.HintHits != 0 {
		t.Fatalf("hint hits = %d, want 0", st.HintHits)
	}
}

func TestMmapResultAreaEliminatesCopyOut(t *testing.T) {
	run := func(useMmap bool) (core.Stats, core.Duration) {
		env := simtest.NewEnv()
		opts := DefaultOptions()
		opts.UseMmap = useMmap
		d := open(env, opts)
		env.P.Batch(0, func() {
			for i := 0; i < 8; i++ {
				fd, _ := env.NewFD(core.POLLIN)
				must(t, d.Add(fd.Num, core.POLLIN))
			}
		}, nil)
		env.Run()
		before := env.P.TotalCharged
		d.Wait(0, core.Forever, func([]core.Event, core.Time) {})
		env.Run()
		return d.MechanismStats(), env.P.TotalCharged - before
	}
	withMmap, _ := run(true)
	without, _ := run(false)
	if withMmap.CopiedOut != 0 {
		t.Fatalf("mmap run copied out %d results", withMmap.CopiedOut)
	}
	if without.CopiedOut != 8 {
		t.Fatalf("copy run copied out %d results, want 8", without.CopiedOut)
	}
}

func TestMmapSetupChargedOnce(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	fd, _ := env.NewFD(core.POLLIN)
	env.P.Batch(0, func() { must(t, d.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	d.Wait(0, 0, func([]core.Event, core.Time) {})
	env.Run()
	afterFirst := env.P.TotalCharged
	d.Wait(0, 0, func([]core.Event, core.Time) {})
	env.Run()
	secondCost := env.P.TotalCharged - afterFirst
	if secondCost >= afterFirst {
		t.Fatalf("second wait (%v) should be cheaper than first (%v) which paid DP_ALLOC/mmap", secondCost, afterFirst)
	}
}

func TestWaitBlocksUntilHintArrives(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	fd, file := env.NewFD(0)
	env.P.Batch(0, func() { must(t, d.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()

	var col simtest.Collector
	d.Wait(0, core.Forever, col.Handler())
	env.K.Sim.At(core.Time(3*core.Millisecond), func(now core.Time) {
		file.SetReady(now, core.POLLIN)
	})
	env.Run()
	if col.Calls != 1 || len(col.Events) != 1 || col.Events[0].FD != fd.Num {
		t.Fatalf("collector = %+v", col)
	}
	if col.At < core.Time(3*core.Millisecond) {
		t.Fatalf("woke too early: %v", col.At)
	}
}

func TestWaitTimeout(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	fd, _ := env.NewFD(0)
	env.P.Batch(0, func() { must(t, d.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	var col simtest.Collector
	d.Wait(0, 20*core.Millisecond, col.Handler())
	env.Run()
	if col.Calls != 1 || len(col.Events) != 0 {
		t.Fatalf("collector = %+v", col)
	}
	if col.At < core.Time(20*core.Millisecond) {
		t.Fatalf("timeout fired early at %v", col.At)
	}
}

func TestResultAreaCapsEvents(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	env.P.Batch(0, func() {
		for i := 0; i < ResultAreaSize+3; i++ {
			fd, _ := env.NewFD(core.POLLIN)
			must(t, d.Add(fd.Num, core.POLLIN))
		}
	}, nil)
	env.Run()
	var col simtest.Collector
	d.Wait(2*ResultAreaSize, core.Forever, col.Handler())
	env.Run()
	if len(col.Events) != ResultAreaSize {
		t.Fatalf("events = %d, want the result-area cap of %d", len(col.Events), ResultAreaSize)
	}
}

func TestClosedDescriptorReportsPOLLNVAL(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	fd, _ := env.NewFD(0)
	env.P.Batch(0, func() { must(t, d.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	if err := env.P.CloseFD(0, fd.Num); err != nil {
		t.Fatal(err)
	}
	var col simtest.Collector
	d.Wait(0, core.Forever, col.Handler())
	env.Run()
	if len(col.Events) != 1 || !col.Events[0].Ready.Has(core.POLLNVAL) {
		t.Fatalf("events = %+v", col.Events)
	}
}

func TestCloseReleasesBackmapsAndRejectsFurtherUse(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	fd, _ := env.NewFD(0)
	env.P.Batch(0, func() { must(t, d.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if fd.Watchers() != 0 {
		t.Fatal("backmap watcher leaked after Close")
	}
	if err := d.Add(fd.Num, core.POLLIN); err != core.ErrClosed {
		t.Fatalf("Add after Close: %v", err)
	}
	if err := d.Close(); err != core.ErrClosed {
		t.Fatalf("double Close: %v", err)
	}
	var col simtest.Collector
	d.Wait(0, core.Forever, col.Handler())
	if col.Calls != 1 || col.Events != nil {
		t.Fatalf("Wait after Close: %+v", col)
	}
}

func TestNewlyAddedReadyDescriptorIsReportedWithoutAHint(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	// The descriptor is already readable before interest is registered; no
	// driver hint will ever be posted for the existing data.
	fd, _ := env.NewFD(core.POLLIN)
	env.P.Batch(0, func() { must(t, d.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	var col simtest.Collector
	d.Wait(0, core.Forever, col.Handler())
	env.Run()
	if len(col.Events) != 1 || col.Events[0].FD != fd.Num {
		t.Fatalf("pre-existing readiness lost: %+v", col.Events)
	}
}

// Property (DESIGN.md §6): a readiness transition is never silently lost —
// after any sequence of hints and scans, a descriptor whose driver reports
// readiness is returned by the next DP_POLL.
func TestNoLostWakeupProperty(t *testing.T) {
	env := simtest.NewEnv()
	d := open(env, DefaultOptions())
	const n = 30
	files := make([]*simtest.FakeFile, n)
	fds := make([]int, n)
	env.P.Batch(0, func() {
		for i := 0; i < n; i++ {
			fd, f := env.NewFD(0)
			must(t, d.Add(fd.Num, core.POLLIN))
			files[i], fds[i] = f, fd.Num
		}
	}, nil)
	env.Run()
	d.Wait(0, 0, func([]core.Event, core.Time) {}) // prime
	env.Run()

	for round := 0; round < 20; round++ {
		idx := (round * 7) % n
		files[idx].SetReady(env.K.Now(), core.POLLIN)
		var col simtest.Collector
		d.Wait(0, core.Forever, col.Handler())
		env.Run()
		found := false
		for _, e := range col.Events {
			if e.FD == fds[idx] {
				found = true
			}
		}
		if !found {
			t.Fatalf("round %d: readiness on fd %d lost (events %+v)", round, fds[idx], col.Events)
		}
		// Drain it again for the next round.
		files[idx].ReadyMask = 0
		d.Wait(0, 0, func([]core.Event, core.Time) {})
		env.Run()
	}
}

// The central claim of §3: with a large idle interest set, the per-wait cost
// of /dev/poll stays far below stock poll's, because idle descriptors cost a
// hint check rather than a driver poll and no copy-in happens at all.
func TestWaitCostNearlyFlatWithIdleDescriptors(t *testing.T) {
	waitCost := func(idle int) core.Duration {
		env := simtest.NewEnv()
		d := open(env, DefaultOptions())
		env.P.Batch(0, func() {
			active, _ := env.NewFD(core.POLLIN)
			must(t, d.Add(active.Num, core.POLLIN))
			for i := 0; i < idle; i++ {
				fd, _ := env.NewFD(0)
				must(t, d.Add(fd.Num, core.POLLIN))
			}
		}, nil)
		env.Run()
		d.Wait(0, 0, func([]core.Event, core.Time) {}) // prime hints + mmap
		env.Run()
		before := env.P.TotalCharged
		d.Wait(0, 0, func([]core.Event, core.Time) {})
		env.Run()
		return env.P.TotalCharged - before
	}
	small := waitCost(10)
	large := waitCost(510)
	// The marginal cost of an idle descriptor must be the cheap hint check, not
	// the expensive driver poll + copy-in that stock poll would pay. Allow a
	// generous factor of two of slack over the pure hint-check cost.
	cost := simkernel.DefaultCostModel()
	marginal := large - small
	budget := (cost.HintCheck * 2).Scale(500)
	stockEquivalent := (cost.DriverPoll + cost.PollCopyIn).Scale(500)
	if marginal > budget {
		t.Fatalf("devpoll marginal cost per idle descriptor too high: %v for 500 fds (budget %v)", marginal, budget)
	}
	if marginal*5 > stockEquivalent {
		t.Fatalf("devpoll idle cost (%v) should be far below the stock poll equivalent (%v)", marginal, stockEquivalent)
	}
}
