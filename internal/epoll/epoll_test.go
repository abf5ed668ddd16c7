package epoll

import (
	"slices"
	"testing"

	"repro/internal/compio"
	"repro/internal/core"
	"repro/internal/simtest"
)

func open(env *simtest.Env, opts Options) *Epoll { return Open(env.K, env.P, opts) }

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestNamesAndDefaults(t *testing.T) {
	env := simtest.NewEnv()
	lt := open(env, DefaultOptions())
	if lt.Name() != "epoll" {
		t.Fatalf("LT Name = %q", lt.Name())
	}
	et := open(env, Options{EdgeTriggered: true})
	if et.Name() != "epoll-et" {
		t.Fatalf("ET Name = %q", et.Name())
	}
	if DefaultOptions().EdgeTriggered {
		t.Fatal("default must be level-triggered")
	}
}

func TestCtlChargesKernelResidentUpdate(t *testing.T) {
	env := simtest.NewEnv()
	ep := open(env, DefaultOptions())
	fd, _ := env.NewFD(0)
	env.P.Batch(0, func() {
		must(t, ep.Add(fd.Num, core.POLLIN))
	}, nil)
	env.Run()
	// One epoll_ctl syscall: entry + interest update + the registration-time
	// driver readiness check.
	want := env.K.Cost.SyscallEntry + env.K.Cost.InterestUpdate + env.K.Cost.DriverPoll
	if env.P.TotalCharged != want {
		t.Fatalf("Add charged %v, want %v", env.P.TotalCharged, want)
	}
	if !ep.Interested(fd.Num) || ep.Len() != 1 {
		t.Fatal("interest not registered")
	}
	if fd.Watchers() != 1 {
		t.Fatalf("watchers = %d", fd.Watchers())
	}
	if err := ep.Add(fd.Num, core.POLLIN); err != core.ErrExists {
		t.Fatalf("duplicate Add: %v", err)
	}
	if err := ep.Add(999, core.POLLIN); err != core.ErrBadFD {
		t.Fatalf("Add of unknown fd: %v", err)
	}
	if err := ep.Modify(999, core.POLLIN); err != core.ErrNotFound {
		t.Fatalf("Modify missing: %v", err)
	}
	if err := ep.Remove(999); err != core.ErrNotFound {
		t.Fatalf("Remove missing: %v", err)
	}
	env.P.Batch(env.K.Now(), func() { must(t, ep.Remove(fd.Num)) }, nil)
	env.Run()
	if fd.Watchers() != 0 || ep.Interested(fd.Num) {
		t.Fatal("Remove did not unregister")
	}
}

func TestWaitScansOnlyTheReadyList(t *testing.T) {
	env := simtest.NewEnv()
	ep := open(env, DefaultOptions())
	const idle = 100
	env.P.Batch(0, func() {
		for i := 0; i < idle; i++ {
			fd, _ := env.NewFD(0)
			must(t, ep.Add(fd.Num, core.POLLIN))
		}
	}, nil)
	env.Run()
	polls := ep.MechanismStats().DriverPolls // registration-time checks

	active, file := env.NewFD(0)
	env.P.Batch(env.K.Now(), func() { must(t, ep.Add(active.Num, core.POLLIN)) }, nil)
	env.Run()
	file.SetReady(env.K.Now(), core.POLLIN)
	env.Run()

	var col simtest.Collector
	ep.Wait(0, core.Forever, col.Handler())
	env.Run()
	if col.Calls != 1 || len(col.Events) != 1 || col.Events[0].FD != active.Num {
		t.Fatalf("collector = %+v", col)
	}
	// The wait re-validated exactly the one ready descriptor (plus the one
	// registration check for the active fd): the 100 idle descriptors were
	// never touched.
	waitPolls := ep.MechanismStats().DriverPolls - polls - 1
	if waitPolls != 1 {
		t.Fatalf("driver polls during wait = %d, want 1 (O(ready), not O(registered))", waitPolls)
	}
	st := ep.MechanismStats()
	if st.Waits != 1 || st.EventsReturned != 1 || st.CopiedOut != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLevelTriggeredRedeliversUntilDrained(t *testing.T) {
	env := simtest.NewEnv()
	ep := open(env, DefaultOptions())
	fd, file := env.NewFD(core.POLLIN)
	env.P.Batch(0, func() { must(t, ep.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()

	for round := 0; round < 3; round++ {
		var col simtest.Collector
		ep.Wait(0, 0, col.Handler())
		env.Run()
		if len(col.Events) != 1 || col.Events[0].FD != fd.Num {
			t.Fatalf("round %d: events = %+v (LT must redeliver)", round, col.Events)
		}
	}

	// Drained: the stale ready-list entry is re-validated and dropped.
	file.ReadyMask = 0
	var col simtest.Collector
	ep.Wait(0, 0, col.Handler())
	env.Run()
	if len(col.Events) != 0 {
		t.Fatalf("events after drain = %+v", col.Events)
	}
	if ep.ready.Len() != 0 {
		t.Fatalf("ready list not cleaned: %d", ep.ready.Len())
	}
}

func TestEdgeTriggeredDeliversTransitionsOnce(t *testing.T) {
	env := simtest.NewEnv()
	ep := open(env, Options{EdgeTriggered: true})
	fd, file := env.NewFD(0)
	env.P.Batch(0, func() { must(t, ep.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()

	file.SetReady(env.K.Now(), core.POLLIN)
	env.Run()
	var col simtest.Collector
	ep.Wait(0, 0, col.Handler())
	env.Run()
	if len(col.Events) != 1 || col.Events[0].FD != fd.Num {
		t.Fatalf("events = %+v", col.Events)
	}

	// No new transition: the data is still there but ET stays silent.
	var col2 simtest.Collector
	ep.Wait(0, 0, col2.Handler())
	env.Run()
	if len(col2.Events) != 0 {
		t.Fatalf("ET redelivered without a transition: %+v", col2.Events)
	}

	// A fresh transition queues it again.
	file.SetReady(env.K.Now(), core.POLLIN)
	env.Run()
	var col3 simtest.Collector
	ep.Wait(0, 0, col3.Handler())
	env.Run()
	if len(col3.Events) != 1 {
		t.Fatalf("ET lost a new transition: %+v", col3.Events)
	}
	// ET never re-validates with the driver during the wait itself.
	if polls := ep.MechanismStats().DriverPolls; polls != 1 {
		t.Fatalf("driver polls = %d, want only the registration check", polls)
	}
}

func TestPreexistingReadinessReportedAtAdd(t *testing.T) {
	// Data that arrived before epoll_ctl(ADD) must not be lost — the
	// registration-time readiness check covers it in both modes.
	for _, et := range []bool{false, true} {
		env := simtest.NewEnv()
		ep := open(env, Options{EdgeTriggered: et})
		fd, _ := env.NewFD(core.POLLIN)
		env.P.Batch(0, func() { must(t, ep.Add(fd.Num, core.POLLIN)) }, nil)
		env.Run()
		var col simtest.Collector
		ep.Wait(0, core.Forever, col.Handler())
		env.Run()
		if len(col.Events) != 1 || col.Events[0].FD != fd.Num {
			t.Fatalf("et=%v: pre-existing readiness lost: %+v", et, col.Events)
		}
	}
}

func TestWaitBlocksUntilReadiness(t *testing.T) {
	env := simtest.NewEnv()
	ep := open(env, DefaultOptions())
	fd, file := env.NewFD(0)
	env.P.Batch(0, func() { must(t, ep.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()

	var col simtest.Collector
	ep.Wait(0, core.Forever, col.Handler())
	env.K.Sim.At(core.Time(4*core.Millisecond), func(now core.Time) {
		file.SetReady(now, core.POLLIN)
	})
	env.Run()
	if col.Calls != 1 || len(col.Events) != 1 || col.Events[0].FD != fd.Num {
		t.Fatalf("collector = %+v", col)
	}
	if col.At < core.Time(4*core.Millisecond) {
		t.Fatalf("woke too early: %v", col.At)
	}
}

// A wait returns at most max events and leaves the rest queued, untouched, in
// arrival order. Level-triggered entries stay queued after delivery, so the
// next wait re-validates all of them; the edge-style mechanisms (epoll-ET and
// compio) hand a backlog of three times max out over three waits.
func TestMaxEventsCapsDeliveryAndKeepsRemainder(t *testing.T) {
	t.Run("epoll", func(t *testing.T) {
		env := simtest.NewEnv()
		ep := open(env, DefaultOptions())
		env.P.Batch(0, func() {
			for i := 0; i < 10; i++ {
				fd, _ := env.NewFD(core.POLLIN)
				must(t, ep.Add(fd.Num, core.POLLIN))
			}
		}, nil)
		env.Run()
		var col simtest.Collector
		ep.Wait(4, core.Forever, col.Handler())
		env.Run()
		if len(col.Events) != 4 {
			t.Fatalf("events = %d, want 4", len(col.Events))
		}
		// The remaining six are still queued and arrive on the next wait.
		var col2 simtest.Collector
		ep.Wait(0, 0, col2.Handler())
		env.Run()
		if len(col2.Events) != 10 {
			t.Fatalf("second wait events = %d, want all 10 still ready (LT)", len(col2.Events))
		}
		// Ten registration-time checks, four re-validations by the capped
		// wait and ten by the second: the capped wait polls nothing past max.
		if got := ep.MechanismStats().DriverPolls; got != 24 {
			t.Fatalf("DriverPolls = %d, want 24", got)
		}
	})
	for _, tc := range []struct {
		name string
		open func(*simtest.Env) core.Poller
	}{
		{"epoll-et", func(env *simtest.Env) core.Poller { return open(env, Options{EdgeTriggered: true}) }},
		{"compio", func(env *simtest.Env) core.Poller { return compio.Open(env.K, env.P, compio.DefaultOptions()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const max = 4
			env := simtest.NewEnv()
			pl := tc.open(env)
			var files []*simtest.FakeFile
			var fds []int
			env.P.Batch(0, func() {
				for i := 0; i < 3*max; i++ {
					fd, file := env.NewFD(0)
					must(t, pl.Add(fd.Num, core.POLLIN))
					files, fds = append(files, file), append(fds, fd.Num)
				}
			}, nil)
			env.Run()
			// Readiness arrives in reverse descriptor order, so arrival
			// order and descriptor order differ.
			var want []int
			for i := len(files) - 1; i >= 0; i-- {
				files[i].SetReady(env.K.Now(), core.POLLIN)
				want = append(want, fds[i])
			}
			env.Run()
			for w := 0; w < 3; w++ {
				var col simtest.Collector
				pl.Wait(max, 0, col.Handler())
				env.Run()
				if got, exp := col.FDNums(), want[w*max:(w+1)*max]; !slices.Equal(got, exp) {
					t.Fatalf("wait %d returned %v, want %v", w, got, exp)
				}
			}
			var col simtest.Collector
			pl.Wait(max, 0, col.Handler())
			env.Run()
			if len(col.Events) != 0 {
				t.Fatalf("fourth wait returned %v, want nothing", col.FDNums())
			}
		})
	}
}

func TestClosedDescriptorReportsPOLLNVALOnce(t *testing.T) {
	env := simtest.NewEnv()
	ep := open(env, DefaultOptions())
	fd, file := env.NewFD(0)
	env.P.Batch(0, func() { must(t, ep.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()
	file.SetReady(env.K.Now(), core.POLLIN)
	env.Run()
	if err := env.P.CloseFD(env.K.Now(), fd.Num); err != nil {
		t.Fatal(err)
	}
	var col simtest.Collector
	ep.Wait(0, 0, col.Handler())
	env.Run()
	if len(col.Events) != 1 || !col.Events[0].Ready.Has(core.POLLNVAL) {
		t.Fatalf("events = %+v", col.Events)
	}
}

func TestCloseReleasesWatchersAndAbortsWait(t *testing.T) {
	env := simtest.NewEnv()
	ep := open(env, DefaultOptions())
	fd, _ := env.NewFD(0)
	env.P.Batch(0, func() { must(t, ep.Add(fd.Num, core.POLLIN)) }, nil)
	env.Run()

	var col simtest.Collector
	ep.Wait(0, core.Forever, col.Handler())
	env.K.Sim.At(core.Time(core.Millisecond), func(core.Time) {
		if err := ep.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	env.Run()
	if col.Calls != 1 || len(col.Events) != 0 {
		t.Fatalf("close-while-waiting did not deliver an empty result: %+v", col)
	}
	if fd.Watchers() != 0 {
		t.Fatal("watcher leaked after Close")
	}
	if err := ep.Add(fd.Num, core.POLLIN); err != core.ErrClosed {
		t.Fatalf("Add after Close: %v", err)
	}
	if err := ep.Close(); err != core.ErrClosed {
		t.Fatalf("double Close: %v", err)
	}
}

// The epoll analogue of devpoll's flat-cost property: the marginal wait cost
// of an idle registered descriptor is zero, because epoll_wait never visits
// descriptors that are not on the ready list.
func TestWaitCostIndependentOfIdleDescriptors(t *testing.T) {
	waitCost := func(idle int) core.Duration {
		env := simtest.NewEnv()
		ep := open(env, DefaultOptions())
		var activeFile *simtest.FakeFile
		var activeFD int
		env.P.Batch(0, func() {
			fd, f := env.NewFD(0)
			activeFD, activeFile = fd.Num, f
			must(t, ep.Add(fd.Num, core.POLLIN))
			for i := 0; i < idle; i++ {
				fd, _ := env.NewFD(0)
				must(t, ep.Add(fd.Num, core.POLLIN))
			}
		}, nil)
		env.Run()
		activeFile.SetReady(env.K.Now(), core.POLLIN)
		env.Run()
		before := env.P.TotalCharged
		var col simtest.Collector
		ep.Wait(0, 0, col.Handler())
		env.Run()
		if len(col.Events) != 1 || col.Events[0].FD != activeFD {
			t.Fatalf("idle=%d: events = %+v", idle, col.Events)
		}
		return env.P.TotalCharged - before
	}
	small := waitCost(10)
	large := waitCost(510)
	if small != large {
		t.Fatalf("wait cost must be independent of registered set size: 10 idle = %v, 510 idle = %v",
			small, large)
	}
}

// A wait that blocks and times out allocates nothing on the host: the
// timeout's teardown batch, like the scan's, runs closures bound once per
// engine.
func TestTimedOutWaitAllocatesNothing(t *testing.T) {
	env := simtest.NewEnv()
	ep := open(env, DefaultOptions())
	fd, _ := env.NewFD(0)
	must(t, ep.Add(fd.Num, core.POLLIN))
	timeouts := 0
	handler := func(events []core.Event, _ core.Time) {
		if len(events) == 0 {
			timeouts++
		}
	}
	wait := func() {
		ep.Wait(16, core.Millisecond, handler)
		env.Run()
	}
	wait() // warm-up: the timeout pool, batch records and result buffers grow once
	if allocs := testing.AllocsPerRun(100, wait); allocs != 0 {
		t.Fatalf("timed-out wait allocates %.1f objects, want 0", allocs)
	}
	if runs := 1 + 100 + 1; timeouts != runs {
		t.Fatalf("%d of %d waits timed out", timeouts, runs)
	}
}
