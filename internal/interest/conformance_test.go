package interest_test

// The shared Poller conformance suite: one table-driven file exercised against
// every event-notification mechanism (stock poll, /dev/poll, RT signals,
// epoll in both trigger modes, and the compio completion rings). It pins the contract every mechanism must
// honour so refactors of the shared interest engine are provably
// behaviour-preserving: error cases on interest management (ErrExists,
// ErrNotFound, ErrBadFD, ErrClosed), Interested/Len bookkeeping, watcher-list
// bookkeeping, readiness delivery, wait-with-timeout, non-blocking waits, and
// close-while-waiting.

import (
	"slices"
	"testing"

	"repro/internal/compio"
	"repro/internal/core"
	"repro/internal/devpoll"
	"repro/internal/epoll"
	"repro/internal/eventlib"
	"repro/internal/netsim"
	"repro/internal/rtsig"
	"repro/internal/simkernel"
	"repro/internal/simtest"
	"repro/internal/stockpoll"
)

// mechanism names one Poller implementation under test. heldOnly marks the
// mechanisms that watch a descriptor from registration on, so Add requires
// the process to hold it.
type mechanism struct {
	name     string
	heldOnly bool
	open     func(env *simtest.Env) core.Poller
}

func mechanisms() []mechanism {
	return []mechanism{
		{"stockpoll", false, func(env *simtest.Env) core.Poller {
			return stockpoll.New(env.K, env.P)
		}},
		{"devpoll", false, func(env *simtest.Env) core.Poller {
			return devpoll.Open(env.K, env.P, devpoll.DefaultOptions())
		}},
		{"rtsig", true, func(env *simtest.Env) core.Poller {
			return rtsig.New(env.K, env.P, rtsig.DefaultOptions())
		}},
		{"epoll-lt", true, func(env *simtest.Env) core.Poller {
			return epoll.Open(env.K, env.P, epoll.Options{EdgeTriggered: false})
		}},
		{"epoll-et", true, func(env *simtest.Env) core.Poller {
			return epoll.Open(env.K, env.P, epoll.Options{EdgeTriggered: true})
		}},
		{"compio", true, func(env *simtest.Env) core.Poller {
			return compio.Open(env.K, env.P, compio.DefaultOptions())
		}},
	}
}

// forEachMechanism runs fn as a sub-test per mechanism, with a fresh
// simulation environment each time.
func forEachMechanism(t *testing.T, fn func(t *testing.T, env *simtest.Env, p core.Poller)) {
	t.Helper()
	forEachMechanismOf(t, func(t *testing.T, _ mechanism, env *simtest.Env, p core.Poller) { fn(t, env, p) })
}

// forEachMechanismOf is forEachMechanism for a test whose expectations
// depend on the mechanism.
func forEachMechanismOf(t *testing.T, fn func(t *testing.T, m mechanism, env *simtest.Env, p core.Poller)) {
	t.Helper()
	for _, m := range mechanisms() {
		t.Run(m.name, func(t *testing.T) {
			env := simtest.NewEnv()
			fn(t, m, env, m.open(env))
		})
	}
}

func TestConformanceInterestErrors(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		fdA, _ := env.NewFD(0)
		fdB, _ := env.NewFD(0)

		if err := p.Add(fdA.Num, core.POLLIN); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if err := p.Add(fdA.Num, core.POLLIN); err != core.ErrExists {
			t.Fatalf("duplicate Add = %v, want ErrExists", err)
		}
		if err := p.Modify(fdB.Num, core.POLLIN); err != core.ErrNotFound {
			t.Fatalf("Modify of unregistered fd = %v, want ErrNotFound", err)
		}
		if err := p.Remove(fdB.Num); err != core.ErrNotFound {
			t.Fatalf("Remove of unregistered fd = %v, want ErrNotFound", err)
		}
		if err := p.Modify(fdA.Num, core.POLLIN|core.POLLOUT); err != nil {
			t.Fatalf("Modify: %v", err)
		}
		if err := p.Remove(fdA.Num); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		if err := p.Remove(fdA.Num); err != core.ErrNotFound {
			t.Fatalf("double Remove = %v, want ErrNotFound", err)
		}
	})
}

// TestConformanceAddUnheldDescriptor pins Add of a descriptor the process
// does not hold. The mechanisms that watch from registration refuse it with
// ErrBadFD; stock poll and /dev/poll take it, as poll() and write() to
// /dev/poll do, and their first wait reports POLLNVAL for it.
func TestConformanceAddUnheldDescriptor(t *testing.T) {
	forEachMechanismOf(t, func(t *testing.T, m mechanism, env *simtest.Env, p core.Poller) {
		held, _ := env.NewFD(0)
		unheld := held.Num + 1
		err := p.Add(unheld, core.POLLIN)
		if m.heldOnly {
			if err != core.ErrBadFD {
				t.Fatalf("Add of an unheld fd = %v, want ErrBadFD", err)
			}
			if p.Interested(unheld) || p.Len() != 0 {
				t.Fatalf("refused Add registered: Interested=%v Len=%d", p.Interested(unheld), p.Len())
			}
			return
		}
		if err != nil {
			t.Fatalf("Add of an unheld fd = %v, want nil", err)
		}
		var col simtest.Collector
		p.Wait(0, 0, col.Handler())
		env.Run()
		want := []core.Event{{FD: unheld, Ready: core.POLLNVAL}}
		if col.Calls != 1 || !slices.Equal(col.Events, want) {
			t.Fatalf("first wait: %+v, want events %+v", col, want)
		}
	})
}

// TestConformanceRemoveLeavesWatchers pins that Remove takes the poller off
// the descriptor's watcher list. Stock poll joins the list at its first scan,
// so the wait comes before the check.
func TestConformanceRemoveLeavesWatchers(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		fd, _ := env.NewFD(0)
		if err := p.Add(fd.Num, core.POLLIN); err != nil {
			t.Fatal(err)
		}
		var col simtest.Collector
		p.Wait(0, 0, col.Handler())
		env.Run()
		if fd.Watchers() != 1 {
			t.Fatalf("watchers after Add and a wait = %d, want 1", fd.Watchers())
		}
		if err := p.Remove(fd.Num); err != nil {
			t.Fatal(err)
		}
		if fd.Watchers() != 0 {
			t.Fatalf("watchers leaked after Remove: %d", fd.Watchers())
		}
	})
}

func TestConformanceInterestedAndLen(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		if p.Len() != 0 {
			t.Fatalf("fresh poller Len = %d", p.Len())
		}
		var fds []int
		for i := 0; i < 5; i++ {
			fd, _ := env.NewFD(0)
			if err := p.Add(fd.Num, core.POLLIN); err != nil {
				t.Fatalf("Add %d: %v", i, err)
			}
			fds = append(fds, fd.Num)
		}
		if p.Len() != 5 {
			t.Fatalf("Len = %d, want 5", p.Len())
		}
		for _, fd := range fds {
			if !p.Interested(fd) {
				t.Fatalf("Interested(%d) = false", fd)
			}
		}
		if p.Interested(fds[4] + 1) {
			t.Fatal("Interested reports an unregistered fd")
		}
		if err := p.Remove(fds[2]); err != nil {
			t.Fatal(err)
		}
		if p.Interested(fds[2]) || p.Len() != 4 {
			t.Fatalf("after Remove: Interested=%v Len=%d", p.Interested(fds[2]), p.Len())
		}
	})
}

func TestConformanceClosedPollerErrors(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		fd, _ := env.NewFD(0)
		if err := p.Add(fd.Num, core.POLLIN); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := p.Close(); err != core.ErrClosed {
			t.Fatalf("double Close = %v, want ErrClosed", err)
		}
		if err := p.Add(fd.Num+1, core.POLLIN); err != core.ErrClosed {
			t.Fatalf("Add after Close = %v, want ErrClosed", err)
		}
		if err := p.Modify(fd.Num, core.POLLIN); err != core.ErrClosed {
			t.Fatalf("Modify after Close = %v, want ErrClosed", err)
		}
		if err := p.Remove(fd.Num); err != core.ErrClosed {
			t.Fatalf("Remove after Close = %v, want ErrClosed", err)
		}
		// A Wait on a closed poller completes immediately and delivers nothing.
		var col simtest.Collector
		p.Wait(0, core.Forever, col.Handler())
		if col.Calls != 1 || len(col.Events) != 0 {
			t.Fatalf("Wait after Close: %+v", col)
		}
		// Closing must not leave watchers on the descriptor.
		if fd.Watchers() != 0 {
			t.Fatalf("watchers leaked after Close: %d", fd.Watchers())
		}
	})
}

func TestConformanceWaitDeliversReadiness(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		fd, file := env.NewFD(0)
		if err := p.Add(fd.Num, core.POLLIN); err != nil {
			t.Fatal(err)
		}
		var col simtest.Collector
		p.Wait(0, core.Forever, col.Handler())
		// Readiness arrives 2 ms into the run — after registration, so every
		// mechanism (including transition-driven RT signals) observes it.
		env.K.Sim.At(core.Time(2*core.Millisecond), func(now core.Time) {
			file.SetReady(now, core.POLLIN)
		})
		env.Run()
		if col.Calls != 1 {
			t.Fatalf("handler calls = %d", col.Calls)
		}
		if len(col.Events) == 0 {
			t.Fatal("no events delivered")
		}
		found := false
		for _, ev := range col.Events {
			if ev.FD == fd.Num && ev.Ready.Any(core.POLLIN) {
				found = true
			}
		}
		if !found {
			t.Fatalf("readiness on fd %d not delivered: %+v", fd.Num, col.Events)
		}
		if col.At < core.Time(2*core.Millisecond) {
			t.Fatalf("handler ran before the readiness existed: %v", col.At)
		}
	})
}

// TestConformanceWriteInterestNoPendingRead pins the server-push pattern: a
// descriptor armed for write interest only, while it stays readable the whole
// time and nothing ever reads it. The pending readability must not wake the
// write-only registration, and the later writability transition must — a
// push daemon parked on a full send buffer depends on both halves.
func TestConformanceWriteInterestNoPendingRead(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		fd, file := env.NewFD(core.POLLIN) // readable from birth, never read
		if err := p.Add(fd.Num, core.POLLOUT); err != nil {
			t.Fatal(err)
		}
		var col simtest.Collector
		p.Wait(0, core.Forever, col.Handler())
		env.K.Sim.At(core.Time(2*core.Millisecond), func(now core.Time) {
			file.SetReady(now, core.POLLIN|core.POLLOUT)
		})
		env.Run()
		if col.Calls != 1 {
			t.Fatalf("handler calls = %d", col.Calls)
		}
		if col.At < core.Time(2*core.Millisecond) {
			t.Fatalf("write-only wait woke at %v, before the descriptor was writable (the unwatched readability leaked through)", col.At)
		}
		found := false
		for _, ev := range col.Events {
			if ev.FD == fd.Num && ev.Ready.Any(core.POLLOUT) {
				found = true
			}
		}
		if !found {
			t.Fatalf("writability not delivered: %+v", col.Events)
		}
	})
}

// TestConformanceDatagramReadiness runs a bound datagram socket through every
// mechanism: a fresh socket is writable but not readable, an arriving
// datagram wakes a blocked wait with POLLIN, draining the queue clears the
// readability, and a second datagram re-arms the mechanism (the
// empty→non-empty edge, which edge-triggered modes depend on).
func TestConformanceDatagramReadiness(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		const addr netsim.Addr = 1
		net := netsim.New(env.K, netsim.DefaultConfig())
		api := netsim.NewSockAPI(env.K, env.P, net)
		var fd *simkernel.FD
		env.P.Batch(0, func() { fd, _ = api.OpenDatagram(addr) }, nil)
		env.Run()

		if m := fd.Poll(); m.Any(core.POLLIN) || !m.Any(core.POLLOUT) {
			t.Fatalf("fresh datagram socket polls %v, want writable and not readable", m)
		}
		if err := p.Add(fd.Num, core.POLLIN); err != nil {
			t.Fatal(err)
		}
		var col simtest.Collector
		p.Wait(0, core.Forever, col.Handler())
		var peer *netsim.Peer
		peer = net.NewPeer(env.K.Now(), netsim.PeerOptions{}, &simtest.DgramHooks{
			OnStarted: func(now core.Time) { peer.SendTo(now, addr, 64) },
		})
		env.Run()
		if col.Calls != 1 {
			t.Fatalf("handler calls = %d", col.Calls)
		}
		woke := false
		for _, ev := range col.Events {
			if ev.FD == fd.Num && ev.Ready.Any(core.POLLIN) {
				woke = true
			}
		}
		if !woke {
			t.Fatalf("datagram arrival not delivered: %+v", col.Events)
		}

		env.P.Batch(env.K.Now(), func() {
			if _, _, ok := api.RecvFrom(fd); !ok {
				t.Error("woken socket had nothing to read")
			}
		}, nil)
		env.Run()
		if m := fd.Poll(); m.Any(core.POLLIN) {
			t.Fatalf("drained socket still polls readable: %v", m)
		}

		var col2 simtest.Collector
		p.Wait(0, core.Forever, col2.Handler())
		peer.SendTo(env.K.Now(), addr, 64)
		env.Run()
		if col2.Calls != 1 {
			t.Fatalf("second wait calls = %d (mechanism failed to re-arm after the drain)", col2.Calls)
		}
		woke = false
		for _, ev := range col2.Events {
			if ev.FD == fd.Num && ev.Ready.Any(core.POLLIN) {
				woke = true
			}
		}
		if !woke {
			t.Fatalf("second datagram not delivered: %+v", col2.Events)
		}
	})
}

func TestConformanceWaitTimeout(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		fd, _ := env.NewFD(0)
		if err := p.Add(fd.Num, core.POLLIN); err != nil {
			t.Fatal(err)
		}
		const timeout = 10 * core.Millisecond
		var col simtest.Collector
		p.Wait(0, timeout, col.Handler())
		env.Run()
		if col.Calls != 1 || len(col.Events) != 0 {
			t.Fatalf("timed-out wait: %+v", col)
		}
		if col.At < core.Time(timeout) {
			t.Fatalf("timeout fired early: %v", col.At)
		}
		// The poller is reusable after a timeout.
		var col2 simtest.Collector
		p.Wait(0, 0, col2.Handler())
		env.Run()
		if col2.Calls != 1 {
			t.Fatal("second Wait never completed")
		}
	})
}

func TestConformanceWaitZeroTimeoutNeverBlocks(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		fd, _ := env.NewFD(0)
		if err := p.Add(fd.Num, core.POLLIN); err != nil {
			t.Fatal(err)
		}
		var col simtest.Collector
		p.Wait(0, 0, col.Handler())
		env.Run()
		if col.Calls != 1 || len(col.Events) != 0 {
			t.Fatalf("non-blocking wait: %+v", col)
		}
	})
}

func TestConformanceCloseWhileWaiting(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		fd, _ := env.NewFD(0)
		if err := p.Add(fd.Num, core.POLLIN); err != nil {
			t.Fatal(err)
		}
		var col simtest.Collector
		p.Wait(0, core.Forever, col.Handler())
		env.K.Sim.At(core.Time(core.Millisecond), func(core.Time) {
			if err := p.Close(); err != nil {
				t.Errorf("Close while waiting: %v", err)
			}
		})
		env.Run()
		// The blocked wait must complete (empty) rather than strand the caller.
		if col.Calls != 1 || len(col.Events) != 0 {
			t.Fatalf("close-while-waiting: %+v", col)
		}
		if col.At < core.Time(core.Millisecond) {
			t.Fatalf("wait completed before the Close: %v", col.At)
		}
		if fd.Watchers() != 0 {
			t.Fatalf("watchers leaked: %d", fd.Watchers())
		}
	})
}

func TestConformanceConcurrentWaitPanics(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		fd, _ := env.NewFD(0)
		if err := p.Add(fd.Num, core.POLLIN); err != nil {
			t.Fatal(err)
		}
		p.Wait(0, core.Forever, func([]core.Event, core.Time) {})
		defer func() {
			if recover() == nil {
				t.Error("second Wait should panic while the first is in flight")
			}
		}()
		p.Wait(0, core.Forever, func([]core.Event, core.Time) {})
	})
}

// --- EventBase conformance -------------------------------------------------
//
// The eventlib redesign moved every server's dispatch loop into
// eventlib.Base; these tests re-run the readiness and timeout contract with
// each mechanism wrapped in a Base, pinning that the callback API preserves
// the two properties the hand-rolled loops guaranteed: no lost wakeups
// (readiness arriving after registration is always delivered, whether the
// loop is blocked or between iterations) and timeout semantics (timers fire
// at their virtual deadline, and I/O beats a later deadline).

// baseFire records one eventlib callback delivery.
type baseFire struct {
	what eventlib.What
	at   core.Time
}

func TestConformanceEventBaseNoLostWakeup(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		base := eventlib.NewWithPoller(env.K, env.P, p, eventlib.Config{})
		fd, file := env.NewFD(0)
		var fires []baseFire
		ev := base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist,
			func(_ int, what eventlib.What, now core.Time) {
				fires = append(fires, baseFire{what, now})
				base.Stop()
			})
		if err := ev.Add(0); err != nil {
			t.Fatal(err)
		}
		base.Dispatch()
		// Readiness arrives while the loop is blocked waiting.
		env.K.Sim.At(core.Time(2*core.Millisecond), func(now core.Time) {
			file.SetReady(now, core.POLLIN)
		})
		env.Run()
		if len(fires) != 1 || !fires[0].what.Has(eventlib.EvRead) {
			t.Fatalf("fires = %+v, want one EvRead", fires)
		}
		if fires[0].at < core.Time(2*core.Millisecond) {
			t.Fatalf("callback ran before the readiness existed: %v", fires[0].at)
		}
	})
}

func TestConformanceEventBaseWakeupBeforeDispatch(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		base := eventlib.NewWithPoller(env.K, env.P, p, eventlib.Config{})
		fd, file := env.NewFD(0)
		var fires []baseFire
		ev := base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist,
			func(_ int, what eventlib.What, now core.Time) {
				fires = append(fires, baseFire{what, now})
				base.Stop()
			})
		if err := ev.Add(0); err != nil {
			t.Fatal(err)
		}
		// The readiness transition lands after registration but before the
		// loop starts: every mechanism must have latched it (the RT queue as
		// a pending siginfo, the ready-list mechanisms in their ledgers, the
		// scanning mechanisms by re-polling), so the first wait delivers it.
		file.SetReady(env.K.Now(), core.POLLIN)
		base.Dispatch()
		env.Run()
		if len(fires) != 1 || !fires[0].what.Has(eventlib.EvRead) {
			t.Fatalf("fires = %+v, want one EvRead", fires)
		}
	})
}

func TestConformanceEventBaseTimeoutSemantics(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		base := eventlib.NewWithPoller(env.K, env.P, p, eventlib.Config{})
		// An I/O event that never fires keeps the loop waiting; a timer must
		// still fire at its deadline, driving the poll timeout computation.
		fd, _ := env.NewFD(0)
		idle := base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist,
			func(int, eventlib.What, core.Time) { t.Error("idle descriptor fired") })
		if err := idle.Add(0); err != nil {
			t.Fatal(err)
		}
		const deadline = 10 * core.Millisecond
		var fires []baseFire
		timer := base.NewTimer(0, func(_ int, what eventlib.What, now core.Time) {
			fires = append(fires, baseFire{what, now})
			base.Stop()
		})
		if err := timer.Add(deadline); err != nil {
			t.Fatal(err)
		}
		base.Dispatch()
		env.Run()
		if len(fires) != 1 || !fires[0].what.Has(eventlib.EvTimeout) {
			t.Fatalf("fires = %+v, want one EvTimeout", fires)
		}
		if fires[0].at < core.Time(deadline) {
			t.Fatalf("timer fired early: %v", fires[0].at)
		}
		if fires[0].at > core.Time(deadline).Add(2*core.Millisecond) {
			t.Fatalf("timer fired far past its deadline: %v", fires[0].at)
		}
	})
}

func TestConformanceEventBaseReadinessBeatsLaterDeadline(t *testing.T) {
	forEachMechanism(t, func(t *testing.T, env *simtest.Env, p core.Poller) {
		base := eventlib.NewWithPoller(env.K, env.P, p, eventlib.Config{})
		fd, file := env.NewFD(0)
		var fires []baseFire
		// One event carrying both interests: readable, with a 50 ms timeout.
		ev := base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist,
			func(_ int, what eventlib.What, now core.Time) {
				fires = append(fires, baseFire{what, now})
				base.Stop()
			})
		if err := ev.Add(50 * core.Millisecond); err != nil {
			t.Fatal(err)
		}
		base.Dispatch()
		env.K.Sim.At(core.Time(3*core.Millisecond), func(now core.Time) {
			file.SetReady(now, core.POLLIN)
		})
		env.Run()
		if len(fires) != 1 {
			t.Fatalf("fires = %+v", fires)
		}
		if !fires[0].what.Has(eventlib.EvRead) || fires[0].what.Has(eventlib.EvTimeout) {
			t.Fatalf("what = %v, want EvRead without EvTimeout", fires[0].what)
		}
		if fires[0].at > core.Time(10*core.Millisecond) {
			t.Fatalf("readiness delivered late: %v", fires[0].at)
		}
	})
}
