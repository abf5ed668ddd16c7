package interest_test

// Stock poll and /dev/poll visit only their candidate entries on the host,
// while charging the per-interest cost of the whole interest set. This file
// keeps the full-table walks they replaced, as independent reference
// implementations, and drives reference and real pollers through the same
// seeded random operation sequences: every wait's events, every counter and
// every charged nanosecond must agree exactly.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/devpoll"
	"repro/internal/interest"
	"repro/internal/simkernel"
	"repro/internal/simtest"
	"repro/internal/stockpoll"
)

// scanPoller is the part of core.Poller plus core.StatsSource the
// equivalence driver exercises.
type scanPoller interface {
	Add(fd int, events core.EventMask) error
	Modify(fd int, events core.EventMask) error
	Remove(fd int) error
	Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time))
	MechanismStats() core.Stats
}

// refStockPoll is stock poll as a full walk of the pollfd array: every wait
// driver-polls every open descriptor, and the poller joins each descriptor's
// wait queue only while it is blocked.
type refStockPoll struct {
	k     *simkernel.Kernel
	p     *simkernel.Proc
	table *interest.Table
	armed bool
	eng   interest.Engine
	stats core.Stats
}

func newRefStockPoll(k *simkernel.Kernel, p *simkernel.Proc) *refStockPoll {
	pl := &refStockPoll{k: k, p: p, table: interest.NewTable()}
	pl.eng = interest.Engine{
		Name:    "stockpoll",
		K:       k,
		P:       p,
		Collect: pl.collect,
		OnBlock: func(firstPass bool) {
			if firstPass {
				pl.p.Charge(pl.k.Cost.WaitQueueOp.Scale(float64(pl.table.Len())))
			}
			pl.arm()
		},
		OnFinish: pl.disarm,
		TimeoutTeardown: func() core.Duration {
			return pl.k.Cost.WaitQueueOp.Scale(float64(pl.table.Len()))
		},
		Stats: &pl.stats,
	}
	return pl
}

func (pl *refStockPoll) Add(fd int, events core.EventMask) error {
	if pl.table.Contains(fd) {
		return core.ErrExists
	}
	pl.table.Set(fd, events)
	return nil
}

func (pl *refStockPoll) Modify(fd int, events core.EventMask) error {
	if !pl.table.Contains(fd) {
		return core.ErrNotFound
	}
	pl.table.Set(fd, events)
	return nil
}

func (pl *refStockPoll) Remove(fd int) error {
	e := pl.table.Lookup(fd)
	if e == nil {
		return core.ErrNotFound
	}
	if pl.armed && e.File != nil {
		e.File.RemoveWatcher(pl)
	}
	pl.table.Delete(fd)
	return nil
}

func (pl *refStockPoll) MechanismStats() core.Stats { return pl.stats }

func (pl *refStockPoll) Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time)) {
	if max <= 0 {
		max = pl.table.Len() + 1
	}
	pl.eng.Wait(max, timeout, handler)
}

func (pl *refStockPoll) collect(firstPass bool, max int, buf []core.Event) []core.Event {
	pl.stats.Waits++
	cost := pl.k.Cost
	n := pl.table.Len()
	if firstPass {
		pl.p.Charge(cost.SyscallEntry)
		pl.p.Charge(cost.PollCopyIn.Scale(float64(n)))
		pl.stats.CopiedIn += int64(n)
	} else {
		pl.p.Charge(cost.SchedWakeup)
		pl.p.Charge(cost.WaitQueueOp.Scale(float64(n)))
	}
	ready := buf
	pl.table.Each(func(e *interest.Entry) {
		entry, ok := pl.p.Get(e.FD)
		if !ok {
			ready = interest.AppendEvent(ready, max, core.Event{FD: e.FD, Ready: core.POLLNVAL})
			return
		}
		revents := entry.DriverPoll()
		pl.stats.DriverPolls++
		revents &= e.Events | core.POLLERR | core.POLLHUP | core.POLLNVAL
		if revents != 0 {
			ready = interest.AppendEvent(ready, max, core.Event{FD: e.FD, Ready: revents, Gen: entry.Gen})
		}
	})
	if len(ready) > 0 {
		pl.p.Charge(cost.PollCopyOut.Scale(float64(len(ready))))
		pl.p.Charge(cost.PollReadyRescan.Scale(float64(n) * float64(len(ready))))
		pl.stats.CopiedOut += int64(len(ready))
		pl.stats.EventsReturned += int64(len(ready))
	}
	return ready
}

func (pl *refStockPoll) arm() {
	pl.armed = true
	pl.table.Each(func(e *interest.Entry) {
		if entry, ok := pl.p.Get(e.FD); ok {
			entry.AddWatcher(pl)
			e.File = entry
		}
	})
}

func (pl *refStockPoll) disarm() {
	if !pl.armed {
		return
	}
	pl.armed = false
	pl.table.Each(func(e *interest.Entry) {
		if e.File != nil {
			e.File.RemoveWatcher(pl)
			e.File = nil
		}
	})
}

func (pl *refStockPoll) ReadinessChanged(now core.Time, fd *simkernel.FD, mask core.EventMask) {
	pl.eng.Wake()
}

// refDevPoll is /dev/poll as a full walk of the kernel-resident table: every
// entry costs a hint check or a driver poll on every DP_POLL.
type refDevPoll struct {
	k        *simkernel.Kernel
	p        *simkernel.Proc
	opts     devpoll.Options
	table    *interest.Table
	hinted   *interest.Ledger
	cache    map[int]core.EventMask
	mmapDone bool
	eng      interest.Engine
	stats    core.Stats
}

func newRefDevPoll(k *simkernel.Kernel, p *simkernel.Proc, opts devpoll.Options) *refDevPoll {
	d := &refDevPoll{k: k, p: p, opts: opts, table: interest.NewTable(),
		hinted: interest.NewLedger(), cache: map[int]core.EventMask{}}
	d.eng = interest.Engine{
		Name:            "devpoll",
		K:               k,
		P:               p,
		Collect:         d.collect,
		OnBlock:         func(bool) { d.p.Charge(d.k.Cost.WaitQueueOp) },
		TimeoutTeardown: func() core.Duration { return d.k.Cost.WaitQueueOp },
		Stats:           &d.stats,
	}
	return d
}

func (d *refDevPoll) Add(fd int, events core.EventMask) error {
	if d.table.Contains(fd) {
		return core.ErrExists
	}
	return d.update(core.PollFD{FD: fd, Events: events})
}

func (d *refDevPoll) Modify(fd int, events core.EventMask) error {
	if !d.table.Contains(fd) {
		return core.ErrNotFound
	}
	return d.update(core.PollFD{FD: fd, Events: events})
}

func (d *refDevPoll) Remove(fd int) error {
	if !d.table.Contains(fd) {
		return core.ErrNotFound
	}
	return d.update(core.PollFD{FD: fd, Events: core.POLLREMOVE})
}

func (d *refDevPoll) MechanismStats() core.Stats { return d.stats }

func (d *refDevPoll) update(ch core.PollFD) error {
	d.p.ChargeSyscall(d.k.Cost.InterestUpdate)
	if ch.Events.Has(core.POLLREMOVE) {
		if e := d.table.Lookup(ch.FD); e != nil && e.File != nil {
			e.File.RemoveWatcher(d)
		}
		d.table.Delete(ch.FD)
		d.hinted.Clear(ch.FD)
		delete(d.cache, ch.FD)
		return nil
	}
	e, isNew := d.table.Upsert(ch.FD)
	e.Events = ch.Events
	if isNew {
		var gen uint64
		if entry, ok := d.p.Get(ch.FD); ok {
			entry.AddWatcher(d)
			e.File = entry
			gen = entry.Gen
		}
		d.hinted.Mark(ch.FD, 0, gen)
	}
	return nil
}

func (d *refDevPoll) Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time)) {
	if max <= 0 {
		max = devpoll.ResultAreaSize
	}
	if d.opts.UseMmap && max > devpoll.ResultAreaSize {
		max = devpoll.ResultAreaSize
	}
	d.eng.Wait(max, timeout, handler)
}

func (d *refDevPoll) collect(firstPass bool, max int, buf []core.Event) []core.Event {
	cost := d.k.Cost
	d.stats.Waits++
	if firstPass {
		d.p.Charge(cost.SyscallEntry)
	} else {
		d.p.Charge(cost.SchedWakeup)
	}
	if d.opts.UseMmap && !d.mmapDone {
		d.p.Charge(cost.MmapSetup)
		d.mmapDone = true
	}
	d.p.Charge(cost.BackmapLock)
	ready := buf
	d.table.Each(func(e *interest.Entry) {
		fd, want := e.FD, e.Events
		entry, ok := d.p.Get(fd)
		if !ok {
			ready = interest.AppendEvent(ready, max, core.Event{FD: fd, Ready: core.POLLNVAL})
			return
		}
		cached, hasCache := d.cache[fd]
		needDriver := d.hinted.Ready(fd) || !d.opts.UseHints
		if !needDriver && hasCache && cached.Any(want|core.POLLERR|core.POLLHUP) {
			needDriver = true
			d.stats.CacheHits++
		}
		if !needDriver {
			d.p.Charge(cost.HintCheck)
			d.stats.HintHits++
			return
		}
		revents := entry.DriverPoll()
		d.stats.DriverPolls++
		d.cache[fd] = revents
		d.hinted.Clear(fd)
		revents &= want | core.POLLERR | core.POLLHUP | core.POLLNVAL
		if revents != 0 {
			ready = interest.AppendEvent(ready, max, core.Event{FD: fd, Ready: revents, Gen: entry.Gen})
		}
	})
	if len(ready) > 0 {
		if !d.opts.UseMmap {
			d.p.Charge(cost.PollCopyOut.Scale(float64(len(ready))))
			d.stats.CopiedOut += int64(len(ready))
		}
		d.stats.EventsReturned += int64(len(ready))
	}
	return ready
}

func (d *refDevPoll) ReadinessChanged(now core.Time, fd *simkernel.FD, mask core.EventMask) {
	if d.opts.UseHints {
		if d.hinted.Mark(fd.Num, mask, fd.Gen) {
			d.k.Interrupt(now, d.k.Cost.HintPost, nil)
		}
	}
	d.eng.Wake()
}

// scanSide is one half of an equivalence run: an environment, its poller,
// and the fake files currently installed, by descriptor number.
type scanSide struct {
	env   *simtest.Env
	pl    scanPoller
	files map[int]*simtest.FakeFile
	waits []simtest.Collector // one per completed wait
}

func newScanSide(open func(env *simtest.Env) scanPoller) *scanSide {
	env := simtest.NewEnv()
	return &scanSide{env: env, pl: open(env), files: map[int]*simtest.FakeFile{}}
}

func (s *scanSide) install() int {
	fd, f := s.env.NewFD(0)
	s.files[fd.Num] = f
	return fd.Num
}

// scanState is what the two sides of a run must agree on after every step.
type scanState struct {
	stats   core.Stats
	charged core.Duration
	busy    core.Time
	now     core.Time
}

func (s *scanSide) state() scanState {
	return scanState{s.pl.MechanismStats(), s.env.P.TotalCharged, s.env.K.CPU.BusyUntil(), s.env.K.Now()}
}

// scanOp is one step of a random sequence, drawn once and applied to both
// sides (fd numbers agree because both sides install and close in the same
// order). An op captures only values, never the generator, so the two
// applications run the same operation.
type scanOp func(s *scanSide)

var scanMasks = []core.EventMask{core.POLLIN, core.POLLOUT, core.POLLIN | core.POLLOUT}

// randomScanOp draws one operation. Readiness only ever rises through a
// driver notification (SetReady); it may fall silently, as a drained socket's
// does.
func randomScanOp(rng *rand.Rand, s *scanSide) scanOp {
	fds := make([]int, 0, len(s.files))
	for fd := 3; len(fds) < len(s.files); fd++ {
		if _, ok := s.files[fd]; ok {
			fds = append(fds, fd)
		}
	}
	pick := func() int {
		if len(fds) == 0 || rng.Intn(8) == 0 {
			return 3 + len(fds) + rng.Intn(3) // possibly not open
		}
		return fds[rng.Intn(len(fds))]
	}
	fd := pick()
	mask := scanMasks[rng.Intn(len(scanMasks))]
	switch r := rng.Intn(100); {
	case r < 12:
		return func(s *scanSide) { _ = s.pl.Add(fd, mask) }
	case r < 20:
		return func(s *scanSide) { _ = s.pl.Modify(fd, mask) }
	case r < 24:
		return func(s *scanSide) { _ = s.pl.Remove(fd) }
	case r < 29:
		// Close a descriptor, then maybe reopen the lowest free number.
		reopen := rng.Intn(2) == 0
		return func(s *scanSide) {
			if _, ok := s.files[fd]; ok {
				_ = s.env.P.CloseFD(s.env.K.Now(), fd)
				delete(s.files, fd)
			}
			if reopen {
				s.install()
			}
		}
	case r < 32:
		return func(s *scanSide) { s.install() }
	case r < 50:
		bit := []core.EventMask{core.POLLIN, core.POLLOUT, core.POLLIN, core.POLLHUP, core.POLLERR}[rng.Intn(5)]
		return func(s *scanSide) {
			if f := s.files[fd]; f != nil {
				f.SetReady(s.env.K.Now(), f.ReadyMask|bit)
			}
		}
	case r < 62:
		return func(s *scanSide) {
			if f := s.files[fd]; f != nil {
				f.ReadyMask &^= mask
			}
		}
	default:
		max := rng.Intn(4)
		timeout := []core.Duration{0, 0, core.Millisecond, 5 * core.Millisecond}[rng.Intn(4)]
		// Something may happen while the wait is blocked: a notified gain,
		// or a close.
		at := core.Duration(rng.Intn(3000)) * core.Microsecond
		late := rng.Intn(3)
		bit := []core.EventMask{core.POLLIN, core.POLLOUT}[rng.Intn(2)]
		return func(s *scanSide) {
			start := s.env.K.Now()
			switch late {
			case 1:
				s.env.K.Sim.At(start.Add(at), func(now core.Time) {
					if f := s.files[fd]; f != nil {
						f.SetReady(now, f.ReadyMask|bit)
					}
				})
			case 2:
				s.env.K.Sim.At(start.Add(at), func(now core.Time) {
					if _, ok := s.files[fd]; ok {
						_ = s.env.P.CloseFD(now, fd)
						delete(s.files, fd)
					}
				})
			}
			var col simtest.Collector
			s.pl.Wait(max, timeout, col.Handler())
			s.env.Run()
			s.waits = append(s.waits, col)
		}
	}
}

// TestScanMatchesFullWalkReference runs seeded random op sequences against
// the candidate-visiting pollers and their full-walk references.
func TestScanMatchesFullWalkReference(t *testing.T) {
	type variant struct {
		name      string
		ref, real func(env *simtest.Env) scanPoller
	}
	var variants []variant
	variants = append(variants, variant{"stockpoll",
		func(env *simtest.Env) scanPoller { return newRefStockPoll(env.K, env.P) },
		func(env *simtest.Env) scanPoller { return stockpoll.New(env.K, env.P) }})
	for _, hints := range []bool{true, false} {
		for _, mmap := range []bool{true, false} {
			o := devpoll.Options{UseHints: hints, UseMmap: mmap}
			variants = append(variants, variant{fmt.Sprintf("devpoll/hints=%v/mmap=%v", hints, mmap),
				func(env *simtest.Env) scanPoller { return newRefDevPoll(env.K, env.P, o) },
				func(env *simtest.Env) scanPoller { return devpoll.Open(env.K, env.P, o) }})
		}
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 60; seed++ {
				ref, real := newScanSide(v.ref), newScanSide(v.real)
				for i := 0; i < 12; i++ {
					ref.install()
					real.install()
				}
				if seed%2 == 0 {
					// A large idle set, so few entries are candidates.
					for i := 0; i < 64; i++ {
						_ = ref.pl.Add(ref.install(), core.POLLIN)
						_ = real.pl.Add(real.install(), core.POLLIN)
					}
				}
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 300; step++ {
					// Each step's op is drawn once, from the run's one
					// generator, against the reference side, and applied
					// to both.
					op := randomScanOp(rng, ref)
					op(ref)
					op(real)
					// Waits only append, so the earlier ones were compared
					// at earlier steps.
					if len(ref.waits) != len(real.waits) || !sameWait(last(ref.waits), last(real.waits)) ||
						ref.state() != real.state() {
						t.Fatalf("seed %d step %d diverged:\nref  %+v\n     %v\nreal %+v\n     %v",
							seed, step, ref.state(), last(ref.waits), real.state(), last(real.waits))
					}
				}
			}
		})
	}
}

// last returns the latest completed wait, the zero one before any.
func last(waits []simtest.Collector) simtest.Collector {
	if len(waits) == 0 {
		return simtest.Collector{}
	}
	return waits[len(waits)-1]
}

func sameWait(a, b simtest.Collector) bool {
	return a.Calls == b.Calls && a.At == b.At && slices.Equal(a.Events, b.Events)
}
