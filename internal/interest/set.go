package interest

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simkernel"
)

// Set is the registration contract every mechanism shares, and its state: the
// interest Table, the wait Engine, the core.Stats block and the closed flag.
// A mechanism embeds it and gets Interested, Len, MechanismStats and Close of
// core.Poller from it. It then writes Add, Modify, Remove and Wait from the
// helpers below, so every mechanism reports the same errors in the same
// order: ErrClosed first, then ErrExists, ErrBadFD or ErrNotFound.
//
// Set owns no costs and no trigger semantics. Each mechanism charges its own
// registration and scan costs and presents readiness its own way. It also
// decides when an entry's File is bound: at registration (Bind), when the
// descriptor is held at write() time (/dev/poll), or at scan time (stock
// poll). Whoever binds File also joins its watcher list with Owner, and Drop
// and Close leave it again.
type Set struct {
	K     *simkernel.Kernel
	P     *simkernel.Proc
	Table *Table
	Stats core.Stats

	// OnClose, if non-nil, releases the mechanism's own state (a ready list,
	// a completion ring) when Close succeeds, before the interests leave
	// their watcher lists and a blocked wait aborts.
	OnClose func()

	owner  simkernel.Watcher
	eng    Engine
	closed bool

	// stormSalt and stormSeq key the injected overflow-storm decision stream
	// (faults.Config.OverflowStormRate): one sequence per draw, salted by the
	// owning process so sibling mechanisms draw independent storms.
	stormSalt uint64
	stormSeq  uint64
}

// Init binds the set to process p of kernel k. owner is the watcher the
// mechanism joins descriptors' watcher lists as. eng supplies the mechanism's
// Name and hooks; Init fills in its K, P and Stats.
func (s *Set) Init(k *simkernel.Kernel, p *simkernel.Proc, owner simkernel.Watcher, eng Engine) {
	s.K, s.P, s.owner = k, p, owner
	s.Table = NewTable()
	eng.K, eng.P, eng.Stats = k, p, &s.Stats
	s.eng = eng
}

// Interested implements core.Poller.
func (s *Set) Interested(fd int) bool { return s.Table.Contains(fd) }

// Len implements core.Poller: the number of registered interests.
func (s *Set) Len() int { return s.Table.Len() }

// MechanismStats implements core.StatsSource.
func (s *Set) MechanismStats() core.Stats { return s.Stats }

// Closed reports whether Close has run.
func (s *Set) Closed() bool { return s.closed }

// Admit checks that fd may be added: ErrClosed, then ErrExists.
func (s *Set) Admit(fd int) error {
	if s.closed {
		return core.ErrClosed
	}
	if s.Table.Contains(fd) {
		return core.ErrExists
	}
	return nil
}

// Bind adds an interest for a mechanism that watches its descriptor from
// registration on. After Admit's checks, fd must be held by the process, else
// ErrBadFD. The new entry is bound to the descriptor, which gains the owner
// as a watcher.
func (s *Set) Bind(fd int, events core.EventMask) (*Entry, error) {
	if err := s.Admit(fd); err != nil {
		return nil, err
	}
	f, ok := s.P.Get(fd)
	if !ok {
		return nil, core.ErrBadFD
	}
	e, _ := s.Table.Upsert(fd)
	e.Events = events
	e.File = f
	f.AddWatcher(s.owner)
	return e, nil
}

// Find returns the entry Modify or Remove acts on: ErrClosed, then
// ErrNotFound.
func (s *Set) Find(fd int) (*Entry, error) {
	if s.closed {
		return nil, core.ErrClosed
	}
	e := s.Table.Lookup(fd)
	if e == nil {
		return nil, core.ErrNotFound
	}
	return e, nil
}

// Drop removes e from the set, leaving its descriptor's watcher list.
func (s *Set) Drop(e *Entry) {
	if e.File != nil {
		e.File.RemoveWatcher(s.owner)
	}
	s.Table.Delete(e.FD)
}

// Wants returns the entry a driver notification of mask on fd concerns, or
// nil when the set is closed, fd has no interest, or mask misses the entry's
// Events, POLLERR and POLLHUP.
func (s *Set) Wants(fd *simkernel.FD, mask core.EventMask) *Entry {
	if s.closed {
		return nil
	}
	e := s.Table.Lookup(fd.Num)
	if e == nil || !mask.Any(e.Events|core.POLLERR|core.POLLHUP) {
		return nil
	}
	return e
}

// Storm draws the next injected overflow-storm decision: true means a
// kernel-side burst has already filled the mechanism's queue, so this
// notification is lost. Without a storm rate it draws nothing.
func (s *Set) Storm() bool {
	f := &s.K.Faults
	if f.OverflowStormRate <= 0 {
		return false
	}
	if s.stormSalt == 0 {
		s.stormSalt = faults.SaltString(s.P.Name)
	}
	s.stormSeq++
	return f.OverflowStorm(s.stormSalt, s.stormSeq)
}

// Wait runs one blocking wait on the engine, or, once the set is closed,
// calls handler at once with no events. The mechanism clamps max first.
func (s *Set) Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time)) {
	if s.closed {
		handler(nil, s.K.Now())
		return
	}
	s.eng.Wait(max, timeout, handler)
}

// Wake passes a readiness notification to the wait engine.
func (s *Set) Wake() { s.eng.Wake() }

// Close implements core.Poller. It runs OnClose, takes every bound entry off
// its descriptor's watcher list and completes a blocked wait with no events.
func (s *Set) Close() error {
	if s.closed {
		return core.ErrClosed
	}
	if s.OnClose != nil {
		s.OnClose()
	}
	s.Table.Each(func(e *Entry) {
		if e.File != nil {
			e.File.RemoveWatcher(s.owner)
		}
	})
	s.closed = true
	s.eng.Abort(s.K.Now())
	return nil
}
