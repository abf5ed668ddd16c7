// Package eventlib is the callback-driven event API the servers program
// against — the programming model Provos extracted from this line of work into
// libevent, recast over the simulated kernel. A Base owns one event-notification
// mechanism (any core.Poller), a sorted list of timers in virtual time, and the
// dispatch loop every server used to hand-roll: it computes poll timeouts from
// the armed timers, iterates readiness results, and invokes per-event callbacks
// inside a process batch so every dispatch still charges the calibrated cost
// model.
//
// Event handles carry read/write/timeout interest and persistent versus
// one-shot semantics. Each dispatch iteration queues the events its wait and
// its expired timers activated — readiness first, then timers — and runs every
// callback in that order before the next wait; there are no priorities, so no
// event waits behind another for a later iteration. Teardown is
// deterministic: deleting an event from inside a callback — including a
// callback for a different event activated in the same batch — guarantees
// the deleted event's callback never runs again, and closing the base while a
// wait is pending completes the wait instead of stranding it.
//
// The package deliberately mirrors libevent's shape (event_base / event /
// event_add / event_del / dispatch) so that one server runs unchanged over
// poll, /dev/poll, RT signals, or epoll; the backend registry in registry.go
// replaces the per-server mechanism constructors.
package eventlib

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/simkernel"
)

// What is a bitmask of the conditions an event is registered for, and of the
// conditions reported to its callback. The values mirror libevent's EV_* bits.
type What uint8

// Event condition bits.
const (
	// EvTimeout reports that the event's timeout expired.
	EvTimeout What = 0x01
	// EvRead requests/reports readability (POLLIN and error conditions).
	EvRead What = 0x02
	// EvWrite requests/reports writability.
	EvWrite What = 0x04
	// EvSignal marks an event dispatched by descriptor match only: the base
	// never registers poller interest for it. The RT-signal queue's overflow
	// sentinel (a negative descriptor) is delivered through a signal event.
	EvSignal What = 0x08
	// EvPersist keeps the event registered after it fires; without it the
	// event is deleted immediately before its callback runs (re-adding it from
	// inside the callback re-arms it, as in libevent).
	EvPersist What = 0x10
)

// Has reports whether every bit of want is set in w.
func (w What) Has(want What) bool { return w&want == want }

// String renders the mask for diagnostics.
func (w What) String() string {
	if w == 0 {
		return "0"
	}
	names := []struct {
		bit  What
		name string
	}{
		{EvTimeout, "TIMEOUT"}, {EvRead, "READ"}, {EvWrite, "WRITE"},
		{EvSignal, "SIGNAL"}, {EvPersist, "PERSIST"},
	}
	out := ""
	for _, n := range names {
		if w&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	return out
}

// Callback is invoked when an event becomes active. what holds the conditions
// that fired (EvRead/EvWrite/EvTimeout/EvSignal); now is the virtual instant of
// the dispatch batch. Callbacks run inside a process batch: socket calls and
// event Add/Del are legal, a nested Dispatch is not.
type Callback func(fd int, what What, now core.Time)

// MaxEventsPerWait caps how many readiness events one poller wait may
// deliver. Mechanisms with stricter semantics (the RT signal queue dequeues
// one siginfo per sigwaitinfo call) clamp further.
const MaxEventsPerWait = 1024

// Config parameterises a Base.
type Config struct {
	// Backend names the registry backend New constructs ("" selects the
	// highest-preference backend; see Backends). Ignored by NewWithPoller.
	Backend string
	// LoopCost is charged to the process once per dispatch iteration — the
	// per-loop bookkeeping a real server performs (thttpd charges its timer
	// list scan and fdwatch setup here). Zero charges nothing.
	LoopCost core.Duration
	// MirrorInterest, when true, applies every interest registration and
	// removal to all attached pollers rather than only the active one. The
	// hybrid server uses it to keep /dev/poll's interest set current while RT
	// signals deliver events, which is what makes its mode switch nearly free.
	MirrorInterest bool
	// AfterDispatch, when non-nil, runs inside the dispatch batch after the
	// callbacks with the number of readiness events the poller delivered in
	// this iteration. The hybrid server evaluates its mode-switch policy here.
	AfterDispatch func(delivered int, now core.Time)
}

// Base is the event loop: one active poller (plus optional attached pollers),
// the armed timers, the active-event queue, and the dispatch state.
type Base struct {
	P *simkernel.Proc

	cfg     Config
	backend Backend // metadata when constructed through the registry

	pollers []core.Poller // attachment order; pollers[active] is the wait target
	active  int
	owned   bool // Close closes pollers the registry constructed

	// evs is the fd -> event table for non-negative descriptors, dense
	// because the simulated kernel allocates descriptors lowest-unused; the
	// rare negative descriptors (signal sentinels like the RT-signal overflow
	// event) live in evNeg. evCount counts entries across both.
	evs     core.Paged[*Event]
	evNeg   map[int]*Event
	evCount int
	timers  timerList
	nextSeq uint64

	// activeq holds the current iteration's activations in order; it is
	// drained completely before the next wait, and its backing array reused.
	activeq []*Event

	// free holds released events for NewEvent/NewTimer to reuse, so a server
	// that releases each connection's event after Del allocates none per
	// connection at steady state. Fresh records come from the slab, so the events
	// a server holds for the whole run cost one allocation per chunk.
	free []*Event
	slab core.Slab[Event]

	// The dispatch loop's per-iteration state and pre-bound callbacks: the
	// wait completion, the dispatch batch body and its completion are the
	// three hottest closures in the system, so they are created once here
	// and the per-iteration values travel through fields.
	onWaitFn       func(events []core.Event, now core.Time)
	dispatchFn     func()
	dispatchDoneFn func(now core.Time)
	pendingEvents  []core.Event
	pendingNow     core.Time

	running    bool
	stopped    bool
	closed     bool
	iterations int64
}

// New constructs a Base whose poller comes from the backend registry:
// cfg.Backend by name, or the highest-preference backend when empty. The
// returned Base owns the poller and closes it in Close. Unknown backend names
// produce an error listing the registered choices.
func New(k *simkernel.Kernel, p *simkernel.Proc, cfg Config) (*Base, error) {
	b, ok := Lookup(cfg.Backend)
	if !ok {
		return nil, UnknownBackendError(cfg.Backend)
	}
	base := NewWithPoller(k, p, b.Open(k, p), cfg)
	base.backend = b
	base.owned = true
	return base, nil
}

// NewWithPoller constructs a Base over a caller-supplied poller. The caller
// retains ownership: Close tears down the base's events but leaves the poller
// open.
func NewWithPoller(k *simkernel.Kernel, p *simkernel.Proc, poller core.Poller, cfg Config) *Base {
	b := &Base{
		P:       p,
		cfg:     cfg,
		pollers: []core.Poller{poller},
	}
	b.onWaitFn = b.onWait
	b.dispatchFn = b.dispatchBatch
	b.dispatchDoneFn = b.dispatchDone
	return b
}

// eventFor returns the I/O or signal event registered on fd.
func (b *Base) eventFor(fd int) (*Event, bool) {
	if fd >= 0 {
		ev := b.evs.Get(fd)
		return ev, ev != nil
	}
	ev, ok := b.evNeg[fd]
	return ev, ok
}

// setEvent registers ev as fd's event.
func (b *Base) setEvent(fd int, ev *Event) {
	if fd >= 0 {
		b.evs.Set(fd, ev)
	} else {
		if b.evNeg == nil {
			b.evNeg = make(map[int]*Event)
		}
		b.evNeg[fd] = ev
	}
	b.evCount++
}

// clearEvent removes fd's event registration.
func (b *Base) clearEvent(fd int) {
	if fd >= 0 {
		if p := b.evs.At(fd); p != nil && *p != nil {
			*p = nil
			b.evCount--
		}
	} else if _, ok := b.evNeg[fd]; ok {
		delete(b.evNeg, fd)
		b.evCount--
	}
}

// eachEvent visits every registered fd event (in no particular order).
func (b *Base) eachEvent(fn func(ev *Event)) {
	for fd := 0; fd < b.evs.Len(); fd++ {
		if ev := b.evs.Get(fd); ev != nil {
			fn(ev)
		}
	}
	for _, ev := range b.evNeg {
		fn(ev)
	}
}

// Backend returns the registry metadata for a Base built by New; for
// NewWithPoller bases it returns a zero Backend with only Name filled from the
// poller.
func (b *Base) Backend() Backend {
	if b.backend.Open != nil {
		return b.backend
	}
	return Backend{Name: b.Poller().Name()}
}

// Poller returns the active wait target.
func (b *Base) Poller() core.Poller { return b.pollers[b.active] }

// AttachPoller registers an additional mechanism with the base. With
// Config.MirrorInterest set, subsequent Adds and Dels apply to it too; either
// way it becomes a valid argument to Activate. Attach pollers before adding
// events: existing interests are not copied retroactively.
func (b *Base) AttachPoller(p core.Poller) {
	b.pollers = append(b.pollers, p)
}

// Activate makes p — the current poller or one previously attached — the wait
// target for subsequent dispatch iterations. With reregister set, every
// pending I/O event's interest is added to p first (skipping descriptors p
// already tracks), in event-creation order: phhttpd's rebuild-the-pollfd-array
// handoff. Without it the caller warrants that p's interest set is already
// current (the hybrid server's mirrored sets).
func (b *Base) Activate(p core.Poller, reregister bool) error {
	idx := -1
	for i, attached := range b.pollers {
		if attached == p {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("eventlib: Activate of a poller that was never attached")
	}
	if reregister {
		for _, ev := range b.eventsInOrder() {
			if ev.what&EvSignal != 0 || !ev.added {
				continue
			}
			if fd := ev.FD(); !p.Interested(fd) {
				_ = p.Add(fd, ev.interestMask())
			}
		}
	}
	b.active = idx
	return nil
}

// Iterations reports completed dispatch iterations (the servers' former
// per-loop counters).
func (b *Base) Iterations() int64 { return b.iterations }

// NumEvents reports how many events are currently added (pending I/O, signal
// and timer events alike).
func (b *Base) NumEvents() int {
	n := b.evCount + b.timers.Len()
	// Timers that are also in the fd table (I/O events with timeouts) must not
	// be double-counted.
	b.eachEvent(func(ev *Event) {
		if ev.armed {
			n--
		}
	})
	return n
}

// eventsInOrder returns the fd-mapped events sorted by creation sequence, the
// deterministic order used for re-registration.
func (b *Base) eventsInOrder() []*Event {
	out := make([]*Event, 0, b.evCount)
	b.eachEvent(func(ev *Event) { out = append(out, ev) })
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// NewEvent creates an event handle for fd with the given conditions and
// callback. The event is not armed until Add. At most one I/O event may exist
// per descriptor (the Poller interface registers one interest per fd); adding
// a second event for the same descriptor is an error reported by Add, not
// here, so handles can be prepared freely.
//
// Events created with EvSignal (or a negative fd, which implies it) are
// dispatched by descriptor match alone and never touch the poller's interest
// set.
func (b *Base) NewEvent(fd int, what What, cb Callback) *Event {
	if fd < 0 {
		what |= EvSignal
	}
	ev := b.alloc()
	*ev = Event{base: b, fd: int32(fd), what: what, cb: cb, seq: b.nextSeq}
	return ev
}

// NewTimer creates a pure timer event: no descriptor, fired only by its
// timeout. what may include EvPersist for a periodic timer.
func (b *Base) NewTimer(what What, cb Callback) *Event {
	ev := b.alloc()
	*ev = Event{base: b, fd: -1, what: (what & EvPersist) | EvTimeout | EvSignal, timerOnly: true, cb: cb, seq: b.nextSeq}
	return ev
}

// alloc takes the next creation sequence number and an event record: a
// released one when the free list has any, a fresh one from the slab
// otherwise. The caller overwrites every field.
func (b *Base) alloc() *Event {
	b.nextSeq++
	if n := len(b.free); n > 0 {
		ev := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		return ev
	}
	return b.slab.New()
}

// Release hands a deleted event back to its base for reuse by a later
// NewEvent or NewTimer. The caller gives up the handle: it must hold no other
// reference and never touch the event again. An activation of the event still
// queued for the current drain (a Del inside the same dispatch) keeps the
// record out of the free list until the drain has passed it, so a reused
// record is never reached through a stale queue entry. Releasing a pending
// event panics.
func (ev *Event) Release() {
	if ev.added {
		panic("eventlib: Release of a pending event")
	}
	if ev.queued > 0 {
		ev.released = true
		return
	}
	ev.base.free = append(ev.base.free, ev)
}

// Dispatch starts the event loop. It returns immediately — the loop advances
// through the simulator as waits complete — and runs until Stop or Close, or
// until no events remain added. It may be restarted after it exits.
func (b *Base) Dispatch() {
	if b.running {
		panic("eventlib: Dispatch while the loop is already running")
	}
	if b.closed {
		return
	}
	b.running = true
	b.stopped = false
	b.loop()
}

// Stop halts the loop after the current iteration, leaving all events
// registered; Dispatch may be called again.
func (b *Base) Stop() { b.stopped = true }

// Close deletes every event, closes registry-owned pollers, and completes any
// in-flight wait (the poller's close aborts it, delivering an empty result, so
// a close-while-pending never strands the loop).
func (b *Base) Close() error {
	if b.closed {
		return core.ErrClosed
	}
	b.closed = true
	b.stopped = true
	for _, ev := range b.eventsInOrder() {
		_ = ev.Del()
	}
	for b.timers.Len() > 0 {
		// Pop unconditionally rather than trusting Del to remove the earliest
		// timer: Del is a no-op for events it considers not pending, and
		// relying on it for loop progress would turn Close into an infinite
		// loop the moment any such event was armed.
		ev := b.timers.PopMin()
		_ = ev.Del()
	}
	if b.owned {
		for _, p := range b.pollers {
			_ = p.Close()
		}
	}
	return nil
}

// loop performs one wait-and-dispatch iteration.
func (b *Base) loop() {
	if b.stopped || b.closed {
		b.running = false
		return
	}
	if b.evCount == 0 && b.timers.Len() == 0 {
		// Nothing can ever fire: the natural exit of event_base_dispatch.
		b.running = false
		return
	}
	b.Poller().Wait(MaxEventsPerWait, b.nextTimeout(), b.onWaitFn)
}

// nextTimeout derives the poll timeout from the armed timers: zero (never
// block) when a deadline has passed, the time to the earliest deadline
// otherwise, Forever with no timers armed.
func (b *Base) nextTimeout() core.Duration {
	min, ok := b.timers.MinDeadline()
	if !ok {
		return core.Forever
	}
	remaining := min.Sub(b.P.Now())
	if remaining < 0 {
		return 0
	}
	return remaining
}

// onWait is the poller wait completion: one dispatch batch. The events slice
// and instant travel through fields so the pre-bound batch closures carry no
// per-iteration state of their own.
func (b *Base) onWait(events []core.Event, now core.Time) {
	if b.stopped || b.closed {
		b.running = false
		return
	}
	b.iterations++
	b.pendingEvents = events
	b.pendingNow = now
	b.P.Batch(now, b.dispatchFn, b.dispatchDoneFn)
}

// dispatchBatch is the body of one dispatch iteration's batch.
func (b *Base) dispatchBatch() {
	events := b.pendingEvents
	now := b.pendingNow
	b.pendingEvents = nil
	if b.cfg.LoopCost > 0 {
		b.P.Charge(b.cfg.LoopCost)
	}
	// Readiness first, then expired timers, so a timer callback (an idle
	// sweep) observes the batch's I/O effects — the order the hand-rolled
	// server loops used.
	for _, pe := range events {
		ev, ok := b.eventFor(pe.FD)
		if !ok {
			// Stale: the event was deleted while the readiness report was
			// in flight (an RT signal for a closed connection, for
			// example). Real servers must ignore these, says the paper.
			continue
		}
		if pe.Gen != 0 && ev.gen != 0 && pe.Gen != ev.gen {
			// Stale, and worse: the descriptor number was recycled, so the
			// raw fd now names a different connection than the one this
			// report is about. Without the generation check the report
			// would fire the new event's callback — the fd-reuse aliasing
			// the paper's stale-signal warning is really about.
			continue
		}
		b.activate(ev, ev.firedWhat(pe.Ready))
	}
	for {
		ev := b.timers.PopExpired(now)
		if ev == nil {
			break
		}
		b.activate(ev, EvTimeout)
	}
	b.processActive(now)
	if b.cfg.AfterDispatch != nil {
		b.cfg.AfterDispatch(len(events), now)
	}
}

// dispatchDone runs at the dispatch batch's completion: the next iteration.
func (b *Base) dispatchDone(core.Time) {
	b.loop()
}

// activate queues ev for this iteration's drain, or folds the new conditions
// into an activation already queued.
func (b *Base) activate(ev *Event, what What) {
	if what == 0 {
		return
	}
	if ev.activeWhat != 0 {
		ev.activeWhat |= what
		return
	}
	ev.activeWhat = what
	ev.queued++
	b.activeq = append(b.activeq, ev)
}

// processActive invokes the queued callbacks in activation order and empties
// the queue. Events deleted between activation and their turn (by an earlier
// callback in the same drain) are skipped.
func (b *Base) processActive(now core.Time) {
	queue := b.activeq
	for i := 0; i < len(queue); i++ {
		ev := queue[i]
		queue[i] = nil // release the handle for the collector
		if ev.queued--; ev.queued == 0 && ev.released {
			b.free = append(b.free, ev)
			continue
		}
		if ev.activeWhat == 0 || !ev.added {
			continue // deleted (or already dispatched) since activation
		}
		what := ev.activeWhat
		ev.activeWhat = 0
		if ev.what&EvPersist == 0 {
			// One-shot: deleted before the callback runs, so the callback
			// may re-Add it.
			_ = ev.Del()
		} else if ev.timeout > 0 {
			// A persistent event's timeout re-arms on every firing,
			// whether by I/O or by expiry.
			ev.schedule(now.Add(ev.timeout))
		}
		ev.cb(ev.FD(), what, now)
	}
	b.activeq = queue[:0]
}

// Event is one registration: a descriptor (or pure timer), the conditions of
// interest, and a callback. Handles are created by Base.NewEvent /
// Base.NewTimer and armed with Add.
type Event struct {
	base     *Base
	cb       Callback
	seq      uint64
	timeout  core.Duration
	deadline core.Time

	// gen is the generation of the descriptor instance the event was armed
	// for (simkernel.FD.Gen, captured at Add). Readiness reports carrying a
	// different generation are about a previous open of the same descriptor
	// number and are dropped instead of dispatched. Zero for signal events and
	// for descriptors the process does not hold.
	gen uint64

	// fd is the watched descriptor (-1 for timers and signal events).
	// queued counts the event's entries in the active queue; released
	// marks a Release deferred until the last of them is drained.
	fd       int32
	queued   int32
	released bool

	what      What
	timerOnly bool
	added     bool
	// armed reports whether the event sits in the base's timer list.
	armed      bool
	activeWhat What
}

// FD returns the descriptor the event watches (negative for timers and signal
// events).
func (ev *Event) FD() int { return int(ev.fd) }

// Pending reports whether the event is added.
func (ev *Event) Pending() bool { return ev.added }

// interestMask translates the event's conditions into a poller interest mask.
func (ev *Event) interestMask() core.EventMask {
	var m core.EventMask
	if ev.what&EvRead != 0 {
		m |= core.POLLIN
	}
	if ev.what&EvWrite != 0 {
		m |= core.POLLOUT
	}
	return m
}

// firedWhat maps a poller readiness mask onto the conditions this event
// registered for. Error conditions activate whichever of read/write interest
// the event holds, as poll(2) reports POLLERR/POLLHUP regardless of the
// requested mask.
func (ev *Event) firedWhat(ready core.EventMask) What {
	if ev.what&EvSignal != 0 {
		return EvSignal
	}
	var w What
	if ev.what&EvRead != 0 && ready.Any(core.POLLIN|core.POLLPRI|core.POLLERR|core.POLLHUP|core.POLLNVAL) {
		w |= EvRead
	}
	if ev.what&EvWrite != 0 && ready.Any(core.POLLOUT|core.POLLERR|core.POLLHUP|core.POLLNVAL) {
		w |= EvWrite
	}
	return w
}

// Add arms the event: I/O interest is registered with the base's poller (all
// attached pollers under MirrorInterest), and a positive timeout arms a
// timer — EvTimeout fires if the conditions stay quiet that long. Zero
// (or Forever) means no timeout; pure timers require one. Re-adding a pending
// event just re-arms its timeout.
//
// Add takes effect at the next dispatch iteration: call it before Dispatch or
// from inside a callback (the loop recomputes its poll timeout after every
// batch). Arming a timer from outside the loop while a wait is already
// blocked does not shorten that wait — the new deadline is only considered
// once the wait returns.
func (ev *Event) Add(timeout core.Duration) error {
	b := ev.base
	if b.closed {
		return core.ErrClosed
	}
	if timeout == core.Forever {
		timeout = 0
	}
	if ev.timerOnly && timeout <= 0 {
		return fmt.Errorf("eventlib: a pure timer needs a positive timeout")
	}
	if !ev.added {
		fd := ev.FD()
		if ev.what&EvSignal == 0 {
			if existing, dup := b.eventFor(fd); dup && existing != ev {
				return fmt.Errorf("eventlib: descriptor %d already has an event", fd)
			}
			for _, p := range b.registrationTargets() {
				if err := p.Add(fd, ev.interestMask()); err != nil {
					return err
				}
			}
			// Bind the registration to this particular open of the descriptor
			// number, so a report still in flight for a previous open (which
			// carries the same raw fd) cannot fire this event's callback.
			ev.gen = 0
			if entry, ok := b.P.Get(fd); ok {
				ev.gen = entry.Gen
			}
			b.setEvent(fd, ev)
		} else if !ev.timerOnly {
			if existing, dup := b.eventFor(fd); dup && existing != ev {
				return fmt.Errorf("eventlib: descriptor %d already has an event", fd)
			}
			b.setEvent(fd, ev)
		}
		ev.added = true
	}
	ev.timeout = timeout
	if timeout > 0 {
		ev.schedule(b.P.Now().Add(timeout))
	} else {
		b.timers.Cancel(ev)
	}
	return nil
}

// registrationTargets returns the pollers an interest registration applies
// to: all attached pollers under MirrorInterest, the active one otherwise.
func (b *Base) registrationTargets() []core.Poller {
	if b.cfg.MirrorInterest {
		return b.pollers
	}
	return []core.Poller{b.Poller()}
}

// schedule (re)arms the event's timer for the given deadline.
func (ev *Event) schedule(deadline core.Time) {
	ev.base.timers.Schedule(ev, deadline)
}

// Del disarms the event: poller interest is removed from every attached
// poller that tracks the descriptor (covering interests left behind on a
// previously active mechanism), the timer entry is cancelled, and any queued
// activation is discarded — deleting from inside a callback guarantees the
// event will not fire afterwards. Deleting a non-pending event is a no-op.
func (ev *Event) Del() error {
	b := ev.base
	if !ev.added {
		return nil
	}
	ev.added = false
	ev.activeWhat = 0
	b.timers.Cancel(ev)
	fd := ev.FD()
	if !ev.timerOnly {
		b.clearEvent(fd)
	}
	if ev.what&EvSignal == 0 {
		for _, p := range b.pollers {
			if p.Interested(fd) {
				_ = p.Remove(fd)
			}
		}
	}
	return nil
}
