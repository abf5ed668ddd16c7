package httpcore

import (
	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/simkernel"
)

// ServeConfig customises how a Handler is wired onto an eventlib.Base. The
// zero value serves the plain thttpd shape: every readable connection goes
// through HandleReadable and idle sweeping follows Handler.IdleTimeout.
type ServeConfig struct {
	// Read handles readability on one connection; nil selects
	// Handler.HandleReadable. phhttpd wraps it with its per-connection
	// bookkeeping charge.
	Read func(now core.Time, fd int)
	// Accept, when non-nil, replaces the whole listener-readable callback:
	// the prefork server's single-acceptor mode drains the queue with
	// AcceptDetach and hands connections to sibling workers instead of
	// installing them locally. AfterAccept is not invoked for it.
	Accept func(now core.Time)
	// AfterAccept, when non-nil, runs after each accept burst with the new
	// descriptors. Edge-style backends (RT signals) must read each freshly
	// accepted connection once here, since request data that arrived before
	// registration produces no completion event.
	AfterAccept func(now core.Time, fds []int)
	// SweepInterval is the period of the idle-sweep timer (thttpd's one-second
	// timer granularity). Zero selects one second. The timer is only armed
	// when Handler.IdleTimeout is positive.
	SweepInterval core.Duration
}

// EventLoop is a Handler bound to an eventlib.Base: the listener's accept
// event, one persistent read event per open connection, and the idle-sweep
// timer. It replaces the readiness-iteration and timeout loops the servers
// used to hand-roll — they now consume only eventlib callbacks.
type EventLoop struct {
	h    *Handler
	base *eventlib.Base
	cfg  ServeConfig
	lfd  *simkernel.FD

	accept *eventlib.Event
	sweep  *eventlib.Event
	conns  core.Paged[*eventlib.Event] // fd-indexed; nil = no event registered

	// connReadyFn is connReady bound once, so registering a connection's
	// event does not build a fresh method value per connection.
	connReadyFn eventlib.Callback

	// resume / resumeQ / resumeSpare implement pipeline-budget continuations: a
	// zero-delay one-shot timer drains the deferred descriptors in arrival
	// order on the next dispatch, so one deep pipeline yields to the rest of
	// the current batch without stalling its own remaining requests.
	resume      *eventlib.Event
	resumeQ     []int
	resumeSpare []int

	// acceptRetry / acceptBackoff implement paced accept backoff: when an
	// accept pass stalls (EMFILE, or an injected EAGAIN that may have left the
	// queue non-empty on an edge-triggered backend), a one-shot timer retries
	// the drain after an exponentially growing delay instead of spinning. A
	// pass that accepts connections resets the pace.
	acceptRetry   *eventlib.Event
	acceptBackoff core.Duration
}

// Accept-backoff pacing bounds: the first retry after a stall comes quickly,
// then the pace halves the poll rate each barren pass up to the cap. The floor
// is far above the parallel engine's lookahead, so retry timing is identical
// at every thread count.
const (
	minAcceptBackoff = core.Millisecond
	maxAcceptBackoff = 64 * core.Millisecond
)

// Attach wires the handler onto base: it registers a persistent accept event
// on the listener, installs OnConnOpen/OnConnClose so each accepted
// connection gets a persistent read event (deleted again on close), and arms
// the periodic idle-sweep timer. A nil lfd wires a loop with no listener —
// a prefork worker that only adopts connections accepted by a sibling — with
// everything but the accept event intact. It must be called from inside a
// process batch, like every other socket operation; the caller then starts
// base.Dispatch once the batch completes.
func (h *Handler) Attach(base *eventlib.Base, lfd *simkernel.FD, cfg ServeConfig) *EventLoop {
	if cfg.Read == nil {
		cfg.Read = h.HandleReadable
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = core.Second
	}
	loop := &EventLoop{h: h, base: base, cfg: cfg, lfd: lfd}
	loop.connReadyFn = loop.connReady

	if lfd != nil {
		loop.accept = base.NewEvent(lfd.Num, eventlib.EvRead|eventlib.EvPersist, loop.onAcceptable)
		if err := loop.accept.Add(0); err != nil {
			panic("httpcore: registering the listener: " + err.Error())
		}
	}

	h.OnConnOpen = loop.openConn
	h.OnConnClose = loop.closeConn
	h.OnWriteBlocked = loop.blockOnWrite
	h.OnWriteDrained = loop.drainedConn
	h.OnDeferred = loop.deferConn
	h.OnAcceptStall = loop.stallAccept
	if h.K.Faults.FDLimit > 0 {
		// Survive EMFILE: hold one descriptor in reserve so the accept queue
		// can always be drained (see Handler.shedOverLimit).
		h.ArmReserve()
	}

	if h.IdleTimeout > 0 {
		loop.sweep = base.NewTimer(eventlib.EvPersist, func(_ int, _ eventlib.What, now core.Time) {
			h.SweepIdle(now)
		})
		if err := loop.sweep.Add(cfg.SweepInterval); err != nil {
			panic("httpcore: arming the sweep timer: " + err.Error())
		}
	}
	return loop
}

// ConnEvent returns the read event registered for a connection (tests).
func (l *EventLoop) ConnEvent(fd int) *eventlib.Event { return l.conns.Get(fd) }

// onAcceptable is the listener callback: drain the accept queue, then let the
// server perform its post-accept work (the edge-style immediate read).
func (l *EventLoop) onAcceptable(_ int, _ eventlib.What, now core.Time) {
	if l.cfg.Accept != nil {
		l.cfg.Accept(now)
		return
	}
	fds := l.h.AcceptAll(now, l.lfd)
	if len(fds) > 0 {
		// Progress: the next accept stall starts pacing from the floor again.
		l.acceptBackoff = 0
	}
	if l.cfg.AfterAccept != nil && len(fds) > 0 {
		l.cfg.AfterAccept(now, fds)
	}
}

// stallAccept arms the paced accept-retry timer (Handler.OnAcceptStall): the
// accept pass ended with the queue possibly non-empty and no notification
// guaranteed to follow. Exponential pacing keeps a sustained stall (EMFILE
// with no headroom) from degenerating into a poll spin.
func (l *EventLoop) stallAccept() {
	if l.lfd == nil {
		return
	}
	if l.acceptRetry == nil {
		l.acceptRetry = l.base.NewTimer(0, l.onAcceptRetry)
	}
	if l.acceptRetry.Pending() {
		return
	}
	if l.acceptBackoff < minAcceptBackoff {
		l.acceptBackoff = minAcceptBackoff
	}
	_ = l.acceptRetry.Add(l.acceptBackoff)
	l.h.Stats.AcceptBackoffs++
	l.acceptBackoff *= 2
	if l.acceptBackoff > maxAcceptBackoff {
		l.acceptBackoff = maxAcceptBackoff
	}
}

// onAcceptRetry re-runs the accept drain when the backoff timer fires.
func (l *EventLoop) onAcceptRetry(_ int, _ eventlib.What, now core.Time) {
	l.onAcceptable(0, 0, now)
}

// connReady is the shared per-connection callback. Write readiness is served
// first — draining a blocked response may close the connection, after which
// the read branch finds no state and does nothing.
func (l *EventLoop) connReady(fd int, what eventlib.What, now core.Time) {
	if what.Has(eventlib.EvWrite) {
		l.h.HandleWritable(now, fd)
	}
	if what.Has(eventlib.EvRead) {
		l.cfg.Read(now, fd)
	}
}

// openConn registers a persistent read event, with no timeout, for a freshly
// accepted connection.
func (l *EventLoop) openConn(fd int) {
	ev := l.base.NewEvent(fd, eventlib.EvRead|eventlib.EvPersist, l.connReadyFn)
	l.conns.Set(fd, ev)
	_ = ev.Add(0)
}

// blockOnWrite upgrades a connection's event to read+write interest: the
// handler's response jammed against the peer's receive window, and only a
// writability event (the window update) can resume it. The base allows one
// event per descriptor, so the read event is replaced rather than augmented —
// the same re-registration a real server performs with epoll_ctl(MOD).
func (l *EventLoop) blockOnWrite(fd int) {
	ev := l.ConnEvent(fd)
	if ev == nil {
		return
	}
	_ = ev.Del()
	ev.Release()
	nev := l.base.NewEvent(fd, eventlib.EvRead|eventlib.EvWrite|eventlib.EvPersist, l.connReadyFn)
	l.conns.Set(fd, nev)
	_ = nev.Add(0)
}

// drainedConn is blockOnWrite's inverse: the parked response finished and the
// persistent connection stays open, so the descriptor downgrades back to
// read-only interest (epoll_ctl(MOD) in a real server).
func (l *EventLoop) drainedConn(fd int) {
	ev := l.ConnEvent(fd)
	if ev == nil {
		return
	}
	_ = ev.Del()
	ev.Release()
	nev := l.base.NewEvent(fd, eventlib.EvRead|eventlib.EvPersist, l.connReadyFn)
	l.conns.Set(fd, nev)
	_ = nev.Add(0)
}

// deferConn queues fd's remaining pipelined requests for the next dispatch
// and arms the resume timer if it is not already pending.
func (l *EventLoop) deferConn(fd int) {
	l.resumeQ = append(l.resumeQ, fd)
	if l.resume == nil {
		l.resume = l.base.NewTimer(0, l.onResume)
	}
	if !l.resume.Pending() {
		_ = l.resume.Add(1) // minimal positive delay: the very next tick
	}
}

// onResume continues every deferred pipeline. The queue is swapped out first:
// a continuation that again exhausts its budget re-defers onto a fresh queue
// (and re-arms the one-shot timer) instead of extending the slice being
// walked.
func (l *EventLoop) onResume(_ int, _ eventlib.What, now core.Time) {
	q := l.resumeQ
	l.resumeQ = l.resumeSpare[:0]
	for _, fd := range q {
		l.h.Continue(now, fd)
	}
	l.resumeSpare = q[:0]
}

// Rescan drains the accept queue and reads every open connection once, as if
// each had just reported readable. Servers on transition-driven backends call
// it after a lost notification (an RT-signal queue overflow): activity the
// dropped signals announced produces no further transitions, so only an
// explicit scan rediscovers it. The AfterAccept hook is deliberately skipped —
// freshly accepted connections are read by the sweep below, and reading them
// twice would inflate the recovery's simulated cost.
func (l *EventLoop) Rescan(now core.Time) {
	if l.lfd != nil {
		l.h.AcceptAll(now, l.lfd)
	}
	for _, fd := range l.h.OpenConns() {
		// A lost writability transition (window update) is recovered the same
		// way as lost readability: retry the blocked write, then read. The
		// write may close the connection; HandleWritable and the read handler
		// both ignore unknown descriptors.
		l.h.HandleWritable(now, fd)
		l.cfg.Read(now, fd)
	}
}

// closeConn deletes the connection's event and releases it to the base for
// the next connection; a pending activation in the current dispatch batch is
// discarded by eventlib's Del semantics.
func (l *EventLoop) closeConn(fd int) {
	if ev := l.ConnEvent(fd); ev != nil {
		l.conns.Set(fd, nil)
		_ = ev.Del()
		ev.Release()
	}
}
