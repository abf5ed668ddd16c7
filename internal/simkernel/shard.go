package simkernel

// Sharded (parallel) execution engine: a conservative parallel discrete-event
// core in the Chandy–Misra–Bryant style. The pending-event set is split across
// a fixed number of lanes (shards), each with its own clock and its own split
// queue (sim.go's shardLane: inline 4-ary heap + sorted FIFO runs). Real
// goroutines execute lanes in parallel between barriers: in each epoch every
// lane first drains its inbox rings, then executes events strictly below a
// conservative horizon derived from the other lanes' earliest pending events
// plus the simulation's lookahead (the minimum cross-lane delivery latency —
// for the network simulator, half the minimum RTT).
//
// Determinism invariants (DESIGN.md §12):
//
//   - The lane count is fixed by the experiment configuration, never by the
//     worker (thread) count. Workers claim lanes dynamically, but a lane's
//     event sequence depends only on lane state, so any worker interleaving
//     executes the identical schedule.
//   - Cross-lane events travel through per-(src,dst) rings, appended in source
//     execution order and drained at the next barrier in ascending source-lane
//     order. Drained events receive destination-local sequence numbers at
//     drain time, so the merged order is pinned by (at, srcLane, postSeq) —
//     identical for every worker count.
//   - A cross-lane post must be scheduled at least `lookahead` past the
//     sender's clock (enforced by panic). Combined with the horizon rule this
//     guarantees no lane ever executes an instant that a not-yet-delivered
//     event could precede.
import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/core"
)

// Q is a scheduling handle bound to one lane of a simulator — the only lane of
// a 1-lane run, or one shard of a sharded run. All simulation code schedules
// through a Q so that the same source runs single-threaded and sharded
// without modification. A Q is a small value; copy it freely.
type Q struct {
	s    *Simulator
	lane *shardLane
}

// Now returns the lane's virtual clock. During a window a lane's clock is the
// timestamp of its currently executing event, which may differ between lanes
// by up to the lookahead window.
func (q Q) Now() core.Time { return q.lane.now }

// LaneIndex reports which lane the handle is bound to (0 when unsharded).
func (q Q) LaneIndex() int { return q.lane.idx }

// At schedules fn on this handle's lane at absolute instant t. It must only
// be called from code executing on this lane (or during setup, before the
// engine runs): lane queues are single-writer by construction. Cross-lane
// scheduling goes through Post.
func (q Q) At(t core.Time, fn func(now core.Time)) { q.lane.at(t, fn) }

// AtEach schedules fn at every instant in times on this handle's lane, firing
// in exactly the order that len(times) At calls in slice order would: the
// call reserves len(times) consecutive sequence numbers up front, so the
// series' keys interleave with every other event's as those calls' keys
// would. Only the next instant is queued at any moment, so a long launch
// schedule costs the queue one event, not one per instant; Pending still
// counts the rest. AtEach takes ownership of times and sorts it if it is not
// sorted already; instants that tie call the same fn at the same time, so
// which reserved number each one takes cannot be observed. Scheduling any
// instant in the past panics, as At does.
func (q Q) AtEach(times []core.Time, fn func(now core.Time)) { q.lane.atEach(times, fn) }

// After schedules fn d after the lane's current instant (negative d is zero).
func (q Q) After(d core.Duration, fn func(now core.Time)) {
	if d < 0 {
		d = 0
	}
	q.At(q.Now().Add(d), fn)
}

// Post schedules fn onto dst's lane at absolute instant t, from code executing
// on q's lane. Same-lane posts (every post of a 1-lane run) are ordinary At
// calls; cross-lane posts are buffered in the (src,dst) ring and become
// visible at the next barrier. t must be at least the sender's clock plus the engine's
// lookahead — the invariant that makes conservative windows safe — and the
// engine panics loudly on violations rather than corrupting the schedule.
func (q Q) Post(dst Q, t core.Time, fn func(now core.Time)) {
	if q.lane == dst.lane {
		dst.lane.at(t, fn)
		return
	}
	sh := q.s.shard
	if t < q.lane.now.Add(sh.lookahead) {
		panic(fmt.Sprintf(
			"simkernel: cross-lane post violates lookahead: t=%d < now=%d + lookahead=%d (lane %d -> %d)",
			t, q.lane.now, sh.lookahead, q.lane.idx, dst.lane.idx))
	}
	ring := &sh.rings[q.lane.idx*len(sh.lanes)+dst.lane.idx]
	ring.recs = append(ring.recs, postRec{at: t, fn: fn})
}

// postRec is one buffered cross-lane event.
type postRec struct {
	at core.Time
	fn func(now core.Time)
}

// postRing is the (src,dst) buffer, padded so that neighbouring rings' slice
// headers do not share a cache line while different source lanes append.
type postRing struct {
	recs []postRec
	_    [40]byte
}

// spinBarrier is a generation-counted spin barrier. The last goroutine to
// arrive runs the serial section (horizon computation, barrier hooks) before
// releasing the rest; the generation bump publishes the serial section's
// writes to every waiter.
type spinBarrier struct {
	n       int32
	arrived atomic.Int32
	gen     atomic.Uint64
}

func (b *spinBarrier) await(last func()) {
	g := b.gen.Load()
	if b.arrived.Add(1) == b.n {
		b.arrived.Store(0)
		if last != nil {
			last()
		}
		b.gen.Add(1)
		return
	}
	for spins := 0; b.gen.Load() == g; spins++ {
		if spins&63 == 63 {
			runtime.Gosched()
		}
	}
}

// shardEngine holds the sharded execution state hanging off a Simulator.
type shardEngine struct {
	s         *Simulator
	lanes     []*shardLane
	rings     []postRing // len lanes², indexed src*S+dst
	lookahead core.Duration
	workers   int
	hooks     []func(now core.Time)

	deadline core.Time
	exit     bool
	exitNow  core.Time

	claimDrain atomic.Int64
	claimRun   atomic.Int64
	barrier    spinBarrier
}

// EnableSharding splits the simulator into the given number of lanes executed
// by the given number of worker goroutines, with the given lookahead (the
// minimum latency of any cross-lane interaction; must be positive). It must
// be called on a fresh simulator, before any event is scheduled; the
// simulator's own lane becomes lane 0, so handles taken from LaneQ(0) earlier
// stay valid. The lane count — not the worker count — determines the
// schedule, so runs with different worker counts over the same lane count are
// bit-identical.
func (s *Simulator) EnableSharding(lanes, workers int, lookahead core.Duration) {
	if s.shard != nil {
		panic("simkernel: EnableSharding called twice")
	}
	if s.lane.now != 0 || s.lane.pending() > 0 {
		panic("simkernel: EnableSharding on a simulator already in use")
	}
	if lookahead <= 0 {
		panic("simkernel: EnableSharding requires a positive lookahead")
	}
	if lanes < 1 {
		lanes = 1
	}
	if workers < 1 {
		workers = 1
	}
	if workers > lanes {
		workers = lanes
	}
	e := &shardEngine{
		s:         s,
		lanes:     make([]*shardLane, lanes),
		rings:     make([]postRing, lanes*lanes),
		lookahead: lookahead,
		workers:   workers,
	}
	e.lanes[0] = &s.lane
	for i := 1; i < lanes; i++ {
		e.lanes[i] = &shardLane{idx: i, next: farFuture}
	}
	s.shard = e
}

// NumLanes reports the lane count (1 on an unsharded simulator).
func (s *Simulator) NumLanes() int {
	if s.shard == nil {
		return 1
	}
	return len(s.shard.lanes)
}

// Lookahead reports the configured lookahead (0 on an unsharded simulator).
func (s *Simulator) Lookahead() core.Duration {
	if s.shard == nil {
		return 0
	}
	return s.shard.lookahead
}

// LaneQ returns the scheduling handle for lane i. On an unsharded simulator
// every index returns the handle of its one lane, so callers can hold lane
// handles unconditionally.
func (s *Simulator) LaneQ(i int) Q {
	if s.shard == nil {
		return Q{s: s, lane: &s.lane}
	}
	return Q{s: s, lane: s.shard.lanes[i]}
}

// OnBarrier registers fn to run in the serial section of every barrier, after
// all lanes have quiesced and drained their inboxes. Hooks observe a globally
// consistent simulation state (this is where the load generator detects
// completion and stops the run). The argument is the earliest pending instant
// across all lanes — the virtual floor of the upcoming window. Only valid on
// a sharded simulator.
func (s *Simulator) OnBarrier(fn func(now core.Time)) {
	if s.shard == nil {
		panic("simkernel: OnBarrier requires a sharded simulator")
	}
	s.shard.hooks = append(s.shard.hooks, fn)
}

// maxLaneNow returns the maximum lane clock: the instant of the globally last
// executed event.
func (e *shardEngine) maxLaneNow() core.Time {
	var t core.Time
	for _, ln := range e.lanes {
		if ln.now > t {
			t = ln.now
		}
	}
	return t
}

// run executes the epoch loop until the deadline, Stop, or queue exhaustion,
// then folds lane counters back into the Simulator and returns the final
// clock (mirroring the 1-lane RunUntil's contract).
func (e *shardEngine) run(deadline core.Time) core.Time {
	e.deadline = deadline
	e.exit = false
	e.s.stopped = false
	e.claimDrain.Store(0)
	e.claimRun.Store(0)
	e.barrier.n = int32(e.workers)
	e.barrier.arrived.Store(0)

	done := make(chan struct{})
	for w := 1; w < e.workers; w++ {
		go func() {
			e.worker()
			done <- struct{}{}
		}()
	}
	e.worker()
	for w := 1; w < e.workers; w++ {
		<-done
	}

	var total int64
	for _, ln := range e.lanes {
		total += ln.executed
		ln.executed = 0
	}
	e.s.Executed += total
	return e.exitNow
}

// worker is one epoch-loop participant. Every epoch: drain inbox rings and
// publish each lane's earliest pending instant; barrier (the last arrival
// runs the serial coordinator: hooks, exit checks, horizon computation);
// execute lane windows; barrier again before the next drain.
func (e *shardEngine) worker() {
	nLanes := len(e.lanes)
	for {
		for {
			i := int(e.claimDrain.Add(1)) - 1
			if i >= nLanes {
				break
			}
			e.drainLane(i)
		}
		e.barrier.await(e.coordinate)
		if e.exit {
			return
		}
		for {
			i := int(e.claimRun.Add(1)) - 1
			if i >= nLanes {
				break
			}
			e.runWindow(e.lanes[i])
		}
		e.barrier.await(e.resetDrain)
	}
}

func (e *shardEngine) resetDrain() { e.claimDrain.Store(0) }

// drainLane moves lane j's inbox rings into its local queue, in ascending
// source-lane order, assigning fresh destination-local sequence numbers. This
// — not wall-clock arrival — is what pins the cross-lane merge order.
func (e *shardEngine) drainLane(j int) {
	nLanes := len(e.lanes)
	ln := e.lanes[j]
	for src := 0; src < nLanes; src++ {
		ring := &e.rings[src*nLanes+j]
		for i := range ring.recs {
			r := &ring.recs[i]
			if r.at <= ln.now {
				panic(fmt.Sprintf(
					"simkernel: drained cross-lane event at %d not after lane %d clock %d",
					r.at, j, ln.now))
			}
			ln.seq++
			ln.push(event{key{r.at, ln.seq}, r.fn})
			r.fn = nil // release the closure for the collector
		}
		ring.recs = ring.recs[:0]
	}
	ln.next = ln.peekNext()
}

// coordinate is the serial section between drain and execution: it runs the
// barrier hooks against the quiescent state, decides whether the run is over,
// and otherwise sets every lane's conservative horizon to the lookahead past
// the globally earliest pending instant. The window must include every
// lane's own minimum — not just the other lanes' — because lanes converse in
// round trips: a lane with an empty queue can still receive work from the
// current window and answer it, and that answer arrives no earlier than the
// global minimum plus the lookahead. Every event below that bound is
// therefore safe, and the lane holding the minimum always makes progress.
func (e *shardEngine) coordinate() {
	e.claimRun.Store(0)

	min1 := farFuture
	for _, ln := range e.lanes {
		if ln.next < min1 {
			min1 = ln.next
		}
	}

	floor := min1
	if floor == farFuture {
		floor = e.maxLaneNow()
	}
	if !e.s.stopped {
		for _, h := range e.hooks {
			h(floor)
		}
	}
	switch {
	case e.s.stopped:
		e.exit = true
		e.exitNow = e.maxLaneNow()
		return
	case min1 == farFuture:
		e.exit = true
		e.exitNow = e.maxLaneNow()
		return
	case min1 > e.deadline:
		e.exit = true
		e.exitNow = e.deadline
		return
	}

	h := farFuture
	if min1 < farFuture-core.Time(e.lookahead) {
		h = min1.Add(e.lookahead)
	}
	for _, ln := range e.lanes {
		ln.horizon = h
	}
}

// runWindow executes one lane's events strictly below its horizon (and not
// past the run deadline) with the 1-lane engine's pop: take the (at, seq)
// minimum, advance the lane clock, dispatch.
func (e *shardEngine) runWindow(ln *shardLane) {
	bound := ln.horizon - 1
	if e.deadline < bound {
		bound = e.deadline
	}
	for {
		ev, ok := ln.pop(bound)
		if !ok {
			return
		}
		ln.now = ev.at
		ln.executed++
		ev.fn(ev.at)
	}
}
