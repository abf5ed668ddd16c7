// Package simkernel provides the discrete-event simulation substrate on which
// the reproduction runs: a virtual clock and event queue, a simulated
// uniprocessor CPU with a calibrated cost model, and a lightweight process
// model (file-descriptor table, readiness watchers, wait queues) that the
// network simulator and the event-notification mechanisms plug into.
//
// There is one event engine. A simulator runs as a single lane (virtual
// clock plus event queue); a sharded run (shard.go) splits the pending set
// across several such lanes executed in parallel, and a sequential run is
// simply the 1-lane case. A lane's queue is a 4-ary heap beside a few sorted
// FIFO runs, so the time-ordered streams that make up most of a run (same-
// instant work, fixed-delay timeouts, launch schedules) never sift through
// the heap; Q.AtEach feeds a whole launch schedule one instant at a time.
//
// The real paper measured a Linux 2.2.14 kernel on a 400 MHz AMD K6-2. A Go
// library cannot reproduce that kernel interface directly, so this package
// reproduces the thing the evaluation actually depends on: where CPU time goes
// on a saturated uniprocessor as the interest set grows. See DESIGN.md §2.
package simkernel

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
)

// event is a scheduled callback in the simulation. Events are stored by value
// inside the lane queues — no per-schedule allocation, no interface
// boxing — because scheduling is the hottest operation in the whole system
// (every syscall batch, every network segment and every timer goes through
// it). Only the callback closure itself may allocate, at the caller's site.
type event struct {
	key
	fn func(now core.Time)
}

// key is an event's place in the queue ordering: time first, then insertion
// order, so the simulation is deterministic. Sequence numbers are unique,
// which makes the order total.
type key struct {
	at  core.Time
	seq uint64
}

// before reports whether k orders before o.
func (k key) before(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// lane is one event queue with its own virtual clock: the whole pending set
// of a sequential run, or one shard of a sharded run (see shard.go). The
// pending set is split between a hand-rolled inline-value 4-ary min-heap and
// a small fixed set of sorted FIFO runs, all ordered by (at, seq). Most of a
// simulation's events arrive as interleaved streams that are each already in
// time order — same-instant completions, fixed-delay client timeouts,
// constant-RTT segment deliveries, a launch series — so an event is appended
// to the run whose last event is the latest one still (at, seq)-before it,
// and only an event no run can take sifts through the heap. Pop takes the
// (at, seq) minimum over the heap root and the run heads. Every structure
// reuses its backing storage across the run, so steady-state scheduling
// performs no allocation. Because (at, seq) keys are unique, any exact
// priority queue over them pops the same order: the split changes what a
// schedule costs the host, never the order events fire in.
type shardLane struct {
	idx int
	now core.Time
	seq uint64

	// heap is the 4-ary min-heap (children of i at 4i+1..4i+4). A 4-ary
	// layout halves the tree depth of a binary heap and keeps sibling
	// comparisons inside one or two cache lines of the inline event values.
	heap []event

	// runs are the sorted FIFO runs; see push. head and tail cache the keys
	// of each live run's first pending and last event, and bit i of live is
	// set exactly when run i is non-empty, so push's best-fit search and
	// min's scan read one packed array over the live runs instead of eight
	// backing arrays; each push or pop touches only the run it changes.
	runs [numRuns]run
	head [numRuns]key
	tail [numRuns]key
	live uint32

	// deferred counts AtEach instants not yet queued (see series).
	deferred int

	executed int64

	next    core.Time // earliest pending instant, published at each barrier
	horizon core.Time // exclusive execution bound for the current window
}

// numRuns is the number of sorted runs beside each lane's heap. With eight,
// under 0.1% of pushes reach the heap on the benchmark workloads and at
// most 1.3% on the 10k-100k scale points (none on the push and DHT
// workloads); four sent 3.1% of churn-epoll's pushes there. Where
// interleaved streams outnumber the runs (a 4-CPU prefork lane spills 79%)
// a simulation still runs no slower than on the heap alone, but on uniformly
// random delays, where no stream is sorted, a schedule and pop cost about
// 15% more than on a bare heap. DESIGN.md §11 has the measurements.
const numRuns = 8

// allRuns is the live mask with every run non-empty.
const allRuns = 1<<numRuns - 1

// run is one sorted FIFO run: ev[head:] in ascending (at, seq) order.
type run struct {
	ev   []event
	head int
}

// compactMin is the consumed-prefix length from which a run that never
// drains (a timeout stream always has the next timeouts queued) slides its
// live events back to the front of the backing array, once they are at most
// half of it, so the array stays bounded by twice the run's live length.
const compactMin = 256

// farFuture is the sentinel "no pending event" instant and Run's effectively
// unbounded deadline.
const farFuture = core.Time(1<<62 - 1)

// at schedules fn at absolute instant t on the lane. Scheduling in the past is
// a programming error and panics, because it would break causality.
func (ln *shardLane) at(t core.Time, fn func(now core.Time)) {
	if fn == nil {
		panic("simkernel: At with nil callback")
	}
	ln.checkPast(t)
	ln.seq++
	ln.push(event{key{t, ln.seq}, fn})
}

// checkPast panics if t lies before the lane clock.
func (ln *shardLane) checkPast(t core.Time) {
	if t < ln.now {
		panic(fmt.Sprintf("simkernel: lane %d scheduling into the past (%v < %v)", ln.idx, t, ln.now))
	}
}

// push queues e: onto the run whose last event is the latest one still
// (at, seq)-before e (an empty run qualifies, as a last resort: the lowest
// numbered one), or onto the heap when every run already ends after e.
// Choosing the latest qualifying tail (best fit, as in patience sorting)
// keeps the runs with earlier tails free for events that arrive later but
// fall due sooner — a same-instant completion scheduled after a timeout, say
// — so each interleaved stream keeps a run of its own.
func (ln *shardLane) push(e event) {
	k := e.key
	best := -1
	var bestTail key
	for m := ln.live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		if t := ln.tail[i]; t.before(k) && (best < 0 || bestTail.before(t)) {
			best, bestTail = i, t
		}
	}
	if best < 0 {
		if ln.live == allRuns {
			ln.heapPush(e)
			return
		}
		best = bits.TrailingZeros32(^ln.live)
		ln.live |= 1 << best
		ln.head[best] = k
	}
	ln.tail[best] = k
	ln.runs[best].ev = append(ln.runs[best].ev, e)
}

// peekNext returns the earliest pending instant, or farFuture when empty.
func (ln *shardLane) peekNext() core.Time {
	if m, _, ok := ln.min(); ok {
		return m.at
	}
	return farFuture
}

// min locates the lane's (at, seq) minimum: the heap root or a live run's
// head. src is the run index, or -1 for the heap; ok is false on an empty
// lane.
func (ln *shardLane) min() (m key, src int, ok bool) {
	src = -1
	if len(ln.heap) > 0 {
		m, ok = ln.heap[0].key, true
	}
	for b := ln.live; b != 0; b &= b - 1 {
		i := bits.TrailingZeros32(b)
		if h := ln.head[i]; !ok || h.before(m) {
			m, src, ok = h, i, true
		}
	}
	return m, src, ok
}

// pending reports the number of scheduled, not yet executed events on the
// lane, including AtEach instants not yet queued.
func (ln *shardLane) pending() int {
	n := len(ln.heap) + ln.deferred
	for i := range ln.runs {
		n += len(ln.runs[i].ev) - ln.runs[i].head
	}
	return n
}

// pop removes and returns the lane's (at, seq) minimum if it lies at or before
// bound; otherwise (or on an empty lane) ok is false and nothing changes. The
// lane clock is the caller's to advance.
func (ln *shardLane) pop(bound core.Time) (e event, ok bool) {
	m, src, ok := ln.min()
	if !ok || m.at > bound {
		return event{}, false
	}
	if src < 0 {
		return ln.heapPop(), true
	}
	r := &ln.runs[src]
	e = r.ev[r.head]
	r.ev[r.head] = event{} // release the closure for the collector
	r.head++
	switch {
	case r.head == len(r.ev):
		// Drained: rewind so the backing array is reused.
		r.ev = r.ev[:0]
		r.head = 0
		ln.live &^= 1 << src
		return e, true
	case r.head >= compactMin && 2*r.head >= len(r.ev):
		n := copy(r.ev, r.ev[r.head:])
		clear(r.ev[n:]) // the moved events' old slots
		r.ev = r.ev[:n]
		r.head = 0
	}
	ln.head[src] = r.ev[r.head].key
	return e, true
}

// atEach schedules fn at every instant in times (see Q.AtEach).
func (ln *shardLane) atEach(times []core.Time, fn func(now core.Time)) {
	if fn == nil {
		panic("simkernel: AtEach with nil callback")
	}
	if len(times) == 0 {
		return
	}
	if !slices.IsSorted(times) {
		slices.Sort(times)
	}
	ln.checkPast(times[0])
	sr := &series{ln: ln, times: times, seq: ln.seq + 1, fn: fn}
	sr.fire = sr.step
	ln.seq += uint64(len(times))
	ln.deferred += len(times) - 1
	ln.push(event{key{times[0], sr.seq}, sr.fire})
}

// series is an AtEach schedule: sorted instants whose sequence numbers were
// reserved as one consecutive block, of which only the next is queued. Its
// events take the block's numbers in time order, so the lane pops the same
// order as with one At call per instant; only the host cost differs, since
// the rest of the series never enters the queue.
type series struct {
	ln    *shardLane
	times []core.Time
	i     int    // index of the queued instant
	seq   uint64 // sequence number of times[0]
	fn    func(now core.Time)
	fire  func(now core.Time) // step, bound once
}

// step runs one instant of the series, first queueing the next one so the
// series stays visible to the lane's minimum (and its Pending count) while
// fn executes.
func (sr *series) step(now core.Time) {
	sr.i++
	if sr.i < len(sr.times) {
		sr.ln.deferred--
		sr.ln.push(event{key{sr.times[sr.i], sr.seq + uint64(sr.i)}, sr.fire})
	} else {
		sr.times = nil
	}
	sr.fn(now)
}

// heapPush inserts e, sifting the insertion hole up (moving parents down
// rather than swapping) until the heap property holds.
func (ln *shardLane) heapPush(e event) {
	h := append(ln.heap, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].before(e.key) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	ln.heap = h
}

// heapPop removes and returns the minimum, sifting the former last element
// down from the root.
func (ln *shardLane) heapPop() event {
	h := ln.heap
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure for the collector
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if h[j].before(h[m].key) {
					m = j
				}
			}
			if last.before(h[m].key) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	ln.heap = h
	return min
}

// Simulator is a deterministic discrete-event scheduler over virtual time.
// The zero value is not usable; call NewSimulator.
//
// A simulator starts as the 1-lane engine: one lane holds every pending event
// and RunUntil is a plain loop over it, with no barriers and no goroutines.
// EnableSharding turns it into a multi-lane engine whose lane 0 is that same
// lane (see shard.go); from then on all scheduling goes through lane handles
// (LaneQ).
type Simulator struct {
	lane    shardLane
	stopped bool

	// Executed counts events dispatched since construction.
	Executed int64

	// shard is the multi-lane execution engine, nil until EnableSharding.
	shard *shardEngine
}

// NewSimulator returns an empty simulator positioned at virtual time zero.
func NewSimulator() *Simulator {
	return &Simulator{lane: shardLane{next: farFuture}}
}

// Now returns the current virtual time: the lane clock of a 1-lane run, or
// the clock a sharded run parked at when it last returned.
func (s *Simulator) Now() core.Time {
	if s.shard != nil {
		return s.shard.exitNow
	}
	return s.lane.now
}

// Pending returns the number of scheduled, not yet executed events.
func (s *Simulator) Pending() int {
	if s.shard != nil {
		n := 0
		for _, ln := range s.shard.lanes {
			n += ln.pending()
		}
		for i := range s.shard.rings {
			n += len(s.shard.rings[i].recs)
		}
		return n
	}
	return s.lane.pending()
}

// At schedules fn to run at the absolute virtual instant t. Scheduling in the
// past is a programming error and panics, because it would break causality.
// A sharded simulator refuses direct scheduling: use a LaneQ handle.
func (s *Simulator) At(t core.Time, fn func(now core.Time)) {
	if s.shard != nil {
		panic("simkernel: direct At on a sharded simulator (schedule through a LaneQ handle)")
	}
	s.lane.at(t, fn)
}

// After schedules fn to run d after the current virtual time. A negative d is
// treated as zero.
func (s *Simulator) After(d core.Duration, fn func(now core.Time)) {
	if d < 0 {
		d = 0
	}
	s.At(s.Now().Add(d), fn)
}

// Stop makes Run and RunUntil return after the currently executing event.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// the final virtual time.
func (s *Simulator) Run() core.Time { return s.RunUntil(farFuture) }

// RunUntil executes events with timestamps not after deadline, or until the
// queue drains or Stop is called. The clock is left at the time of the last
// executed event, or at deadline if it was reached with events remaining.
func (s *Simulator) RunUntil(deadline core.Time) core.Time {
	if s.shard != nil {
		return s.shard.run(deadline)
	}
	ln := &s.lane
	s.stopped = false
	for !s.stopped {
		e, ok := ln.pop(deadline)
		if !ok {
			if ln.pending() > 0 && deadline > ln.now {
				ln.now = deadline
			}
			break
		}
		ln.now = e.at
		s.Executed++
		e.fn(e.at)
	}
	return ln.now
}

// Step executes exactly one pending event, if any, and reports whether one was
// executed. It is primarily useful in tests.
func (s *Simulator) Step() bool {
	if s.shard != nil {
		panic("simkernel: Step on a sharded simulator")
	}
	e, ok := s.lane.pop(farFuture)
	if !ok {
		return false
	}
	s.lane.now = e.at
	s.Executed++
	e.fn(e.at)
	return true
}
