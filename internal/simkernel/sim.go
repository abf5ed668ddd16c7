// Package simkernel provides the discrete-event simulation substrate on which
// the reproduction runs: a virtual clock and event queue, a simulated
// uniprocessor CPU with a calibrated cost model, and a lightweight process
// model (file-descriptor table, readiness watchers, wait queues) that the
// network simulator and the event-notification mechanisms plug into.
//
// There is one event engine. A simulator runs as a single lane (virtual
// clock plus event queue); a sharded run (shard.go) splits the pending set
// across several such lanes executed in parallel, and a sequential run is
// simply the 1-lane case.
//
// The real paper measured a Linux 2.2.14 kernel on a 400 MHz AMD K6-2. A Go
// library cannot reproduce that kernel interface directly, so this package
// reproduces the thing the evaluation actually depends on: where CPU time goes
// on a saturated uniprocessor as the interest set grows. See DESIGN.md §2.
package simkernel

import (
	"fmt"

	"repro/internal/core"
)

// event is a scheduled callback in the simulation. Events are stored by value
// inside the lane queues — no per-schedule allocation, no interface
// boxing — because scheduling is the hottest operation in the whole system
// (every syscall batch, every network segment and every timer goes through
// it). Only the callback closure itself may allocate, at the caller's site.
type event struct {
	at  core.Time
	seq uint64
	fn  func(now core.Time)
}

// eventBefore is the queue ordering: time first, then insertion order, so the
// simulation is deterministic. Sequence numbers are unique, which makes the
// order total.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// lane is one event queue with its own virtual clock: the whole pending set
// of a sequential run, or one shard of a sharded run (see shard.go). The
// pending set is split between a hand-rolled inline-value 4-ary min-heap
// (ordered by (at, seq)) and a same-instant FIFO ring: events scheduled for
// exactly the lane's current instant — batch completions on an idle CPU,
// immediate wakeups, deferred effects — skip the heap entirely. Both
// structures reuse their backing storage across the run, so steady-state
// scheduling performs no allocation at all. Pop order is the (at, seq)
// minimum across both, bit-identical to a single binary heap.
type shardLane struct {
	idx int
	now core.Time
	seq uint64

	// heap is the 4-ary min-heap (children of i at 4i+1..4i+4). A 4-ary
	// layout halves the tree depth of a binary heap and keeps sibling
	// comparisons inside one or two cache lines of the inline event values.
	heap []event

	// nowq is the same-instant fast path: a FIFO ring (head index into a
	// reused slice) of events whose scheduled time equalled the lane's clock
	// at schedule time. The clock only moves forward and sequence numbers
	// only grow, so the ring is always sorted by (at, seq) and its head is a
	// valid candidate for the lane minimum.
	nowq     []event
	nowqHead int

	executed int64

	next    core.Time // earliest pending instant, published at each barrier
	horizon core.Time // exclusive execution bound for the current window
}

// farFuture is the sentinel "no pending event" instant and Run's effectively
// unbounded deadline.
const farFuture = core.Time(1<<62 - 1)

// at schedules fn at absolute instant t on the lane. Scheduling in the past is
// a programming error and panics, because it would break causality.
func (ln *shardLane) at(t core.Time, fn func(now core.Time)) {
	if fn == nil {
		panic("simkernel: At with nil callback")
	}
	if t < ln.now {
		panic(fmt.Sprintf("simkernel: lane %d scheduling into the past (%v < %v)", ln.idx, t, ln.now))
	}
	ln.seq++
	if t == ln.now {
		ln.nowq = append(ln.nowq, event{at: t, seq: ln.seq, fn: fn})
		return
	}
	ln.heapPush(event{at: t, seq: ln.seq, fn: fn})
}

// peekNext returns the earliest pending instant, or farFuture when empty.
func (ln *shardLane) peekNext() core.Time {
	t := farFuture
	if len(ln.heap) > 0 {
		t = ln.heap[0].at
	}
	if ln.nowqHead < len(ln.nowq) && ln.nowq[ln.nowqHead].at < t {
		t = ln.nowq[ln.nowqHead].at
	}
	return t
}

// pending reports the number of queued events on the lane.
func (ln *shardLane) pending() int { return len(ln.heap) + len(ln.nowq) - ln.nowqHead }

// pop removes and returns the lane's (at, seq) minimum if it lies at or before
// bound; otherwise (or on an empty lane) ok is false and nothing changes. The
// lane clock is the caller's to advance.
func (ln *shardLane) pop(bound core.Time) (e event, ok bool) {
	useNowq := ln.nowqHead < len(ln.nowq)
	if len(ln.heap) > 0 {
		if !useNowq || eventBefore(&ln.heap[0], &ln.nowq[ln.nowqHead]) {
			if ln.heap[0].at > bound {
				return event{}, false
			}
			return ln.heapPop(), true
		}
	}
	if !useNowq {
		return event{}, false
	}
	head := &ln.nowq[ln.nowqHead]
	if head.at > bound {
		return event{}, false
	}
	e = *head
	*head = event{} // release the closure for the collector
	ln.nowqHead++
	if ln.nowqHead == len(ln.nowq) {
		// Drained: rewind the ring so the backing array is reused.
		ln.nowq = ln.nowq[:0]
		ln.nowqHead = 0
	}
	return e, true
}

// heapPush inserts e, sifting the insertion hole up (moving parents down
// rather than swapping) until the heap property holds.
func (ln *shardLane) heapPush(e event) {
	h := append(ln.heap, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if eventBefore(&h[p], &e) {
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
				if eventBefore(&h[j], &h[m]) {
					m = j
				}
			}
			if eventBefore(&last, &h[m]) {
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
