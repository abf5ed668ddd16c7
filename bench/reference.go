package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
)

// On a 2-vCPU virtual machine shared with other tenants, every process slows
// down together as the tenants come and go, by up to 2 times for seconds to
// minutes: the same child takes from 1.3 to 2.6 s. A median over a 30-second
// run cannot remove a slowdown that lasts a minute. So every child is
// bracketed by two runs of a fixed reference loop, and its wall time is
// scaled by the host speed they measured:
//
//	scaled = wall × referenceWallS / √(reference before × reference after)
//
// that is, the time the child would have taken on a host where the loop takes
// referenceWallS. The loop is the benchmark's own code and uses only the
// standard library, so no change to the program moves it. README.md ("Host
// scaling") gives the measurements behind this.

// referenceWallS defines the reference host: one on which referenceLoop takes
// this long. An unloaded 2-vCPU host of the kind above comes close.
const referenceWallS = 0.3

// referenceSteps sizes the loop to about a fifth of a timed child.
const referenceSteps = 1000000

type refEvent struct {
	at   int64
	conn int
}

type refQueue []refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

type refConn struct {
	state int
	buf   []byte
}

var referenceSink int

// referenceLoop is a fixed, seeded discrete-event loop shaped like the
// simulator's hot path: a timer heap with 4096 pending events, a map of live
// connections, and a small allocation per connection for the GC to reclaim.
func referenceLoop() {
	r := rand.New(rand.NewSource(1))
	q := &refQueue{}
	live := map[int]*refConn{}
	for i := 0; i < 4096; i++ {
		heap.Push(q, refEvent{int64(r.Intn(1 << 20)), i})
	}
	next := 4096
	for s := 0; s < referenceSteps; s++ {
		e := heap.Pop(q).(refEvent)
		c := live[e.conn]
		if c == nil {
			c = &refConn{buf: make([]byte, 64+r.Intn(192))}
			live[e.conn] = c
		}
		c.state++
		referenceSink += int(c.buf[c.state%len(c.buf)])
		if c.state > 3 {
			delete(live, e.conn)
			heap.Push(q, refEvent{e.at + int64(r.Intn(1<<16)), next})
			next++
		} else {
			heap.Push(q, refEvent{e.at + int64(r.Intn(1<<12)), e.conn})
		}
	}
}

// hostClock brackets children with reference runs, each in a fresh child
// process like the children it brackets. Consecutive brackets share a
// reference run.
type hostClock struct {
	prev float64 // wall seconds of the latest reference run; 0 before the first
}

func runReference() (float64, error) {
	cr, err := runChild(string(childReference), 0, childReference)
	if err == nil && cr.WallS <= 0 {
		err = fmt.Errorf("bench: reference run reported %v s", cr.WallS)
	}
	return cr.WallS, err
}

// run runs children of the workload, of the given kinds, back to back
// between two reference runs, and records the host speed in each.
func (h *hostClock) run(workload string, seed int64, kinds ...childKind) ([]childResult, error) {
	if h.prev == 0 {
		ref, err := runReference()
		if err != nil {
			return nil, err
		}
		h.prev = ref
	}
	out := make([]childResult, len(kinds))
	for i, kind := range kinds {
		cr, err := runChild(workload, seed, kind)
		if err != nil {
			return nil, err
		}
		out[i] = cr
	}
	next, err := runReference()
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].RefWallS = math.Sqrt(h.prev * next)
	}
	h.prev = next
	return out, nil
}
