package interest

import "repro/internal/core"

// ledgerNode is one marked descriptor, linked in arrival order. Nodes live in
// the Ledger's arena and link by index, so marking and clearing recycle
// storage instead of allocating: the hot interrupt path (every driver
// notification lands here) performs no allocation at steady state.
type ledgerNode struct {
	fd         int32 // descriptor numbers stay far below 2^31 (the slot array indexes them)
	mask       core.EventMask
	gen        uint64
	prev, next int32
}

// none is the nil value of an arena link.
const none int32 = -1

// Ledger is the readiness side of the kernel-resident interest engine: the set
// of registered descriptors that currently have undelivered readiness, in
// arrival order. Device drivers update it once per readiness notification
// (Mark), and a mechanism's wait path scans only the marked descriptors —
// O(ready) work — instead of walking the whole interest set. Mark and Clear
// are O(1) (a dense fd-indexed slot table plus an intrusive list over a node
// arena), so hot paths never pay for the ledger's size, and recycled nodes
// make both allocation-free after warm-up.
//
// Descriptors are non-negative, as POSIX allocates them; the dense slot table
// is indexed by descriptor number directly, which PR 3's lowest-unused
// allocation keeps compact.
//
// /dev/poll uses it as the §3.2 hint backmap (a marked descriptor is one whose
// driver posted a hint since the last scan); epoll uses it as the ready list
// behind epoll_wait.
type Ledger struct {
	nodes []ledgerNode // arena; a node id is an index into it
	slot  []int32      // fd -> node id + 1; 0 = not marked
	free  []int32      // recycled node ids
	head  int32
	tail  int32
	count int
	stop  bool // set by Stop during a Scan
}

// NewLedger returns an empty readiness ledger.
func NewLedger() *Ledger {
	return &Ledger{head: none, tail: none}
}

// lookup returns the node id marked for fd, or none.
func (l *Ledger) lookup(fd int) int32 {
	if fd < 0 || fd >= len(l.slot) {
		return none
	}
	return l.slot[fd] - 1
}

// alloc returns a free node id, growing the arena if the free list is empty.
func (l *Ledger) alloc() int32 {
	if n := len(l.free); n > 0 {
		id := l.free[n-1]
		l.free = l.free[:n-1]
		return id
	}
	l.nodes = append(l.nodes, ledgerNode{})
	return int32(len(l.nodes) - 1)
}

// Mark records readiness mask for fd, OR-ing it into any mask already pending,
// and reports whether fd was newly marked. The bool lets callers charge the
// interrupt-context posting cost once per transition to ready, as the
// /dev/poll hint system does.
//
// gen is the generation of the descriptor the readiness belongs to (see
// simkernel.FD.Gen). A mark carrying a different generation than one already
// pending replaces it rather than merging: the old mark described a previous
// open of the same descriptor number, whose readiness means nothing for the
// new one. The replacement counts as a new transition.
func (l *Ledger) Mark(fd int, mask core.EventMask, gen uint64) bool {
	if id := l.lookup(fd); id >= 0 {
		n := &l.nodes[id]
		if n.gen != gen {
			n.gen = gen
			n.mask = mask
			return true
		}
		n.mask |= mask
		return false
	}
	if fd < 0 {
		panic("interest: Ledger.Mark with negative descriptor")
	}
	for fd >= len(l.slot) {
		l.slot = append(l.slot, 0)
	}
	id := l.alloc()
	l.nodes[id] = ledgerNode{fd: int32(fd), mask: mask, gen: gen, prev: l.tail, next: none}
	if l.tail == none {
		l.head, l.tail = id, id
	} else {
		l.nodes[l.tail].next = id
		l.tail = id
	}
	l.slot[fd] = id + 1
	l.count++
	return true
}

// Ready reports whether fd has undelivered readiness.
func (l *Ledger) Ready(fd int) bool { return l.lookup(fd) >= 0 }

// Clear drops any pending readiness for fd, reporting whether there was any.
func (l *Ledger) Clear(fd int) bool {
	id := l.lookup(fd)
	if id < 0 {
		return false
	}
	l.unlink(id)
	return true
}

// Len reports the number of descriptors with undelivered readiness.
func (l *Ledger) Len() int { return l.count }

// Reset empties the ledger, keeping the arena, slot table and free list so a
// reused ledger (phhttpd's recovery flush, repeated experiment runs) does not
// reallocate its storage.
func (l *Ledger) Reset() {
	l.nodes = l.nodes[:0]
	l.free = l.free[:0]
	clear(l.slot)
	l.head, l.tail = none, none
	l.count = 0
}

// Scan visits the marked descriptors in arrival order. fn returns whether the
// descriptor should stay marked: a level-triggered consumer keeps descriptors
// that remain ready, an edge-triggered one drops each mark as it is delivered.
// fn may call Stop to end the walk once the descriptor it is visiting is
// settled, so a consumer whose result buffer is full pays nothing for the
// unvisited suffix, which keeps its arrival order, masks and generations. fn
// must not call Mark or Clear during the scan.
func (l *Ledger) Scan(fn func(fd int, mask core.EventMask, gen uint64) (keep bool)) {
	l.stop = false
	for id := l.head; id != none && !l.stop; {
		n := &l.nodes[id]
		next := n.next
		if !fn(int(n.fd), n.mask, n.gen) {
			l.unlink(id)
		}
		id = next
	}
}

// Stop ends the Scan in progress after the current fn call returns. Outside
// a Scan it has no effect.
func (l *Ledger) Stop() { l.stop = true }

// unlink removes a node from the list and the slot table, recycling its id.
func (l *Ledger) unlink(id int32) {
	n := &l.nodes[id]
	if n.prev == none {
		l.head = n.next
	} else {
		l.nodes[n.prev].next = n.next
	}
	if n.next == none {
		l.tail = n.prev
	} else {
		l.nodes[n.next].prev = n.prev
	}
	l.slot[n.fd] = 0
	n.prev, n.next = none, none
	l.free = append(l.free, id)
	l.count--
}
