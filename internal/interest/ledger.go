package interest

import "repro/internal/core"

// ledgerNode is one descriptor's readiness state, linked in arrival order
// while marked. The ledger keeps one node per descriptor number, indexed by
// it, and links nodes by descriptor number, so marking and clearing touch
// only the nodes involved and never allocate once the table covers the
// descriptor: the hot interrupt path (every driver notification lands here)
// performs no allocation at steady state. An unmarked node's other fields are
// stale; Mark rewrites them all.
type ledgerNode struct {
	gen        uint64
	prev, next int32 // neighbours' descriptor numbers; none at either end
	mask       core.EventMask
	marked     bool
}

// none is the nil value of a link; descriptor numbers stay far below 2^31.
const none int32 = -1

// Ledger is the readiness side of the kernel-resident interest engine: the set
// of registered descriptors that currently have undelivered readiness, in
// arrival order. Device drivers update it once per readiness notification
// (Mark), and a mechanism's wait path scans only the marked descriptors —
// O(ready) work — instead of walking the whole interest set. Mark and Clear
// are O(1) (an intrusive list threaded through a dense fd-indexed node
// table), so hot paths never pay for the ledger's size, and neither allocates
// once the table covers the descriptor.
//
// Descriptors are non-negative, as POSIX allocates them; the node table is
// indexed by descriptor number directly, which the kernel's lowest-unused
// allocation keeps compact, and grows in pages (core.Paged).
//
// /dev/poll uses it as the §3.2 hint backmap (a marked descriptor is one whose
// driver posted a hint since the last scan); epoll uses it as the ready list
// behind epoll_wait.
type Ledger struct {
	nodes core.Paged[ledgerNode] // indexed by descriptor number
	head  int32
	tail  int32
	count int
	stop  bool // set by Stop during a Scan
}

// NewLedger returns an empty readiness ledger.
func NewLedger() *Ledger {
	return &Ledger{head: none, tail: none}
}

// node returns fd's node if fd is marked, else nil.
func (l *Ledger) node(fd int) *ledgerNode {
	if n := l.nodes.At(fd); n != nil && n.marked {
		return n
	}
	return nil
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
	if n := l.node(fd); n != nil {
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
	l.nodes.Set(fd, ledgerNode{gen: gen, prev: l.tail, next: none, mask: mask, marked: true})
	if l.tail == none {
		l.head = int32(fd)
	} else {
		l.nodes.At(int(l.tail)).next = int32(fd)
	}
	l.tail = int32(fd)
	l.count++
	return true
}

// Ready reports whether fd has undelivered readiness.
func (l *Ledger) Ready(fd int) bool { return l.node(fd) != nil }

// Clear drops any pending readiness for fd, reporting whether there was any.
func (l *Ledger) Clear(fd int) bool {
	if l.node(fd) == nil {
		return false
	}
	l.unlink(int32(fd))
	return true
}

// Len reports the number of descriptors with undelivered readiness.
func (l *Ledger) Len() int { return l.count }

// Reset empties the ledger, keeping the node table so a reused ledger
// (phhttpd's recovery flush, repeated experiment runs) does not reallocate
// its storage. It unmarks only the marked nodes: O(ready), like a Scan.
func (l *Ledger) Reset() {
	for fd := l.head; fd != none; {
		n := l.nodes.At(int(fd))
		fd = n.next
		n.marked = false
	}
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
	for fd := l.head; fd != none && !l.stop; {
		n := l.nodes.At(int(fd))
		next := n.next
		if !fn(int(fd), n.mask, n.gen) {
			l.unlink(fd)
		}
		fd = next
	}
}

// Stop ends the Scan in progress after the current fn call returns. Outside
// a Scan it has no effect.
func (l *Ledger) Stop() { l.stop = true }

// unlink removes fd's node from the list and unmarks it.
func (l *Ledger) unlink(fd int32) {
	n := l.nodes.At(int(fd))
	if n.prev == none {
		l.head = n.next
	} else {
		l.nodes.At(int(n.prev)).next = n.next
	}
	if n.next == none {
		l.tail = n.prev
	} else {
		l.nodes.At(int(n.next)).prev = n.prev
	}
	n.marked = false
	l.count--
}
