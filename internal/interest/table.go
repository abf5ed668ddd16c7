// Package interest is the shared kernel-resident interest engine behind every
// event-notification mechanism in the reproduction. The paper's central
// argument (Provos & Lever, "Scalable Network I/O in Linux", FREENIX 2000) is
// that /dev/poll and RT signals beat stock poll() because the interest set
// lives inside the kernel instead of being copied in on every call; this
// package is that kernel-resident state, factored out so the mechanisms
// (stock poll, /dev/poll, RT signals, epoll, compio) differ only in what they
// charge the cost model and how they present readiness, not in how they store
// interests, keep the core.Poller registration contract or run a blocking
// wait.
//
// It provides four pieces:
//
//   - Table: the kernel-resident interest set of §3.1, generalized with
//     insertion-order iteration so the same structure can also stand in for
//     stock poll's user-space pollfd array;
//   - Ledger: a readiness ledger recording which registered descriptors have
//     pending readiness, updated once per driver notification and scanned in
//     O(ready) rather than O(registered);
//   - Engine: the common blocking-wait state machine (first-pass fast path,
//     rescan-on-wakeup, timeout, handler dispatch at the correct virtual
//     time);
//   - Set: the core.Poller registration contract every mechanism embeds
//     (error order, watcher bookkeeping, Interested, Len, MechanismStats,
//     Close, the closed guard of Wait, the notification filter and the
//     overflow-storm draw), around one Table and one Engine.
package interest

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/simkernel"
)

// Entry is one registered interest in the kernel-resident set. Events is the
// requested interest mask; File caches the resolved descriptor-table entry
// (nil until a mechanism resolves it).
type Entry struct {
	FD     int
	Events core.EventMask
	seq    uint32 // insertion sequence, EachMarked's order key; fills Events' padding
	File   *simkernel.FD

	// prev and next link the insertion order by descriptor number, as the
	// ledger links its nodes; none at either end.
	prev, next int32
}

// Table is the kernel-resident interest set described in §3.1 of the paper.
// The paper implements it as a chained hash table ("when the average bucket
// size is two, the number of buckets in the hash table is doubled. The hash
// table is never shrunk"); this reproduction stores entries in a dense
// descriptor-indexed table instead — lowest-unused fd allocation keeps
// descriptor numbers compact, so the table is the cache-friendly,
// allocation-free equivalent. No charge depends on the bucket count, so the
// hash table's growth is not modelled.
//
// Iteration (Each, FDs, EachMarked) runs in insertion order, which
// keeps simulation runs deterministic and lets stock poll reuse the table as
// its ordered pollfd array. Deleted entries return to an internal pool, making
// Set/Upsert allocation-free at steady state; fresh entries are carved from a
// slab, so a large held interest set costs one allocation per chunk.
type Table struct {
	slots core.Paged[*Entry] // fd-indexed; nil = not registered
	head  int32
	tail  int32
	count int
	pool  []*Entry // recycled entries
	slab  core.Slab[Entry]
	seq   uint32   // last insertion sequence handed out
	marks []*Entry // EachMarked's scratch list, reused across calls
}

// NewTable returns an empty interest table.
func NewTable() *Table { return &Table{head: none, tail: none} }

// Len reports the number of registered interests.
func (t *Table) Len() int { return t.count }

// Lookup returns the entry registered for fd, or nil. The entry is owned by
// the table: it is valid until the interest is deleted.
func (t *Table) Lookup(fd int) *Entry { return t.slots.Get(fd) }

// Contains reports whether fd has a registered interest.
func (t *Table) Contains(fd int) bool { return t.Lookup(fd) != nil }

// Upsert returns the entry for fd, creating it (appended to the insertion
// order) if absent, and reports whether it was newly created.
func (t *Table) Upsert(fd int) (*Entry, bool) {
	if e := t.Lookup(fd); e != nil {
		return e, false
	}
	if fd < 0 {
		panic("interest: Table.Upsert with negative descriptor")
	}
	var e *Entry
	if n := len(t.pool); n > 0 {
		e = t.pool[n-1]
		t.pool = t.pool[:n-1]
	} else {
		e = t.slab.New()
	}
	if t.seq == math.MaxUint32 {
		t.renumber()
	}
	t.seq++
	*e = Entry{FD: fd, seq: t.seq, prev: t.tail, next: none}
	t.slots.Set(fd, e)
	if t.tail == none {
		t.head = int32(fd)
	} else {
		t.slots.Get(int(t.tail)).next = int32(fd)
	}
	t.tail = int32(fd)
	t.count++
	return e, true
}

// renumber reassigns insertion sequences 1..Len in list order, so the
// sequence counter can restart below its wrap point without reordering.
func (t *Table) renumber() {
	t.seq = 0
	t.Each(func(e *Entry) {
		t.seq++
		e.seq = t.seq
	})
}

// Set registers or replaces the interest mask for fd and reports whether the
// entry was newly created. The File of an existing entry is preserved.
func (t *Table) Set(fd int, events core.EventMask) bool {
	e, isNew := t.Upsert(fd)
	e.Events = events
	return isNew
}

// Delete removes the interest for fd, reporting whether it was present. The
// entry's storage is recycled.
func (t *Table) Delete(fd int) bool {
	e := t.Lookup(fd)
	if e == nil {
		return false
	}
	if e.prev == none {
		t.head = e.next
	} else {
		t.slots.Get(int(e.prev)).next = e.next
	}
	if e.next == none {
		t.tail = e.prev
	} else {
		t.slots.Get(int(e.next)).prev = e.prev
	}
	t.slots.Set(fd, nil)
	t.count--
	*e = Entry{}
	t.pool = append(t.pool, e)
	return true
}

// Each visits every entry in insertion order. fn must not add or remove table
// entries during the walk.
func (t *Table) Each(fn func(e *Entry)) {
	for fd := t.head; fd != none; {
		e := t.slots.Get(int(fd))
		fn(e)
		fd = e.next
	}
}

// EachMarked visits, in insertion order, the entries whose descriptors are
// marked in l, and clears the mark of every entry for which fn returns false.
// Marks on descriptors without an entry are left untouched. It lets a
// mechanism that owes a result in table order (stock poll's pollfd array,
// /dev/poll's scan) visit only the entries a ledger names. fn must not Mark or
// Clear l, nor add or remove table entries.
func (t *Table) EachMarked(l *Ledger, fn func(e *Entry) (keep bool)) {
	if l.count == 0 {
		return
	}
	marks := t.marks[:0]
	for fd := l.head; fd != none; fd = l.nodes.At(int(fd)).next {
		if e := t.Lookup(int(fd)); e != nil {
			marks = append(marks, e)
		}
	}
	slices.SortFunc(marks, func(a, b *Entry) int { return cmp.Compare(a.seq, b.seq) })
	for _, e := range marks {
		if !fn(e) {
			l.Clear(e.FD)
		}
	}
	t.marks = marks[:0]
}

// FDs returns all registered descriptors in insertion order.
func (t *Table) FDs() []int {
	out := make([]int, 0, t.count)
	t.Each(func(e *Entry) { out = append(out, e.FD) })
	return out
}
