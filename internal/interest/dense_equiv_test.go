package interest

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
)

// refTable is the hash-map reference model of the dense Table: a plain map
// plus an insertion-order list.
type refTable struct {
	entries map[int]*refEntry
	order   []int // insertion order of live fds
}

type refEntry struct {
	events core.EventMask
}

func newRefTable() *refTable {
	return &refTable{entries: map[int]*refEntry{}}
}

func (r *refTable) upsert(fd int) (*refEntry, bool) {
	if e, ok := r.entries[fd]; ok {
		return e, false
	}
	e := &refEntry{}
	r.entries[fd] = e
	r.order = append(r.order, fd)
	return e, true
}

func (r *refTable) delete(fd int) bool {
	if _, ok := r.entries[fd]; !ok {
		return false
	}
	delete(r.entries, fd)
	for i, n := range r.order {
		if n == fd {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

// refLedger is the map-based reference model of the dense Ledger.
type refLedger struct {
	nodes map[int]*refNode
	order []int // arrival order of marked fds
}

type refNode struct {
	mask core.EventMask
	gen  uint64
}

func newRefLedger() *refLedger { return &refLedger{nodes: map[int]*refNode{}} }

func (r *refLedger) mark(fd int, mask core.EventMask, gen uint64) bool {
	if n, ok := r.nodes[fd]; ok {
		if n.gen != gen {
			n.gen = gen
			n.mask = mask
			return true
		}
		n.mask |= mask
		return false
	}
	r.nodes[fd] = &refNode{mask: mask, gen: gen}
	r.order = append(r.order, fd)
	return true
}

func (r *refLedger) clear(fd int) bool {
	if _, ok := r.nodes[fd]; !ok {
		return false
	}
	delete(r.nodes, fd)
	for i, n := range r.order {
		if n == fd {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

// TestDenseTableMatchesMapModel drives randomized install/set/delete
// sequences — with heavy fd reuse, as POSIX lowest-unused allocation
// produces — through the dense Table and the map reference, comparing
// membership, masks and insertion order after every step.
func TestDenseTableMatchesMapModel(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		dense := NewTable()
		ref := newRefTable()
		const fdSpace = 40 // small: forces constant reuse
		for step := 0; step < 2000; step++ {
			fd := rng.Intn(fdSpace)
			switch rng.Intn(4) {
			case 0, 1: // Set (upsert + mask)
				mask := core.EventMask(rng.Intn(8))
				gotNew := dense.Set(fd, mask)
				e, wantNew := ref.upsert(fd)
				e.events = mask
				if gotNew != wantNew {
					t.Fatalf("trial %d step %d: Set(%d) new=%v, reference %v", trial, step, fd, gotNew, wantNew)
				}
			case 2: // Upsert alone: a fresh entry's mask is zero, an existing one keeps its own
				_, gotNew := dense.Upsert(fd)
				_, wantNew := ref.upsert(fd)
				if gotNew != wantNew {
					t.Fatalf("trial %d step %d: Upsert(%d) new=%v, reference %v", trial, step, fd, gotNew, wantNew)
				}
			case 3: // Delete
				got := dense.Delete(fd)
				want := ref.delete(fd)
				if got != want {
					t.Fatalf("trial %d step %d: Delete(%d)=%v, reference %v", trial, step, fd, got, want)
				}
			}

			if dense.Len() != len(ref.entries) {
				t.Fatalf("trial %d step %d: Len=%d, reference %d", trial, step, dense.Len(), len(ref.entries))
			}
			if got := dense.FDs(); !reflect.DeepEqual(got, append([]int{}, ref.order...)) {
				t.Fatalf("trial %d step %d: insertion order %v, reference %v", trial, step, got, ref.order)
			}
			for fd := 0; fd < fdSpace; fd++ {
				ge := dense.Lookup(fd)
				re, wok := ref.entries[fd]
				if gok := ge != nil; gok != wok {
					t.Fatalf("trial %d step %d: Contains(%d)=%v, reference %v", trial, step, fd, gok, wok)
				}
				if ge != nil && ge.Events != re.events {
					t.Fatalf("trial %d step %d: fd %d state mismatch", trial, step, fd)
				}
			}
		}
	}
}

// TestDenseLedgerMatchesMapModel drives randomized mark/clear/scan/reset
// sequences with fd and generation reuse through the dense Ledger and the
// map reference, comparing pending state, masks, generations and scan order.
func TestDenseLedgerMatchesMapModel(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial + 100)))
		dense := NewLedger()
		ref := newRefLedger()
		const fdSpace = 32
		for step := 0; step < 2000; step++ {
			fd := rng.Intn(fdSpace)
			switch rng.Intn(5) {
			case 0, 1: // Mark, occasionally with a new generation (fd reuse)
				mask := core.EventMask(1 << rng.Intn(3))
				gen := uint64(rng.Intn(3) + 1)
				got := dense.Mark(fd, mask, gen)
				want := ref.mark(fd, mask, gen)
				if got != want {
					t.Fatalf("trial %d step %d: Mark(%d,gen=%d)=%v, reference %v", trial, step, fd, gen, got, want)
				}
			case 2: // Clear
				got := dense.Clear(fd)
				want := ref.clear(fd)
				if got != want {
					t.Fatalf("trial %d step %d: Clear(%d)=%v, reference %v", trial, step, fd, got, want)
				}
			case 3: // Scan, randomly keeping or dropping (edge/level consumers)
				drop := rng.Intn(2) == 0
				var scanned []int
				dense.Scan(func(fd int, mask core.EventMask, gen uint64) bool {
					scanned = append(scanned, fd)
					return !drop
				})
				if !reflect.DeepEqual(scanned, append([]int{}, ref.order...)) && !(len(scanned) == 0 && len(ref.order) == 0) {
					t.Fatalf("trial %d step %d: scan order %v, reference %v", trial, step, scanned, ref.order)
				}
				if drop {
					ref.nodes = map[int]*refNode{}
					ref.order = nil
				}
			case 4: // Reset, rarely
				if rng.Intn(10) == 0 {
					dense.Reset()
					ref.nodes = map[int]*refNode{}
					ref.order = nil
				}
			}

			if dense.Len() != len(ref.nodes) {
				t.Fatalf("trial %d step %d: Len=%d, reference %d", trial, step, dense.Len(), len(ref.nodes))
			}
			for fd := 0; fd < fdSpace; fd++ {
				if dense.Ready(fd) != (ref.nodes[fd] != nil) {
					t.Fatalf("trial %d step %d: Ready(%d) mismatch", trial, step, fd)
				}
				if n := ref.nodes[fd]; n != nil {
					if pendingOf(dense, fd).mask != n.mask || pendingOf(dense, fd).gen != n.gen {
						t.Fatalf("trial %d step %d: fd %d mask/gen mismatch: %v/%d vs %v/%d",
							trial, step, fd, pendingOf(dense, fd).mask, pendingOf(dense, fd).gen, n.mask, n.gen)
					}
				}
			}
		}
	}
}

// TestDenseLedgerResetThenReuse marks, clears and scans a random subset of a
// small descriptor space, resets the ledger and reuses the same numbers, as
// phhttpd's recovery flush and repeated runs do. After each Reset no
// descriptor is ready and every first Mark is a new transition; after each
// round the scan order, masks and generations match the map reference, so no
// link or mark of a previous round survives into the next.
func TestDenseLedgerResetThenReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dense := NewLedger()
	const fdSpace = 24
	for round := 0; round < 200; round++ {
		ref := newRefLedger()
		for step := 0; step < 40; step++ {
			fd := rng.Intn(fdSpace)
			if rng.Intn(4) == 0 {
				if got, want := dense.Clear(fd), ref.clear(fd); got != want {
					t.Fatalf("round %d step %d: Clear(%d)=%v, reference %v", round, step, fd, got, want)
				}
				continue
			}
			mask := core.EventMask(1 << rng.Intn(3))
			gen := uint64(round*4 + rng.Intn(2))
			if got, want := dense.Mark(fd, mask, gen), ref.mark(fd, mask, gen); got != want {
				t.Fatalf("round %d step %d: Mark(%d,gen=%d)=%v, reference %v", round, step, fd, gen, got, want)
			}
		}
		var scanned []int
		dense.Scan(func(fd int, mask core.EventMask, gen uint64) bool {
			if n := ref.nodes[fd]; n == nil || n.mask != mask || n.gen != gen {
				t.Fatalf("round %d: scan visits fd %d mask %v gen %d, reference %+v", round, fd, mask, gen, n)
			}
			scanned = append(scanned, fd)
			return true
		})
		if !slices.Equal(scanned, ref.order) || dense.Len() != len(ref.order) {
			t.Fatalf("round %d: scan order %v (Len %d), reference %v", round, scanned, dense.Len(), ref.order)
		}

		dense.Reset()
		if dense.Len() != 0 {
			t.Fatalf("round %d: Len %d after Reset", round, dense.Len())
		}
		for fd := 0; fd < fdSpace; fd++ {
			if dense.Ready(fd) || dense.Clear(fd) {
				t.Fatalf("round %d: fd %d still marked after Reset", round, fd)
			}
		}
		dense.Scan(func(fd int, _ core.EventMask, _ uint64) bool {
			t.Fatalf("round %d: scan after Reset visits fd %d", round, fd)
			return true
		})
	}
}
