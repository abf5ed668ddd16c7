package interest

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/core"
	"repro/internal/simkernel"
)

func TestTableSetGetDelete(t *testing.T) {
	tb := NewTable()
	if tb.Len() != 0 {
		t.Fatalf("fresh table: len=%d", tb.Len())
	}
	if !tb.Set(7, core.POLLIN) {
		t.Fatal("first Set should report a new entry")
	}
	if tb.Set(7, core.POLLOUT) {
		t.Fatal("second Set of same fd should report replacement")
	}
	if e := tb.Lookup(7); e == nil || e.Events != core.POLLOUT {
		t.Fatalf("Lookup(7) = %+v", e)
	}
	if tb.Lookup(8) != nil {
		t.Fatal("Lookup of missing fd succeeded")
	}
	if !tb.Contains(7) || tb.Contains(8) {
		t.Fatal("Contains wrong")
	}
	if !tb.Delete(7) {
		t.Fatal("Delete failed")
	}
	if tb.Delete(7) {
		t.Fatal("second Delete should fail")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestTableUpsertPreservesFile(t *testing.T) {
	tb := NewTable()
	e, isNew := tb.Upsert(9)
	if !isNew {
		t.Fatal("Upsert of fresh fd should be new")
	}
	file := &simkernel.FD{Num: 9}
	e.Events = core.POLLIN
	e.File = file
	if tb.Set(9, core.POLLOUT) {
		t.Fatal("Set of existing fd reported new")
	}
	got := tb.Lookup(9)
	if got == nil || got.Events != core.POLLOUT || got.File != file {
		t.Fatalf("entry after Set = %+v", got)
	}
}

func TestTableIteratesInInsertionOrder(t *testing.T) {
	tb := NewTable()
	var want []int
	for i := 0; i < 40; i++ {
		fd := (i * 13) % 97 // scattered, all distinct
		tb.Set(fd, core.POLLIN)
		want = append(want, fd)
	}
	if got := tb.FDs(); len(got) != len(want) {
		t.Fatalf("FDs = %v", got)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("insertion order broken at %d: got %v want %v", i, got, want)
			}
		}
	}
	// Deleting from the middle preserves the order of the rest.
	tb.Delete(want[3])
	want = append(want[:3], want[4:]...)
	got := tb.FDs()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order after delete broken at %d: got %v want %v", i, got, want)
		}
	}
}

func TestTableEachAndFDs(t *testing.T) {
	tb := NewTable()
	want := map[int]core.EventMask{10: core.POLLIN, 20: core.POLLOUT, 30: core.POLLIN | core.POLLOUT}
	for fd, ev := range want {
		tb.Set(fd, ev)
	}
	got := map[int]core.EventMask{}
	tb.Each(func(e *Entry) { got[e.FD] = e.Events })
	if len(got) != len(want) {
		t.Fatalf("Each visited %d entries", len(got))
	}
	for fd, ev := range want {
		if got[fd] != ev {
			t.Fatalf("fd %d: got %v want %v", fd, got[fd], ev)
		}
	}
	if fds := tb.FDs(); len(fds) != 3 {
		t.Fatalf("FDs = %v", fds)
	}
	// Iteration order is deterministic.
	first := tb.FDs()
	second := tb.FDs()
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("iteration order not deterministic")
		}
	}
}

// Property: the table behaves exactly like a map under a random sequence of
// set/delete operations.
func TestTableMatchesModelProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		model := map[int]core.EventMask{}
		ops := int(n%800) + 50
		for i := 0; i < ops; i++ {
			fd := rng.Intn(200)
			switch rng.Intn(3) {
			case 0, 1:
				ev := core.EventMask(rng.Intn(0x20))
				isNew := tb.Set(fd, ev)
				_, existed := model[fd]
				if isNew == existed {
					return false
				}
				model[fd] = ev
			case 2:
				deleted := tb.Delete(fd)
				_, existed := model[fd]
				if deleted != existed {
					return false
				}
				delete(model, fd)
			}
			if tb.Len() != len(model) {
				return false
			}
		}
		for fd, ev := range model {
			if e := tb.Lookup(fd); e == nil || e.Events != ev {
				return false
			}
		}
		visited := 0
		tb.Each(func(e *Entry) {
			visited++
			if model[e.FD] != e.Events {
				visited = -1 << 20
			}
		})
		return visited == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Entry keeps its 32-byte layout: the insertion sequence lives in the padding
// after Events, and the insertion order links by descriptor number.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Entry{}) = %d, want 32", got)
	}
}

// markedOrder returns the fds EachMarked visits, keeping the marks of the fds
// in keep and dropping the rest.
func markedOrder(tb *Table, l *Ledger, keep map[int]bool) []int {
	var got []int
	tb.EachMarked(l, func(e *Entry) bool {
		got = append(got, e.FD)
		return keep[e.FD]
	})
	return got
}

// EachMarked visits exactly the marked entries in insertion order, whether
// few or all of them are marked, and clears the marks fn drops.
func TestTableEachMarkedInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		tb := NewTable()
		l := NewLedger()
		for i := 0; i < 300; i++ {
			fd := rng.Intn(400)
			if rng.Intn(4) == 0 {
				tb.Delete(fd)
			} else {
				tb.Set(fd, core.POLLIN)
			}
		}
		share := []int{2, 50, 1000}[trial%3] // per mille marked
		keep := map[int]bool{}
		var want []int
		for _, fd := range tb.FDs() {
			if rng.Intn(1000) < share {
				want = append(want, fd)
				keep[fd] = rng.Intn(2) == 0
			}
		}
		for _, i := range rng.Perm(len(want)) {
			l.Mark(want[i], core.POLLIN, 0)
		}
		l.Mark(401, core.POLLIN, 0) // no entry: ignored, left marked
		if got := markedOrder(tb, l, keep); !slices.Equal(got, want) {
			t.Fatalf("trial %d: visited %v, want %v", trial, got, want)
		}
		for _, fd := range want {
			if l.Ready(fd) != keep[fd] {
				t.Fatalf("trial %d: fd %d marked=%v after fn returned %v", trial, fd, l.Ready(fd), keep[fd])
			}
		}
		if !l.Ready(401) {
			t.Fatalf("trial %d: mark without an entry was dropped", trial)
		}
	}
}

// When the insertion sequence wraps, the table renumbers its entries in list
// order, so EachMarked keeps insertion order across the wrap.
func TestTableSequenceWrapKeepsOrder(t *testing.T) {
	tb := NewTable()
	l := NewLedger()
	tb.seq = math.MaxUint32 - 3
	var want []int
	for i := 0; i < 120; i++ {
		fd := (i * 13) % 211
		tb.Set(fd, core.POLLIN)
		want = append(want, fd)
		if i == 10 {
			tb.Delete(want[2])
			want = append(want[:2], want[3:]...)
		}
	}
	if tb.seq >= math.MaxUint32-3 {
		t.Fatalf("sequence did not wrap: %d", tb.seq)
	}
	// Mark a few, in reverse, so EachMarked must reorder them.
	marked := []int{want[0], want[5], want[20], want[len(want)-1]}
	for i := len(marked) - 1; i >= 0; i-- {
		l.Mark(marked[i], core.POLLIN, 0)
	}
	if got := markedOrder(tb, l, nil); !slices.Equal(got, marked) {
		t.Fatalf("after wrap visited %v, want %v", got, marked)
	}
	if got := tb.FDs(); !slices.Equal(got, want) {
		t.Fatalf("after wrap FDs = %v, want %v", got, want)
	}
}
