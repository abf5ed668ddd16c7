package interest

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
)

func TestLedgerMarkAccumulatesAndReportsNewness(t *testing.T) {
	l := NewLedger()
	if !l.Mark(4, core.POLLIN, 1) {
		t.Fatal("first Mark should report newly marked")
	}
	if l.Mark(4, core.POLLOUT, 1) {
		t.Fatal("second Mark of same fd should not be new")
	}
	if pendingOf(l, 4).mask != core.POLLIN|core.POLLOUT {
		t.Fatalf("Mask = %v", pendingOf(l, 4).mask)
	}
	if !l.Ready(4) || l.Ready(5) || l.Len() != 1 {
		t.Fatal("Ready/Len wrong")
	}
	if !l.Clear(4) || l.Clear(4) {
		t.Fatal("Clear wrong")
	}
	if l.Len() != 0 || pendingOf(l, 4).mask != 0 {
		t.Fatal("ledger not empty after Clear")
	}
}

func TestLedgerScanOrderAndKeepSemantics(t *testing.T) {
	l := NewLedger()
	l.Mark(7, core.POLLIN, 1)
	l.Mark(3, core.POLLIN, 1)
	l.Mark(9, core.POLLOUT, 1)

	// Drop fd 3, keep the others: arrival order must be preserved.
	var visited []int
	l.Scan(func(fd int, mask core.EventMask, gen uint64) bool {
		visited = append(visited, fd)
		return fd != 3
	})
	if len(visited) != 3 || visited[0] != 7 || visited[1] != 3 || visited[2] != 9 {
		t.Fatalf("visited = %v", visited)
	}
	if l.Len() != 2 || l.Ready(3) {
		t.Fatalf("keep semantics broken: len=%d", l.Len())
	}

	visited = nil
	l.Scan(func(fd int, mask core.EventMask, gen uint64) bool {
		visited = append(visited, fd)
		return false
	})
	if len(visited) != 2 || visited[0] != 7 || visited[1] != 9 {
		t.Fatalf("second scan visited = %v", visited)
	}
	if l.Len() != 0 {
		t.Fatalf("ledger should be drained, len=%d", l.Len())
	}
}

// A scan that fn stops after k visits leaves the unvisited suffix exactly as
// it was: same arrival order, masks and generations.
func TestLedgerScanStopLeavesSuffixUntouched(t *testing.T) {
	l := NewLedger()
	order := []int{6, 2, 9, 4, 7, 1, 8}
	mask := func(fd int) core.EventMask {
		if fd%2 == 0 {
			return core.POLLIN
		}
		return core.POLLIN | core.POLLOUT
	}
	for _, fd := range order {
		l.Mark(fd, mask(fd), uint64(100+fd))
	}
	const k = 3
	calls := 0
	l.Scan(func(fd int, m core.EventMask, gen uint64) bool {
		calls++
		if calls == k {
			l.Stop()
		}
		return false
	})
	if calls != k {
		t.Fatalf("fn called %d times, want %d", calls, k)
	}
	if l.Len() != len(order)-k {
		t.Fatalf("Len = %d, want %d", l.Len(), len(order)-k)
	}
	// A Stop outside a scan does not cut the next one short.
	l.Stop()
	var rest []int
	l.Scan(func(fd int, m core.EventMask, gen uint64) bool {
		if m != mask(fd) || gen != uint64(100+fd) {
			t.Errorf("fd %d: mask %v gen %d, want %v gen %d", fd, m, gen, mask(fd), 100+fd)
		}
		rest = append(rest, fd)
		return true
	})
	if want := order[k:]; !slices.Equal(rest, want) {
		t.Fatalf("suffix = %v, want %v", rest, want)
	}
}

func TestLedgerRemarkAfterClearKeepsSingleEntry(t *testing.T) {
	l := NewLedger()
	l.Mark(1, core.POLLIN, 1)
	l.Mark(2, core.POLLIN, 1)
	l.Clear(1)
	if !l.Mark(1, core.POLLOUT, 1) {
		t.Fatal("re-mark after clear should be new")
	}
	var visited []int
	l.Scan(func(fd int, mask core.EventMask, gen uint64) bool {
		visited = append(visited, fd)
		return false
	})
	// fd 1 re-arrived after fd 2, and is visited exactly once.
	if len(visited) != 2 || visited[0] != 2 || visited[1] != 1 {
		t.Fatalf("visited = %v", visited)
	}
}

func TestLedgerReset(t *testing.T) {
	l := NewLedger()
	l.Mark(1, core.POLLIN, 1)
	l.Mark(2, core.POLLIN, 1)
	l.Reset()
	if l.Len() != 0 || l.Ready(1) {
		t.Fatal("Reset did not empty the ledger")
	}
	l.Mark(3, core.POLLIN, 1)
	if l.Len() != 1 {
		t.Fatal("ledger unusable after Reset")
	}
}

func TestLedgerMarkNewGenerationReplacesStaleMask(t *testing.T) {
	l := NewLedger()
	l.Mark(5, core.POLLIN, 1)
	// The descriptor number was recycled: readiness for generation 2 must not
	// inherit generation 1's pending mask, and counts as a fresh transition.
	if !l.Mark(5, core.POLLOUT, 2) {
		t.Fatal("mark with a new generation should report newly marked")
	}
	if pendingOf(l, 5).mask != core.POLLOUT {
		t.Fatalf("stale generation's mask leaked through: %v", pendingOf(l, 5).mask)
	}
	if pendingOf(l, 5).gen != 2 {
		t.Fatalf("Gen = %d, want 2", pendingOf(l, 5).gen)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

// A ledger node keeps its 24-byte layout: the generation, the two 32-bit
// links, and the mask and marked flag sharing the last word. The descriptor
// number is the node's index, so the node does not store it.
func TestLedgerNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(ledgerNode{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(ledgerNode{}) = %d, want 24", got)
	}
	if _, ok := reflect.TypeOf(ledgerNode{}).FieldByName("fd"); ok {
		t.Fatal("ledgerNode stores its descriptor number; its index is the number")
	}
}

// pendingOf returns the readiness node pending for fd, the zero node if none.
func pendingOf(l *Ledger, fd int) ledgerNode {
	if n := l.node(fd); n != nil {
		return *n
	}
	return ledgerNode{}
}
