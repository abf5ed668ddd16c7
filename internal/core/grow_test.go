package core

import "testing"

// GrowTo covers the index with zeroed elements and keeps the prefix, at least
// doubles the capacity when it must grow, and does not reallocate while the
// index is within the capacity.
func TestGrowHelper(t *testing.T) {
	s := GrowTo([]int(nil), 0)
	if len(s) != 1 || s[0] != 0 {
		t.Fatalf("GrowTo(nil, 0) = %v, want [0]", s)
	}
	for i := 1; i < 1000; i++ {
		s[len(s)-1] = len(s)
		before := cap(s)
		s = GrowTo(s, i)
		if len(s) != i+1 {
			t.Fatalf("GrowTo to %d: len %d, want %d", i, len(s), i+1)
		}
		if s[i] != 0 {
			t.Fatalf("GrowTo to %d: new element %d, want 0", i, s[i])
		}
		for j := 0; j < i; j++ {
			if s[j] != j+1 {
				t.Fatalf("GrowTo to %d: prefix element %d = %d, want %d", i, j, s[j], j+1)
			}
		}
		if cap(s) != before && cap(s) < 2*before {
			t.Fatalf("GrowTo to %d grew the capacity %d → %d, want at least double", i, before, cap(s))
		}
	}

	// An index far past the capacity gets exactly what it needs.
	if s := GrowTo(make([]int, 2, 4), 100); len(s) != 101 || cap(s) < 101 {
		t.Fatalf("GrowTo(len 2 cap 4, 100): len %d cap %d", len(s), cap(s))
	}

	// Within the capacity: no allocation, the same backing array, and the
	// elements past the old length are zeroed even if a shorter reslice left
	// values there.
	buf := make([]int, 8, 64)
	for i := range buf {
		buf[i] = 7
	}
	short := buf[:2]
	var grown []int
	if allocs := testing.AllocsPerRun(10, func() { grown = GrowTo(short, 40) }); allocs != 0 {
		t.Fatalf("GrowTo within capacity: %v allocations, want 0", allocs)
	}
	if &grown[0] != &buf[0] || len(grown) != 41 {
		t.Fatalf("GrowTo within capacity moved the slice or got the length wrong (len %d)", len(grown))
	}
	for j := 2; j <= 40; j++ {
		if grown[j] != 0 {
			t.Fatalf("GrowTo within capacity: element %d = %d, want 0", j, grown[j])
		}
	}
	if grown[0] != 7 || grown[1] != 7 {
		t.Fatalf("GrowTo within capacity lost the prefix: %v", grown[:2])
	}
	if s := GrowTo(buf, 3); &s[0] != &buf[0] || len(s) != 8 || s[3] != 0 {
		t.Fatalf("GrowTo on a covered index changed the slice")
	}
}
