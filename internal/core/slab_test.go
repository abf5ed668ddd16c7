package core

import (
	"testing"
	"unsafe"
)

// A slab chunk fills one 8 KB size class: as many objects as fit, and at
// least one when an object is larger than that.
func TestSlabChunkFillsEightKB(t *testing.T) {
	if got := slabLen[[9]int64](); got != 113 { // 72-byte objects
		t.Errorf("72-byte objects: %d per chunk, want 113", got)
	}
	if got := slabLen[[6]int64](); got != 170 { // 48-byte objects
		t.Errorf("48-byte objects: %d per chunk, want 170", got)
	}
	if got := slabLen[[2048]int64](); got != 1 { // 16 KB objects
		t.Errorf("16 KB objects: %d per chunk, want 1", got)
	}
	if got := slabLen[struct{}](); got < 1 {
		t.Errorf("zero-size objects: %d per chunk, want at least 1", got)
	}
}

// Objects of one chunk are carved back to back, and a chunk costs one
// allocation.
func TestSlabCarvesOneChunkPerAllocation(t *testing.T) {
	n := slabLen[[9]int64]()
	allocs := testing.AllocsPerRun(10, func() {
		var s Slab[[9]int64]
		first := s.New()
		for i := 1; i < n; i++ {
			p := s.New()
			if uintptr(unsafe.Pointer(p))-uintptr(unsafe.Pointer(first)) != uintptr(i)*72 {
				t.Fatalf("object %d is not adjacent to its chunk's previous object", i)
			}
		}
	})
	if allocs != 1 {
		t.Fatalf("carving one chunk's %d objects allocated %.1f times, want 1", n, allocs)
	}
}
