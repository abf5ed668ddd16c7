package core

import (
	"math/rand"
	"testing"
)

// A Paged table reads and writes like a flat slice grown with GrowTo: seeded
// random steps set, clear (store the zero value) and read indices across the
// first page's doublings and across page boundaries, and after every step
// the table agrees with the reference on every index, one past its length
// and at negative indices.
func TestPagedMatchesFlatSlice(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tb Paged[int]
		var ref []int
		// Small indices first, so the first page doubles step by step; then
		// the span widens past the first page and across page boundaries.
		for step := 0; step < 3000; step++ {
			span := 8 << min(step/100, 13)
			i := rng.Intn(span)
			if step%7 == 6 && len(ref) > 0 {
				i = pageLen*rng.Intn(len(ref)/pageLen+1) - 1 + rng.Intn(3) // near a page boundary
				i = max(i, 0)
			}
			switch rng.Intn(3) {
			case 0:
				v := rng.Intn(1000) + 1
				tb.Set(i, v)
				ref = GrowTo(ref, i)
				ref[i] = v
			case 1: // clear
				if p := tb.At(i); p != nil {
					*p = 0
				}
				if i < len(ref) {
					ref[i] = 0
				}
			default:
				if got, want := tb.Get(i), refGet(ref, i); got != want {
					t.Fatalf("seed %d step %d: Get(%d) = %d, want %d", seed, step, i, got, want)
				}
			}
			if step%97 == 0 || step == 2999 {
				checkPaged(t, &tb, ref)
			}
		}
		if tb.Len() <= 3*pageLen {
			t.Fatalf("seed %d: the walk reached only %d indices, want several pages", seed, tb.Len())
		}
	}
}

func refGet(ref []int, i int) int {
	if i < 0 || i >= len(ref) {
		return 0
	}
	return ref[i]
}

// checkPaged compares every index of tb with ref: indices past ref's length
// but within tb's read as zero, and At is nil exactly outside [0, Len()).
func checkPaged(t *testing.T, tb *Paged[int], ref []int) {
	t.Helper()
	if tb.Len() < len(ref) {
		t.Fatalf("Len() = %d, below the reference length %d", tb.Len(), len(ref))
	}
	for i := -1; i <= tb.Len(); i++ {
		want := refGet(ref, i)
		if got := tb.Get(i); got != want {
			t.Fatalf("Get(%d) = %d, want %d (Len %d)", i, got, want, tb.Len())
		}
		inside := i >= 0 && i < tb.Len()
		if p := tb.At(i); (p != nil) != inside || (p != nil && *p != want) {
			t.Fatalf("At(%d) = %v, want inside=%v value %d (Len %d)", i, p, inside, want, tb.Len())
		}
	}
}

// A table that fits in its first page has the capacity GrowTo gives a slice
// grown through the same indices, and the first page stops at pageLen; past
// it, the length is whole pages.
func TestPagedFirstPageMatchesGrowTo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var tb Paged[*int]
		var ref []*int
		for n := rng.Intn(40); n >= 0; n-- {
			i := rng.Intn(pageLen)
			if rng.Intn(4) == 0 {
				i = rng.Intn(64)
			}
			tb.Set(i, nil)
			ref = GrowTo(ref, i)
			if want := min(cap(ref), pageLen); tb.Len() != want {
				t.Fatalf("trial %d: after index %d, Len() = %d, want %d (GrowTo's capacity %d)", trial, i, tb.Len(), want, cap(ref))
			}
		}
	}
	var tb Paged[byte]
	tb.Set(pageLen, 1)
	if tb.Len() != 2*pageLen {
		t.Fatalf("one index past the first page: Len() = %d, want %d", tb.Len(), 2*pageLen)
	}
	tb.Set(5*pageLen+3, 1)
	if tb.Len() != 6*pageLen {
		t.Fatalf("index 5 pages in: Len() = %d, want %d", tb.Len(), 6*pageLen)
	}
}

// Once the first page is full, growth moves nothing: a pointer taken before
// the table adds pages still addresses the element the table reads.
func TestPagedAddressesStable(t *testing.T) {
	var tb Paged[int]
	var held []*int
	for i := 0; i < 40*pageLen; i += 97 {
		tb.Set(i, i+1)
		p := tb.At(i)
		if i >= pageLen || tb.Len() == pageLen {
			held = append(held, p)
		}
	}
	for _, p := range held {
		v := *p - 1
		if tb.At(v) != p {
			t.Fatalf("element %d moved after the table grew to %d", v, tb.Len())
		}
	}
	if len(held) < 100 {
		t.Fatalf("held only %d pointers", len(held))
	}
}

// Within its length a table allocates nothing: reads, writes and pointers.
func TestPagedNoAllocWithinLength(t *testing.T) {
	var tb Paged[*int]
	x := new(int)
	tb.Set(3*pageLen+5, nil)
	allocs := testing.AllocsPerRun(10, func() {
		for _, i := range []int{0, 7, pageLen - 1, pageLen, 2*pageLen + 9, 3*pageLen + 5, tb.Len() - 1} {
			tb.Set(i, x)
			if tb.Get(i) != x || *tb.At(i) != x {
				panic("paged table lost a write")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations within the table's length, want 0", allocs)
	}
}
