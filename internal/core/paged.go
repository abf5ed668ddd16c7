package core

// pageShift sets the page size of a Paged table: pageLen elements. 4096
// covers every table of a churn run (a few hundred descriptors), so those
// never leave the first page, and a 300,000-member table needs 74 pages.
const (
	pageShift = 12
	pageLen   = 1 << pageShift
	pageMask  = pageLen - 1
)

// Paged is a table indexed by descriptor or member number that grows without
// copying what it holds. Its first page grows by doubling, as GrowTo does, up
// to pageLen elements, so a table that fits in it has exactly the capacity
// GrowTo would give it. Past that the table adds pageLen-element pages and
// never moves one: the old storage never becomes garbage, and an element's
// address, once the first page is full, is stable for the table's life. The
// paper's kernel-resident interest set doubles its hash table (§3.1); that
// growth happens inside the simulated kernel, and no charge depends on how
// the host grows its tables.
//
// Every index in [0, Len()) reads as the zero value until written. An index
// inside the first page costs a slice index: one bounds check, no extra
// load. The zero value is an empty table. A Paged table has one writer; it is
// not safe for concurrent use.
type Paged[E any] struct {
	first []E // elements [0, len(first)); its array is pages[0] once full
	pages []*[pageLen]E
}

// Len reports the number of indices the table covers: the first page's
// length, or the pages' total once the table has pages.
func (t *Paged[E]) Len() int {
	if len(t.pages) > 0 {
		return len(t.pages) << pageShift
	}
	return len(t.first)
}

// Get returns element i, or the zero value when i is negative or past Len.
func (t *Paged[E]) Get(i int) E {
	if uint(i) < uint(len(t.first)) {
		return t.first[i]
	}
	if k := uint(i) >> pageShift; k < uint(len(t.pages)) {
		return t.pages[k][i&pageMask]
	}
	var zero E
	return zero
}

// At returns a pointer to element i, or nil when i is negative or past Len.
func (t *Paged[E]) At(i int) *E {
	if uint(i) < uint(len(t.first)) {
		return &t.first[i]
	}
	if k := uint(i) >> pageShift; k < uint(len(t.pages)) {
		return &t.pages[k][i&pageMask]
	}
	return nil
}

// Set stores v at index i, growing the table to cover it. i must not be
// negative.
func (t *Paged[E]) Set(i int, v E) {
	if uint(i) < uint(len(t.first)) {
		t.first[i] = v
		return
	}
	*t.grow(i) = v
}

// grow covers index i, past the first page's current length: it doubles the
// first page (at least to i+1, at most to pageLen), or fills it and adds
// whole pages up to the one holding i.
func (t *Paged[E]) grow(i int) *E {
	if i < 0 {
		panic("core: Paged index is negative")
	}
	if len(t.pages) == 0 {
		n := min(pageLen, max(2*len(t.first), i+1))
		if n > len(t.first) {
			grown := make([]E, n)
			copy(grown, t.first)
			t.first = grown
		}
		if i < pageLen {
			return &t.first[i]
		}
		t.pages = append(t.pages, (*[pageLen]E)(t.first))
	}
	for len(t.pages) <= i>>pageShift {
		t.pages = append(t.pages, new([pageLen]E))
	}
	return &t.pages[i>>pageShift][i&pageMask]
}
