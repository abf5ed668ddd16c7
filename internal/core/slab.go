package core

import "unsafe"

// slabBytes is the byte size of one slab chunk: Go's 8 KB size class, filled
// with as many objects as fit (at least one). Sizing a chunk by bytes rather
// than by object count keeps every chunk in one size class that wastes at most
// one object's bytes, whatever the object's size. A chunk stays reachable while
// any object in it is, so it suits owners that recycle their records through a
// free list, which keeps dead neighbours few.
const slabBytes = 8192

// Slab hands out objects carved from chunks of slabBytes, so state that a
// long-lived population pins (one record per held connection) costs the host
// one allocation per chunk instead of one per object. It never takes objects
// back: owners keep their own free lists in front of it for records they
// recycle. The zero value is ready to use. A Slab has exactly one writer (on a
// sharded run, the lane that owns it); it is not safe for concurrent use.
type Slab[T any] struct {
	rest []T // the unissued tail of the current chunk
}

// New returns a pointer to a zeroed T, starting a fresh chunk when the current
// one is spent.
func (s *Slab[T]) New() *T {
	if len(s.rest) == 0 {
		s.rest = make([]T, slabLen[T]())
	}
	p := &s.rest[0]
	s.rest = s.rest[1:]
	return p
}

// slabLen is the number of T carved from one chunk.
func slabLen[T any]() int {
	var zero T
	return max(1, slabBytes/max(1, int(unsafe.Sizeof(zero))))
}
