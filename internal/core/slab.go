package core

// slabChunk is the number of objects carved from one slab chunk. A chunk stays
// reachable while any object in it is, so one long-lived object can pin up to
// slabChunk-1 dead neighbours; a small chunk keeps that cost small while still
// cutting allocations by nearly the full factor.
const slabChunk = 32

// Slab hands out objects carved from chunks of slabChunk elements, so state
// that a long-lived population pins (one record per held connection) costs
// the host one allocation per chunk instead of one per object. It never takes
// objects back: owners keep their own free lists in front of it for records
// they recycle. The zero value is ready to use. A Slab has exactly one writer
// (on a sharded run, the lane that owns it); it is not safe for concurrent use.
type Slab[T any] struct {
	rest []T // the unissued tail of the current chunk
}

// New returns a pointer to a zeroed T, starting a fresh chunk when the current
// one is spent.
func (s *Slab[T]) New() *T {
	if len(s.rest) == 0 {
		s.rest = make([]T, slabChunk)
	}
	p := &s.rest[0]
	s.rest = s.rest[1:]
	return p
}
