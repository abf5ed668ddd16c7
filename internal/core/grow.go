package core

// GrowTo returns s lengthened, if need be, so that index i is in range: the
// elements it adds are zero and the prefix is kept. When i is past the
// capacity the capacity at least doubles, so a list that grows one element at
// a time copies each element a bounded number of times over its life (Go's
// append grows a large slice by about 1.25×, which on a long run copies a list
// several times its final size). Within the capacity it does not reallocate.
//
// Only loadgen's two append-only lists use it, the per-interval completion
// counts and the latency list: the result assembly reads them as flat slices
// (latencySummary reads a 1-lane run's latencies in place). Tables indexed
// by descriptor or member number use Paged, which grows without copying.
func GrowTo[S ~[]E, E any](s S, i int) S {
	n := len(s)
	if i < n {
		return s
	}
	if i >= cap(s) {
		grown := make(S, i+1, max(2*cap(s), i+1))
		copy(grown, s)
		return grown
	}
	s = s[:i+1]
	clear(s[n:])
	return s
}
