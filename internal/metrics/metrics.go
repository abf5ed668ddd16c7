// Package metrics implements the measurement side of the reproduction: the
// per-interval reply-rate samples, min/max/average/standard deviation, median
// and percentile latencies, and error percentages that the paper's figures
// plot, plus the service-latency histogram (LatencyHist) and time-series
// helpers used by the experiment harness.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Summary describes a set of scalar samples.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes count, mean, population standard deviation, minimum and
// maximum of the samples. An empty input yields a zero Summary.
func Summarize(samples []float64) Summary {
	s := Summary{Count: len(samples)}
	if len(samples) == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	sum := 0.0
	for _, v := range samples {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(samples))
	varSum := 0.0
	for _, v := range samples {
		d := v - s.Mean
		varSum += d * d
	}
	s.StdDev = math.Sqrt(varSum / float64(len(samples)))
	return s
}

// String formats the summary the way the experiment tables print it.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%.1f max=%.1f", s.Count, s.Mean, s.StdDev, s.Min, s.Max)
}

// Percentile returns the p-th percentile (0..100) of the samples using
// nearest-rank interpolation. It returns 0 for an empty slice.
func Percentile(samples []float64, p float64) float64 { return Percentiles(samples, p)[0] }

// Percentiles returns Percentile(samples, p) for every p in ps. Each requested
// order statistic is found by selection on one copy of the samples (the
// extremes by a linear scan), so a call costs a few linear passes instead of a
// full sort; the values are exactly the ones a sorted copy would give. Ranks
// asked in ascending order, as callers do, each search only the part right of
// the previous one, which the earlier selection left holding every larger
// sample.
func Percentiles(samples []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(samples) == 0 {
		return out
	}
	var work []float64 // selection reorders; the caller's slice stays untouched
	from := 0          // work[:from] holds the from smallest samples
	for i, p := range ps {
		if p >= 100 && work != nil {
			out[i] = extreme(work[from:], true)
			continue
		}
		if p <= 0 || p >= 100 || len(samples) == 1 {
			out[i] = extreme(samples, p >= 100)
			continue
		}
		if work == nil {
			work = append([]float64(nil), samples...)
		}
		rank := p / 100 * float64(len(work)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		if lo < from {
			from = 0
		}
		v := selectRank(work[from:], lo-from)
		from = lo
		if lo == hi {
			out[i] = v
			continue
		}
		// selectRank left every element right of lo ordered at or above it,
		// so rank lo+1 is the smallest of them.
		frac := rank - float64(lo)
		out[i] = v*(1-frac) + extreme(work[hi:], false)*frac
	}
	return out
}

// sortLess is sort.Float64s's order: ascending, NaNs first. Selection uses it
// so every order statistic matches the sorted copy's element at that rank.
func sortLess(a, b float64) bool { return a < b || (a != a && b == b) }

// extreme returns the largest or smallest element of a non-empty slice under
// sortLess — the last or first element of its sorted copy.
func extreme(s []float64, largest bool) float64 {
	m := s[0]
	for _, v := range s[1:] {
		if largest && sortLess(m, v) || !largest && sortLess(v, m) {
			m = v
		}
	}
	return m
}

// selectRank reorders s so that s[k] holds the element a sort would place at
// rank k, with no element ordered above it to its left and none below it to
// its right, and returns it. It is quickselect with a median-of-three pivot
// and a three-way partition, so runs of equal samples collapse in one pass.
func selectRank(s []float64, k int) float64 {
	lo, hi := 0, len(s) // the rank-k element lies in s[lo:hi]
	for hi-lo > 1 {
		a, b, c := s[lo], s[lo+(hi-lo)/2], s[hi-1]
		if sortLess(b, a) {
			a, b = b, a
		}
		if sortLess(c, b) {
			b = c
			if sortLess(b, a) {
				b = a
			}
		}
		pivot := b
		// Dutch-flag partition: s[lo:lt] < pivot, s[lt:i] == pivot,
		// s[gt:hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := s[i]; {
			case sortLess(v, pivot):
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case sortLess(pivot, v):
				gt--
				s[gt], s[i] = v, s[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return s[k]
		}
	}
	return s[k]
}

// Median returns the 50th percentile.
func Median(samples []float64) float64 { return Percentile(samples, 50) }

// RateSampler accumulates completion events and converts them into
// per-interval rates, the way httperf samples reply rate every few seconds and
// then reports the average, standard deviation, minimum and maximum of those
// samples.
type RateSampler struct {
	interval core.Duration
	start    core.Time
	nextEdge core.Time
	current  int
	samples  []float64
	started  bool
}

// NewRateSampler creates a sampler with the given sampling interval (httperf
// uses 5 seconds).
func NewRateSampler(interval core.Duration) *RateSampler {
	if interval <= 0 {
		interval = 5 * core.Second
	}
	return &RateSampler{interval: interval}
}

// Start begins sampling at the given virtual time.
func (r *RateSampler) Start(now core.Time) {
	r.start = now
	r.nextEdge = now.Add(r.interval)
	r.started = true
	r.current = 0
	r.samples = nil
}

// Record notes one completion at the given virtual time, closing any sampling
// intervals that have elapsed since the last event.
func (r *RateSampler) Record(now core.Time) {
	if !r.started {
		r.Start(now)
	}
	r.advance(now)
	r.current++
}

// advance closes all intervals that ended at or before now.
func (r *RateSampler) advance(now core.Time) {
	for now >= r.nextEdge {
		r.samples = append(r.samples, float64(r.current)/r.interval.Seconds())
		r.current = 0
		r.nextEdge = r.nextEdge.Add(r.interval)
	}
}

// Finish closes the final partial interval at the given end time and returns
// the per-interval rate samples. Partial trailing intervals shorter than half
// the sampling interval are discarded to avoid a misleading final sample.
func (r *RateSampler) Finish(end core.Time) []float64 {
	if !r.started {
		return nil
	}
	r.advance(end)
	tail := end.Sub(r.nextEdge.Add(-r.interval))
	if tail >= r.interval/2 && r.current > 0 {
		r.samples = append(r.samples, float64(r.current)/tail.Seconds())
	}
	return r.samples
}

// Samples returns the closed samples so far.
func (r *RateSampler) Samples() []float64 { return r.samples }

// Series is a labelled (x, y) series, one per curve in a figure.
type Series struct {
	Label  string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.X) }

// YAt returns the y value for the given x, if present.
func (s *Series) YAt(x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// MaxY returns the largest y value (0 for an empty series).
func (s *Series) MaxY() float64 {
	max := 0.0
	for _, y := range s.Y {
		if y > max {
			max = y
		}
	}
	return max
}
