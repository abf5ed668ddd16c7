// Package metrics implements the measurement side of the reproduction: the
// per-interval reply-rate samples, min/max/average/standard deviation, median
// and percentile latencies, and error percentages that the paper's figures
// plot, plus small histogram and time-series helpers used by the experiment
// harness.
package metrics

import (
	"fmt"
	"math"
	"sort"

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

// Percentiles returns Percentile(samples, p) for every p in ps, sorting one
// copy of the samples for all of them.
func Percentiles(samples []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(samples) == 0 {
		return out
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = nearestRank(sorted, p)
	}
	return out
}

// nearestRank reads the p-th percentile off a sorted, non-empty slice,
// interpolating linearly between the two nearest ranks.
func nearestRank(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
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

// Histogram is a fixed-bucket latency histogram (milliseconds) used by the
// latency experiments and the trace tooling.
type Histogram struct {
	BucketWidth float64 // milliseconds per bucket
	counts      []int64
	total       int64
	sum         float64
}

// NewHistogram creates a histogram with the given bucket width in
// milliseconds and bucket count; samples beyond the last bucket are clamped
// into it.
func NewHistogram(bucketWidthMs float64, buckets int) *Histogram {
	if bucketWidthMs <= 0 {
		bucketWidthMs = 1
	}
	if buckets <= 0 {
		buckets = 256
	}
	return &Histogram{BucketWidth: bucketWidthMs, counts: make([]int64, buckets)}
}

// Observe records one latency.
func (h *Histogram) Observe(d core.Duration) {
	ms := d.Milliseconds()
	idx := int(ms / h.BucketWidth)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.total++
	h.sum += ms
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Mean reports the mean latency in milliseconds.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns the approximate q-th quantile (0..1) in milliseconds.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			return (float64(i) + 0.5) * h.BucketWidth
		}
	}
	return float64(len(h.counts)) * h.BucketWidth
}

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
