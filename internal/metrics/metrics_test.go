package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Count != 8 || !almost(s.Mean, 5) || !almost(s.StdDev, 2) || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.Mean != 0 || empty.StdDev != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Label: "devpoll"}
	s.Append(500, 499)
	s.Append(600, 597)
	s.Append(700, 650)
	if len(s.X) != 3 || len(s.Y) != 3 {
		t.Fatalf("series holds %d x and %d y values, want 3", len(s.X), len(s.Y))
	}
	if y, ok := s.YAt(600); !ok || y != 597 {
		t.Fatalf("YAt = %v %v", y, ok)
	}
	if _, ok := s.YAt(9999); ok {
		t.Fatal("YAt of missing x succeeded")
	}
}

// Property: the summary's min/max bound the mean, and stddev is zero iff all
// samples are equal.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		allEqual := true
		for i, v := range raw {
			samples[i] = float64(v)
			if v != raw[0] {
				allEqual = false
			}
		}
		s := Summarize(samples)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		if allEqual && s.StdDev > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Percentiles summarises the histogram: its count, the quantiles QuantileMs
// gives at 0.5, 0.9, 0.99 and 0.999, and the exact maximum; an empty
// histogram summarises to the zero value.
func TestPercentiles(t *testing.T) {
	var h LatencyHist
	if got := h.Percentiles(); got != (LatencyPercentiles{}) {
		t.Fatalf("empty histogram: %+v, want the zero summary", got)
	}
	for _, ms := range []int{7, 1, 10, 4, 3, 9, 2, 8, 6, 5} {
		h.Observe(core.Duration(ms) * core.Millisecond)
	}
	want := LatencyPercentiles{Count: 10, P50: h.QuantileMs(0.5), P90: h.QuantileMs(0.9),
		P99: h.QuantileMs(0.99), P999: h.QuantileMs(0.999), Max: 10}
	if got := h.Percentiles(); got != want {
		t.Fatalf("Percentiles = %+v, want %+v", got, want)
	}
}

// The histogram's percentiles are the figures' only latency quantiles, so
// each must lie within the layout's bound of the sorted samples' value at
// the same rank, ⌈q·n⌉: within 1/32 of it above 32 µs and within 1 µs
// below (an observation keeps whole microseconds), with the count and the
// maximum exact. The inputs mix random, duplicate-heavy, sorted, single and
// two-sample sets.
func TestPercentilesMatchSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]core.Duration, 10001)
	for i := range random {
		random[i] = core.Duration(rng.ExpFloat64() * float64(40*core.Millisecond))
	}
	dups := make([]core.Duration, 5000)
	for i := range dups {
		dups[i] = core.Duration(rng.Intn(4)) * core.Millisecond
	}
	sortedRun := make([]core.Duration, 999)
	for i := range sortedRun {
		sortedRun[i] = core.Duration(i/3) * 10 * core.Microsecond
	}
	for name, in := range map[string][]core.Duration{
		"random": random, "duplicates": dups, "single": {3500 * core.Microsecond},
		"sorted": sortedRun, "pair": {2 * core.Millisecond, core.Millisecond},
	} {
		var h LatencyHist
		us := make([]int64, len(in))
		for i, d := range in {
			h.Observe(d)
			us[i] = int64(d / core.Microsecond)
		}
		slices.Sort(us)
		p := h.Percentiles()
		for _, c := range []struct{ q, got float64 }{{0.5, p.P50}, {0.9, p.P90}, {0.99, p.P99}, {0.999, p.P999}} {
			ref := float64(us[int(math.Ceil(c.q*float64(len(us))))-1])
			if diff := math.Abs(c.got*1000 - ref); diff > max(ref/histSubs, 1)+1e-9 {
				t.Errorf("%s p%v: %v ms, sorted reference %v µs", name, 100*c.q, c.got, ref)
			}
		}
		if p.Count != int64(len(us)) || p.Max != float64(us[len(us)-1])/1000 {
			t.Errorf("%s: count %d max %v ms, want %d and %v µs", name, p.Count, p.Max, len(us), us[len(us)-1])
		}
	}
}

// Property: the histogram's quantiles are monotone in q and bounded by the
// observed extremes.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var h LatencyHist
		for _, v := range raw {
			h.Observe(core.Duration(v) * core.Microsecond)
		}
		q1, q2 := float64(a%101)/100, float64(b%101)/100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := h.QuantileMs(q1), h.QuantileMs(q2)
		return v1 <= v2 && v1 >= h.MinMs() && v2 <= h.MaxMs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
