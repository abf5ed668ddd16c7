package metrics

import (
	"math"
	"math/rand"
	"sort"
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

func TestPercentileAndMedian(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentiles(samples, 50)[0]; !almost(got, 5.5) {
		t.Fatalf("median = %v", got)
	}
	if got := Percentiles(samples, 0)[0]; got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentiles(samples, 100)[0]; got != 10 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentiles(samples, 25)[0]; !almost(got, 3.25) {
		t.Fatalf("p25 = %v", got)
	}
	if got := Percentiles(nil, 50)[0]; got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	if got := Percentiles([]float64{42}, 75)[0]; got != 42 {
		t.Fatalf("single-sample percentile = %v", got)
	}
	// Percentiles must not mutate its input.
	unsorted := []float64{9, 1, 5}
	Percentiles(unsorted, 50)
	if unsorted[0] != 9 {
		t.Fatal("Percentiles mutated its input")
	}
}

// Percentiles answers several percentiles from one sorted copy of the
// samples, clamping p to 0..100, and leaves its input unsorted.
func TestPercentiles(t *testing.T) {
	samples := []float64{7, 1, 10, 4, 3, 9, 2, 8, 6, 5}
	want := []float64{1, 1, 3.25, 5.5, 9.1, 10, 10}
	got := Percentiles(samples, -1, 0, 25, 50, 90, 100, 150)
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Fatalf("Percentiles = %v, want %v", got, want)
		}
	}
	if samples[0] != 7 || samples[1] != 1 {
		t.Fatal("Percentiles mutated its input")
	}
	if got := Percentiles(nil, 50, 90); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty Percentiles = %v", got)
	}
}

// sortedPercentile is the sort-based reference Percentiles replaced: sort a
// copy, then read the p-th percentile off it, interpolating linearly between
// the two nearest ranks.
func sortedPercentile(samples []float64, p float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
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

// Selection must give bit-identical results to the sort-based reference on
// random input, input dominated by duplicates, and a single element, at the
// ranks the harness asks for and the two extremes.
func TestPercentilesMatchSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]float64, 10001)
	for i := range random {
		random[i] = rng.ExpFloat64() * 40
	}
	dups := make([]float64, 5000)
	for i := range dups {
		dups[i] = float64(rng.Intn(4))
	}
	sortedRun := make([]float64, 999)
	for i := range sortedRun {
		sortedRun[i] = float64(i / 3)
	}
	ps := []float64{0, 50, 90, 99.9, 100}
	for name, in := range map[string][]float64{
		"random": random, "duplicates": dups, "single": {3.5}, "sorted": sortedRun, "pair": {2, 1},
	} {
		orig := append([]float64(nil), in...)
		got := Percentiles(in, ps...)
		for i, p := range ps {
			want := sortedPercentile(orig, p)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("%s p%v: got %v, want %v", name, p, got[i], want)
			}
		}
		for i := range in {
			if in[i] != orig[i] {
				t.Fatalf("%s: Percentiles mutated its input", name)
			}
		}
	}
}

// Several ranks in one call must each equal the sorted copy's value, in any
// order the ranks are asked: ascending calls search right of the previous
// rank, and a lower rank after a higher one searches the whole copy again.
// The inputs mix ties and NaNs, which a sort places first.
func TestPercentilesManyRanksMatchSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
	}
	for trial := 0; trial < 300; trial++ {
		in := make([]float64, 1+rng.Intn(200))
		for i := range in {
			switch r := rng.Intn(10); {
			case r == 0:
				in[i] = math.NaN()
			case r < 5:
				in[i] = float64(rng.Intn(5)) // ties
			default:
				in[i] = rng.NormFloat64() * 100
			}
		}
		ps := make([]float64, 1+rng.Intn(6))
		for i := range ps {
			ps[i] = float64(rng.Intn(1101))/10 - 5 // -5..105, clamped to 0..100
		}
		if trial%2 == 0 {
			sort.Float64s(ps)
		}
		orig := append([]float64(nil), in...)
		got := Percentiles(in, ps...)
		for i, p := range ps {
			if want := sortedPercentile(orig, p); !same(got[i], want) {
				t.Fatalf("trial %d: %d samples, ranks %v: p%v = %v, want %v", trial, len(in), ps, p, got[i], want)
			}
		}
		for i := range in {
			if !same(in[i], orig[i]) {
				t.Fatalf("trial %d: Percentiles mutated its input", trial)
			}
		}
	}
}

func TestRateSampler(t *testing.T) {
	r := NewRateSampler(core.Second)
	r.Start(0)
	// 10 completions in the first second, 5 in the second, none in the third.
	for i := 0; i < 10; i++ {
		r.Record(core.Time(i) * core.Time(100*core.Millisecond))
	}
	for i := 0; i < 5; i++ {
		r.Record(core.Time(core.Second) + core.Time(i)*core.Time(100*core.Millisecond))
	}
	samples := r.Finish(core.Time(3 * core.Second))
	if len(samples) != 3 {
		t.Fatalf("samples = %v", samples)
	}
	if !almost(samples[0], 10) || !almost(samples[1], 5) || !almost(samples[2], 0) {
		t.Fatalf("samples = %v", samples)
	}
}

func TestRateSamplerAutoStartAndDefaults(t *testing.T) {
	r := NewRateSampler(0) // defaults to 5 s
	r.Record(core.Time(core.Second))
	samples := r.Finish(core.Time(6 * core.Second))
	if len(samples) != 1 || !almost(samples[0], 0.2) {
		t.Fatalf("samples = %v", samples)
	}
	if len(r.Samples()) != 1 {
		t.Fatalf("Samples = %v", r.Samples())
	}
	// Finishing an unstarted sampler yields nothing.
	if got := NewRateSampler(core.Second).Finish(core.Time(core.Second)); got != nil {
		t.Fatalf("unstarted Finish = %v", got)
	}
}

func TestRateSamplerPartialTail(t *testing.T) {
	r := NewRateSampler(core.Second)
	r.Start(0)
	r.Record(core.Time(2300 * core.Millisecond)) // falls in the third interval
	samples := r.Finish(core.Time(2900 * core.Millisecond))
	// Two full empty intervals plus a 0.9 s tail holding one completion.
	if len(samples) != 3 {
		t.Fatalf("samples = %v", samples)
	}
	if !almost(samples[2], 1/0.9) {
		t.Fatalf("tail sample = %v", samples[2])
	}
	// A very short tail is discarded.
	r2 := NewRateSampler(core.Second)
	r2.Start(0)
	r2.Record(core.Time(1100 * core.Millisecond))
	if samples := r2.Finish(core.Time(1200 * core.Millisecond)); len(samples) != 1 {
		t.Fatalf("short tail not discarded: %v", samples)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Label: "devpoll"}
	s.Append(500, 499)
	s.Append(600, 597)
	s.Append(700, 650)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
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

// Property: Percentiles is monotone in p and bounded by the sample range.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []int16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		p1 := float64(a%101) - 0
		p2 := float64(b%101) - 0
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1 := Percentiles(samples, p1)[0]
		v2 := Percentiles(samples, p2)[0]
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		return v1 <= v2+1e-9 && v1 >= sorted[0]-1e-9 && v2 <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
