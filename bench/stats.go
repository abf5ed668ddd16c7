package main

import (
	"math"
	"sort"
)

// summary is a metric's samples over one benchmark invocation, with the
// median and quartiles every comparison uses.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, samples []float64) summary {
	s := summary{Unit: unit, N: len(samples), Samples: samples}
	s.Median = median(samples)
	s.Q1, s.Q3 = quartiles(samples)
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		if s.Q3 == s.Q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the "exclusive" method of
// Python's statistics.quantiles(xs, n=4), so spreads printed here match a
// reader who recomputes them from the samples. With fewer than two samples
// both quartiles are the median.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Verdicts of a comparison between two result files.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// relDelta is b's change from a as a share of a, signed so that positive is
// worse in the metric's direction.
func relDelta(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if higherIsBetter {
		d = -d
	}
	return d
}

// verdict judges b against a for one metric: unresolved when either side's
// run-to-run spread exceeds the bound (the medians cannot be told apart),
// worse when b's median is worse than a's by more than the bound, ok otherwise.
func verdict(a, b summary, bound float64, higherIsBetter bool) string {
	if a.spread() > bound || b.spread() > bound {
		return verdictUnresolved
	}
	if relDelta(a.Median, b.Median, higherIsBetter) > bound {
		return verdictWorse
	}
	return verdictOK
}
