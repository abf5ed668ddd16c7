// Package metrics implements the measurement side of the reproduction: the
// per-interval reply-rate samples with their min/max/average/standard
// deviation, the latency histogram (LatencyHist) whose percentiles give the
// median connection time and the tail, and the time-series helpers used by
// the experiment harness.
package metrics

import (
	"fmt"
	"math"
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

// Series is a labelled (x, y) series, one per curve in a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// YAt returns the y value for the given x, if present.
func (s *Series) YAt(x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}
