// Package repro's top-level benchmarks run the reproduction's figure points
// inside the discrete-event simulation (server + load generator), one
// complete point per iteration:
//
//	BenchmarkPoint/<id>                      the gated points TestBenchPointPins pins (experiments.BenchPoints)
//	BenchmarkFigure/<fig>/<curve>/<axis>=<x> every point of every figure and ablation
//	BenchmarkMechanismWaitCost               each mechanism's cost per wait as the idle set grows
//
// Alongside ns/op each point reports the reproduction's own metrics as
// custom units:
//
//	replies/s      average reply rate (what Figures 4-9 and 11-13 plot)
//	err%           failed connection percentage (Figure 10)
//	median-ms      median connection time (Figure 14)
//	p99-ms         p99 connection time (the overload figures 19+)
//	svc-p99-ms     p99 server-side service time
//	cpu%           mean per-CPU utilisation (Figure 17)
//
// Reduced-size runs are used so a sweep finishes in minutes: every figure
// point runs at -figconns (the paper used 35000 connections per point, cf.
// cmd/benchfig). A gated point runs at its own size, seed 1 on the first
// iteration: `-bench Point/<id> -benchtime 1x` times exactly the pinned run.
package repro

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/experiments"
)

var figConns = flag.Int("figconns", 2500, "benchmark connections per figure point")

// benchRun runs spec once per iteration, seeding iteration i with i+1,
// reports the last run's metrics and returns it.
func benchRun(b *testing.B, spec experiments.RunSpec) experiments.RunResult {
	b.Helper()
	var last experiments.RunResult
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i + 1)
		last = experiments.Run(spec)
	}
	b.ReportMetric(last.Load.ReplyRate.Mean, "replies/s")
	b.ReportMetric(last.Load.ErrorPercent, "err%")
	b.ReportMetric(last.Load.MedianLatencyMs, "median-ms")
	b.ReportMetric(last.Latency.P99, "p99-ms")
	b.ReportMetric(last.ServiceLatency.P99, "svc-p99-ms")
	b.ReportMetric(100*last.CPUUtilization, "cpu%")
	return last
}

// BenchmarkPoint runs the gated point table, one sub-benchmark per id.
func BenchmarkPoint(b *testing.B) {
	for _, p := range experiments.BenchPoints() {
		b.Run(p.ID, func(b *testing.B) { benchRun(b, p.Spec) })
	}
}

// BenchmarkFigure runs every point of every figure and ablation at
// -figconns, so `-bench Figure/fig08` regenerates Figure 8's points.
func BenchmarkFigure(b *testing.B) {
	for _, f := range append(experiments.Figures(), experiments.Ablations()...) {
		points, err := f.Points(experiments.SweepOptions{Connections: *figConns})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.Run(fmt.Sprintf("%s/%s/%s=%g", f.ID, p.Curve, f.Axis, p.X), func(b *testing.B) { benchRun(b, p.Spec) })
		}
	}
}

// Micro-benchmarks of the mechanisms themselves (cost per wait as the idle
// interest set grows), complementing the end-to-end figure benchmarks.
func BenchmarkMechanismWaitCost(b *testing.B) {
	for _, inactive := range []int{64, 512} {
		for _, server := range []experiments.ServerKind{
			experiments.ServerThttpdPoll,
			experiments.ServerThttpdDevPoll,
			experiments.ServerThttpdEpoll,
			experiments.ServerThttpdEpollET,
		} {
			b.Run(fmt.Sprintf("%s/idle=%d", server, inactive), func(b *testing.B) {
				last := benchRun(b, experiments.RunSpec{
					Server:      server,
					RequestRate: 300, // light load: the wait path dominates
					Inactive:    inactive,
					Connections: 600,
				})
				perWait := float64(0)
				if last.Primary.Waits > 0 {
					perWait = float64(last.Primary.DriverPolls) / float64(last.Primary.Waits)
				}
				b.ReportMetric(perWait, "driver-polls/wait")
			})
		}
	}
}
