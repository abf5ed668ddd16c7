package main

import (
	"fmt"
	"os"
	"time"
)

// Run counts. In a full run, the rounds interleave the workloads, so host
// drift hits every workload alike.
const (
	fullRounds    = 7
	minTimedRuns  = 3
	minProfiled   = 1000 // samples the traced runs of a workload should carry
	maxTracedRuns = 8
	minCoverage   = 0.95 // share of profiled CPU the listed buckets must cover
	churnWorkload = "churn-epoll"
	t2Workload    = "churn-epoll-t2"
)

// workloadRuns holds one workload's child results from one invocation.
type workloadRuns struct {
	name   string
	budget int
	timed  []childResult
	setup  []childResult
	// traced holds the traced children; their profiles and spans merge.
	traced []childResult
	// ref is churn-epoll's outputs at the same seed, which churn-epoll-t2
	// must reproduce exactly.
	ref *outputs
}

func newWorkloadRuns(name string) *workloadRuns {
	return &workloadRuns{name: name, budget: fullBudget}
}

// addRound runs a set-up child (when withSetup) and a timed child back to
// back between two reference runs, and returns the timed child.
func (wr *workloadRuns) addRound(h *hostClock, seed int64, withSetup bool) (childResult, error) {
	kinds := []childKind{childTimed}
	if withSetup {
		kinds = []childKind{childSetup, childTimed}
	}
	crs, err := h.run(wr.name, seed, kinds...)
	if err != nil {
		return childResult{}, err
	}
	if withSetup {
		wr.setup = append(wr.setup, crs[0])
	}
	timed := crs[len(crs)-1]
	wr.timed = append(wr.timed, timed)
	return timed, nil
}

// addTraced runs traced children until their merged profile holds
// minProfiled samples: at most 250 samples per CPU-second, a short run needs
// several.
func (wr *workloadRuns) addTraced(h *hostClock, seed int64) error {
	for len(wr.traced) < maxTracedRuns && wr.profiled().samples() < minProfiled {
		crs, err := h.run(wr.name, seed, childTraced)
		if err != nil {
			return err
		}
		wr.traced = append(wr.traced, crs...)
	}
	return nil
}

// mergedTrace sums the traced children's spans, samples and CPU time.
type mergedTrace struct {
	spans   map[string]spanStats
	buckets map[string]int64
	cpuNs   int64
}

func (m mergedTrace) samples() int64 {
	var n int64
	for _, c := range m.buckets {
		n += c
	}
	return n
}

func (wr *workloadRuns) profiled() mergedTrace {
	m := mergedTrace{spans: map[string]spanStats{}, buckets: map[string]int64{}}
	for _, c := range wr.traced {
		for layer, s := range c.Trace.Spans {
			sum := m.spans[layer]
			sum.add(s)
			m.spans[layer] = sum
		}
		for b, n := range c.Trace.Samples {
			m.buckets[b] += n
		}
		m.cpuNs += c.Trace.CPUNs
	}
	return m
}

// measure runs a workload the way one contract invocation does: rounds of a
// set-up child (skipped when tracing) and a timed child until seconds have
// passed, and with trace the traced children.
func measure(name string, seed int64, seconds int, trace bool) (*workloadRuns, error) {
	wr := newWorkloadRuns(name)
	var h hostClock
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(wr.timed) < minTimedRuns || time.Now().Before(deadline) {
		cr, err := wr.addRound(&h, seed, !trace)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "timed %s %d: wall %.4f s, cpu %.4f s, rss %.1f MB; reference %.4f s\n",
			name, len(wr.timed), cr.WallS, cr.CPUS, cr.PeakRSSMB, cr.RefWallS)
	}
	if trace {
		if err := wr.addTraced(&h, seed); err != nil {
			return nil, err
		}
	}
	return wr, nil
}

// childMetrics extract the end-to-end metrics each timed child yields;
// setup_s comes from the set-up children instead. These are the host-side
// measurements; times are scaled to the reference host (reference.go). The
// simulated end-to-end results (reply rate, latency percentiles, error share)
// are exact for a seed, so they are checked against golden.json rather than
// bounded.
var childMetrics = map[string]func(c childResult) float64{
	"wall_s":      childResult.scaledWall,
	"peak_rss_mb": func(c childResult) float64 { return c.PeakRSSMB },
}

const setupMetric = "setup_s"

func values(runs []childResult, f func(c childResult) float64) []float64 {
	out := make([]float64, len(runs))
	for i, c := range runs {
		out[i] = f(c)
	}
	return out
}

func (wr *workloadRuns) samples(f func(c childResult) float64) []float64 {
	return values(wr.timed, f)
}

// endToEnd summarises every declared end-to-end metric; set-up time is only
// present when set-up children ran.
func (wr *workloadRuns) endToEnd(defs []metricDef) map[string]summary {
	out := map[string]summary{}
	for _, d := range defs {
		if d.Name == setupMetric {
			if len(wr.setup) > 0 {
				out[d.Name] = summarize(d.Unit, values(wr.setup, childMetrics["wall_s"]))
			}
			continue
		}
		out[d.Name] = summarize(d.Unit, wr.samples(childMetrics[d.Name]))
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer computes the per-layer metrics this invocation measured: exact
// work counts and runtime counters from the untraced children, spans and
// profile shares from the traced children, and the layer suite's rows.
func (wr *workloadRuns) perLayer(layers map[string]float64) map[string]float64 {
	n := float64(wr.budget)
	out := map[string]float64{
		"runtime.allocs_per_op":      median(wr.samples(func(c childResult) float64 { return c.Allocs / n })),
		"runtime.alloc_bytes_per_op": median(wr.samples(func(c childResult) float64 { return c.AllocBytes / n })),
		"runtime.gc_cpu_frac":        median(wr.samples(func(c childResult) float64 { return c.GCCPUFrac })),
	}
	o := wr.timed[0].Out
	replies := float64(o.Replies)
	out["interest.driver_polls_per_reply"] = ratio(float64(o.DriverPolls), replies)
	out["interest.copied_in_per_reply"] = ratio(float64(o.CopiedIn), replies)
	out["interest.events_per_wait"] = ratio(float64(o.Events), float64(o.Waits))
	out["servers.loops_per_reply"] = ratio(float64(o.Loops), replies)
	out["simkernel.cpu_util"] = o.CPUUtil

	if len(wr.traced) > 0 {
		m := wr.profiled()
		ops := n * float64(len(wr.traced))
		var all spanStats
		for _, tb := range tracedBackends {
			s := m.spans[tb.layer]
			out[tb.layer+".wait_ns"] = ratio(float64(s.WaitNs), float64(s.WaitCalls))
			out[tb.layer+".ctl_ns"] = ratio(float64(s.CtlNs), float64(s.CtlCalls))
			out[tb.layer+".calls_per_op"] = float64(s.WaitCalls+s.CtlCalls) / ops
			all.add(s)
		}
		out["eventlib.handler_ns_per_wait"] = ratio(float64(all.HandlerNs), float64(all.HandlerCalls))
		out["eventlib.handler_self_ns_per_wait"] = ratio(float64(all.HandlerSelfNs), float64(all.HandlerCalls))

		// A bucket's time is its share of the samples times the CPU time
		// the traced runs used.
		total := float64(m.samples())
		nsPerOp := func(bucket string) float64 {
			return ratio(float64(m.buckets[bucket]), total) * float64(m.cpuNs) / ops
		}
		for _, l := range profileLayers {
			out[l+".self_ns_per_op"] = nsPerOp(l)
		}
		out["runtime.gc_ns_per_op"] = nsPerOp(bucketGC)
		out["runtime.other_ns_per_op"] = nsPerOp(bucketOther)
		out["profile.samples"] = total
		wall := childMetrics["wall_s"]
		out["trace.overhead_pct"] = 100 * (median(values(wr.traced, wall))/median(wr.samples(wall)) - 1)
	}
	for k, v := range layers {
		out[k] = v
	}
	return out
}

// profileCoverage is the share of profiled samples in the reported buckets
// (the listed layers, runtime.gc and runtime.other), and the largest unlisted
// package.
func profileCoverage(samples map[string]int64) (share float64, largest string) {
	listed := map[string]bool{bucketGC: true, bucketOther: true}
	for _, l := range profileLayers {
		listed[l] = true
	}
	var total, in, top int64
	for k, c := range samples {
		total += c
		if listed[k] {
			in += c
		} else if c > top {
			top, largest = c, k
		}
	}
	return ratio(float64(in), float64(total)), largest
}

// check is one pass/fail line of the output checks. A check that does not
// gate is reported but leaves the result correct and the exit status zero.
type check struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	OK       bool   `json:"ok"`
	Gating   bool   `json:"gating"`
	Detail   string `json:"detail,omitempty"`
}

// checks verifies the simulated outputs: every child of the invocation agrees,
// the books balance, the goldens match where the seed has them, and the
// traced runs equal the untraced ones. Whether churn-epoll-t2 equals
// churn-epoll is reported without gating: the shard engine orders a
// cross-lane event and a local event due at the same nanosecond differently
// from the sequential engine, so on most seeds a few thousand latencies
// differ by microseconds (README.md, "Thread-count equality").
func (wr *workloadRuns) checks(goldens goldenFile, seed int64) []check {
	var out []check
	gating := true
	add := func(name string, ok bool, format string, args ...any) {
		c := check{Workload: wr.name, Name: name, OK: ok, Gating: gating}
		if !ok {
			c.Detail = fmt.Sprintf(format, args...)
		}
		out = append(out, c)
	}
	o := wr.timed[0].Out
	add("deterministic", allGive(wr.timed, o), "timed children of one seed disagree")
	add("books", o.Issued > 0 && o.Completed+o.Errors == o.Issued && o.LatencyCount == int64(o.Replies),
		"issued %d, completed %d, errors %d, latency samples %d for %d replies",
		o.Issued, o.Completed, o.Errors, o.LatencyCount, o.Replies)
	if g, ok := goldens.lookup(wr.name, seed); ok {
		add(fmt.Sprintf("golden(seed %d)", seed), o.golden() == g, "got %+v, want %+v", o.golden(), g)
	}
	if len(wr.traced) > 0 {
		add("traced equals untraced", allGive(wr.traced, o), "a traced child's outputs differ from %+v", o)
	}
	if wr.ref != nil {
		add("runs on 2 threads", wr.timed[0].Threads == 2, "ran on %d", wr.timed[0].Threads)
		gating = false
		add("equals "+churnWorkload, o == *wr.ref, "p50 %v vs %v ms, p99 %v vs %v ms, p999 %v vs %v ms",
			o.P50Ms, wr.ref.P50Ms, o.P99Ms, wr.ref.P99Ms, o.P999Ms, wr.ref.P999Ms)
	}
	return out
}

// allGive reports whether every child produced the outputs o.
func allGive(runs []childResult, o outputs) bool {
	for _, c := range runs {
		if c.Out != o {
			return false
		}
	}
	return true
}

// allOK reports whether every gating check passed.
func allOK(checks []check) bool {
	for _, c := range checks {
		if c.Gating && !c.OK {
			return false
		}
	}
	return true
}
