// Command benchgate records and gates the repository's benchmark trajectory.
//
// In emit mode it runs the gated point table, experiments.BenchPoints —
// representative points of the paper's figures, the extension figures, one
// overload point per workload scenario and the scale family's
// 10k-100k-connection points, each named by the figure that draws it where
// one does — and writes one JSON entry per point: the simulated reply rate
// and p99 connection latency (bit-deterministic for a given seed and
// connection count) plus the measured wall-clock cost (ns/op, noisy) and
// heap allocation count (allocs_per_op, near-deterministic) of the run, and
// the simulated events the run executed with the wall-clock ns per event,
// which split a wall-clock move into "more events" and "slower events". In
// gate mode it compares a candidate file against the committed baseline and
// exits non-zero on regression: a reply rate more than -tolerance below the
// baseline, a p99 more than -tolerance above it, an allocation count more
// than -alloc-tolerance above it, or a ns/op more than -time-tolerance above
// it; events and ns per event are informational and never gated. The
// simulated gates are tight because those numbers only move when
// the simulation's behavior moves; the allocation gate is nearly as tight
// (the count is a property of the code path, not the machine); the
// wall-clock gate is looser, and only meaningful when baseline and candidate
// ran on the same machine — pass -time-tolerance 0 to disable it when
// comparing a committed baseline on different hardware (CI does).
//
// In cross-check mode (-crosscheck N) it instead runs every point twice —
// once sequentially and once on the sharded parallel kernel with N threads —
// and fails if any deterministic metric (reply rate, p99, error percentage)
// differs at all: the parallel engine promises bit-equal simulation results,
// so the tolerance there is exactly zero.
//
// Usage:
//
//	benchgate -emit BENCH_PR21.json         # refresh the baseline
//	benchgate -baseline BENCH_PR21.json -candidate new.json
//	benchgate -crosscheck 4                 # parallel == sequential, bit for bit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/experiments"
)

// Entry is one gated benchmark point.
type Entry struct {
	ID        string  `json:"id"`
	RepliesPS float64 `json:"replies_per_sec"`
	P99Ms     float64 `json:"p99_ms"`
	ErrPct    float64 `json:"err_pct"`
	// Threads is the kernel thread count the point actually ran with (1 for
	// the sequential engine). The simulated metrics are bit-identical across
	// thread counts — that invariant is what -crosscheck enforces — so the
	// field documents the run, it does not shift the gate.
	Threads int   `json:"threads"`
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp is the heap allocation count of one run (the minimum of
	// the timed repetitions, so one-time warmup does not inflate it). It is
	// a property of the executed code path, not of the machine, so the gate
	// holds it to a tight tolerance even in CI.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Events is the number of simulated events the run executed and
	// NsPerEvent the fastest run's ns/op divided by it. Neither is gated:
	// the count differs between the sequential and the sharded engine, and
	// ns per event is as noisy as ns/op.
	Events     int64   `json:"events"`
	NsPerEvent float64 `json:"ns_per_event"`
}

// File is the benchmark baseline schema.
type File struct {
	Schema      int     `json:"schema"`
	Connections int     `json:"connections"`
	Seed        int64   `json:"seed"`
	Entries     []Entry `json:"entries"`
}

// sized fills in a gated point's run size and seed: a point that pins no
// connection count runs at connections.
func sized(spec experiments.RunSpec, connections int, seed int64) experiments.RunSpec {
	if spec.Connections == 0 {
		spec.Connections = connections
	}
	spec.Seed = seed
	return spec
}

// emit runs every gated point and writes the baseline file.
func emit(path string, connections int, seed int64, threads int, quiet bool) error {
	f := File{Schema: 2, Connections: connections, Seed: seed}
	for _, p := range experiments.BenchPoints() {
		spec := sized(p.Spec, connections, seed)
		spec.Threads = threads
		// Three timed runs, keeping the fastest (and fewest allocations):
		// the first pass pays cache warmup, and the gate wants the run's
		// cost, not the machine's mood.
		var res experiments.RunResult
		best := int64(1<<63 - 1)
		bestAllocs := int64(1<<63 - 1)
		var msBefore, msAfter runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&msBefore)
			start := time.Now()
			res = experiments.Run(spec)
			ns := time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&msAfter)
			if ns < best {
				best = ns
			}
			if allocs := int64(msAfter.Mallocs - msBefore.Mallocs); allocs < bestAllocs {
				bestAllocs = allocs
			}
		}
		e := Entry{
			ID:          p.ID,
			RepliesPS:   res.Load.ReplyRate.Mean,
			P99Ms:       res.Latency.P99,
			ErrPct:      res.Load.ErrorPercent,
			Threads:     res.Threads,
			NsPerOp:     best,
			AllocsPerOp: bestAllocs,
			Events:      res.Events,
		}
		if res.Events > 0 {
			e.NsPerEvent = math.Round(float64(best)/float64(res.Events)*10) / 10
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "%-40s %8.1f replies/s %8.2f p99-ms %12d ns/op %10d allocs/op %10d events %7.1f ns/event %2d threads\n",
				e.ID, e.RepliesPS, e.P99Ms, e.NsPerOp, e.AllocsPerOp, e.Events, e.NsPerEvent, e.Threads)
		}
		f.Entries = append(f.Entries, e)
	}
	sort.Slice(f.Entries, func(i, j int) bool { return f.Entries[i].ID < f.Entries[j].ID })
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// crosscheck runs every gated point on both engines — sequential and sharded
// with the given thread count — and returns the number of points whose
// deterministic metrics differ. One run per engine suffices: the compared
// metrics are simulated quantities, not wall-clock ones, and the parallel
// kernel's contract is exact equality, so any difference at all is a bug.
func crosscheck(threads, connections int, seed int64, quiet bool) int {
	mismatches := 0
	for _, p := range experiments.BenchPoints() {
		seq := sized(p.Spec, connections, seed)
		seq.Threads = 1
		par := seq
		par.Threads = threads
		sres := experiments.Run(seq)
		pres := experiments.Run(par)
		if sres.Load.ReplyRate.Mean != pres.Load.ReplyRate.Mean ||
			sres.Latency.P99 != pres.Latency.P99 ||
			sres.Load.ErrorPercent != pres.Load.ErrorPercent {
			mismatches++
			fmt.Printf("FAIL %-40s threads=%d diverged from threads=1: "+
				"replies %v vs %v, p99-ms %v vs %v, err%% %v vs %v\n",
				p.ID, pres.Threads,
				pres.Load.ReplyRate.Mean, sres.Load.ReplyRate.Mean,
				pres.Latency.P99, sres.Latency.P99,
				pres.Load.ErrorPercent, sres.Load.ErrorPercent)
			continue
		}
		if !quiet {
			fmt.Printf("ok   %-40s threads=%d == threads=1  %8.1f replies/s %7.2f p99-ms\n",
				p.ID, pres.Threads, pres.Load.ReplyRate.Mean, pres.Latency.P99)
		}
	}
	return mismatches
}

func load(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// gate compares candidate against baseline, printing one line per entry and
// returning the number of regressions.
func gate(baseline, candidate File, tol, timeTol, allocTol float64) int {
	if baseline.Connections != candidate.Connections || baseline.Seed != candidate.Seed {
		fmt.Printf("benchgate: WARNING: baseline ran %d conns seed %d, candidate %d conns seed %d — "+
			"simulated metrics are only comparable at identical parameters\n",
			baseline.Connections, baseline.Seed, candidate.Connections, candidate.Seed)
	}
	cand := map[string]Entry{}
	for _, e := range candidate.Entries {
		cand[e.ID] = e
	}
	regressions := 0
	fail := func(id, format string, args ...interface{}) {
		regressions++
		fmt.Printf("FAIL %-40s %s\n", id, fmt.Sprintf(format, args...))
	}
	for _, base := range baseline.Entries {
		c, ok := cand[base.ID]
		if !ok {
			fail(base.ID, "missing from candidate")
			continue
		}
		ok = true
		if c.RepliesPS < base.RepliesPS*(1-tol) {
			fail(base.ID, "reply rate %.1f fell >%.0f%% below baseline %.1f", c.RepliesPS, tol*100, base.RepliesPS)
			ok = false
		}
		// Sub-millisecond p99s sit at the histogram's resolution floor; only
		// gate meaningful values.
		if base.P99Ms > 0.1 && c.P99Ms > base.P99Ms*(1+tol) {
			fail(base.ID, "p99 %.2fms rose >%.0f%% above baseline %.2fms", c.P99Ms, tol*100, base.P99Ms)
			ok = false
		}
		// Allocation counts are a property of the code path, not the
		// machine, so this gate stays on in CI. Baselines predating the
		// field (zero) are not gated.
		if allocTol > 0 && base.AllocsPerOp > 0 && float64(c.AllocsPerOp) > float64(base.AllocsPerOp)*(1+allocTol) {
			fail(base.ID, "allocs/op %d rose >%.0f%% above baseline %d", c.AllocsPerOp, allocTol*100, base.AllocsPerOp)
			ok = false
		}
		// The wall-clock gate only means something when baseline and
		// candidate ran on the same machine; -time-tolerance 0 disables it
		// (CI compares a committed baseline against different hardware).
		if timeTol > 0 && base.NsPerOp > 0 && float64(c.NsPerOp) > float64(base.NsPerOp)*(1+timeTol) {
			fail(base.ID, "ns/op %d rose >%.0f%% above baseline %d", c.NsPerOp, timeTol*100, base.NsPerOp)
			ok = false
		}
		if ok {
			fmt.Printf("ok   %-40s %8.1f replies/s (base %8.1f)  %7.2f p99-ms (base %7.2f)\n",
				base.ID, c.RepliesPS, base.RepliesPS, c.P99Ms, base.P99Ms)
		}
	}
	for _, e := range candidate.Entries {
		found := false
		for _, base := range baseline.Entries {
			if base.ID == e.ID {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("new  %-40s (not in baseline — refresh with make bench-json)\n", e.ID)
		}
	}
	return regressions
}

func main() {
	emitPath := flag.String("emit", "", "run the gated benchmark set and write the JSON baseline to this path")
	baselinePath := flag.String("baseline", "", "committed baseline JSON to gate against")
	candidatePath := flag.String("candidate", "", "freshly emitted JSON to compare")
	crosscheckN := flag.Int("crosscheck", 0, "run every point at this thread count AND at one thread, failing on any deterministic-metric difference (0 disables)")
	connections := flag.Int("connections", 1500, "benchmark connections per point")
	threads := flag.Int("threads", 1, "kernel threads for the emitted points (simulated metrics are bit-identical across thread counts)")
	seed := flag.Int64("seed", 1, "load generator seed")
	tol := flag.Float64("tolerance", 0.05, "allowed fractional regression for simulated metrics (reply rate, p99)")
	allocTol := flag.Float64("alloc-tolerance", 0.10, "allowed fractional regression for per-run heap allocation counts; 0 disables the allocation gate")
	timeTol := flag.Float64("time-tolerance", 1.0, "allowed fractional regression for wall-clock ns/op (1.0 = fail past 2x: a gross-slowdown tripwire, since wall clock jitters even same-machine); 0 disables the wall-clock gate (use when baseline and candidate ran on different machines)")
	quiet := flag.Bool("quiet", false, "suppress per-point progress output on stderr")
	flag.Parse()

	if *connections < 1 {
		fmt.Fprintf(os.Stderr, "benchgate: bad -connections %d (want > 0)\n", *connections)
		os.Exit(2)
	}
	switch {
	case *crosscheckN > 1:
		if n := crosscheck(*crosscheckN, *connections, *seed, *quiet); n > 0 {
			fmt.Printf("benchgate: %d point(s) diverged between -threads 1 and -threads %d\n", n, *crosscheckN)
			os.Exit(1)
		}
		fmt.Printf("benchgate: all points bit-identical at -threads 1 and -threads %d\n", *crosscheckN)
	case *emitPath != "":
		if err := emit(*emitPath, *connections, *seed, *threads, *quiet); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
	case *baselinePath != "" && *candidatePath != "":
		baseline, err := load(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		candidate, err := load(*candidatePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		if n := gate(baseline, candidate, *tol, *timeTol, *allocTol); n > 0 {
			fmt.Printf("benchgate: %d regression(s) against %s\n", n, *baselinePath)
			os.Exit(1)
		}
		fmt.Printf("benchgate: no regressions against %s (%d entries)\n", *baselinePath, len(baseline.Entries))
	default:
		fmt.Fprintln(os.Stderr, "benchgate: use -emit OUT.json, -baseline BASE.json -candidate NEW.json, or -crosscheck N")
		os.Exit(2)
	}
}
