// Command benchgate records and gates the repository's benchmark trajectory.
//
// In emit mode it runs the key figure benchmarks — representative points of
// the paper's figures, the extension figures, one overload point per
// workload scenario and the scale family's 10k-100k-connection points — and
// writes one JSON entry per point: the simulated reply rate and p99
// connection latency (bit-deterministic for a given seed and connection
// count) plus the measured wall-clock cost (ns/op, noisy) and heap
// allocation count (allocs_per_op, near-deterministic) of the run. In gate
// mode it compares a candidate file against the committed baseline and exits
// non-zero on regression: a reply rate more than -tolerance below the
// baseline, a p99 more than -tolerance above it, an allocation count more
// than -alloc-tolerance above it, or a ns/op more than -time-tolerance above
// it. The simulated gates are tight because those numbers only move when
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
//	benchgate -emit BENCH_PR14.json         # refresh the baseline
//	benchgate -baseline BENCH_PR14.json -candidate new.json
//	benchgate -crosscheck 4                 # parallel == sequential, bit for bit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/servers/httpcore"
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
}

// File is the benchmark baseline schema.
type File struct {
	Schema      int     `json:"schema"`
	Connections int     `json:"connections"`
	Seed        int64   `json:"seed"`
	Entries     []Entry `json:"entries"`
}

// points returns the gated benchmark set: the id names the figure point, the
// spec runs it. The set mirrors bench_test.go's key benchmarks at a size that
// keeps the whole emit run under a minute.
func points(connections int, seed int64) []struct {
	id   string
	spec experiments.RunSpec
} {
	var out []struct {
		id   string
		spec experiments.RunSpec
	}
	add := func(id string, spec experiments.RunSpec) {
		if spec.Connections == 0 {
			spec.Connections = connections
		}
		spec.Seed = seed
		out = append(out, struct {
			id   string
			spec experiments.RunSpec
		}{id, spec})
	}

	// The paper's figure families: each mechanism at its heaviest inactive
	// load, mid-sweep rate (the knee region is where regressions show).
	for _, p := range []struct {
		name     string
		server   experiments.ServerKind
		inactive int
	}{
		{"fig08-poll-load501", experiments.ServerThttpdPoll, 501},
		{"fig09-devpoll-load501", experiments.ServerThttpdDevPoll, 501},
		{"fig13-phhttpd-load501", experiments.ServerPhhttpd, 501},
		{"ext-hybrid-load501", experiments.ServerHybrid, 501},
		{"ext-epoll-load501", experiments.ServerThttpdEpoll, 501},
		{"ext-epoll-et-load501", experiments.ServerThttpdEpollET, 501},
		{"ext-compio-load501", experiments.ServerThttpdCompio, 501},
	} {
		add(p.name+"-rate1000", experiments.RunSpec{
			Server: p.server, RequestRate: 1000, Inactive: p.inactive,
		})
	}

	// Prefork worker scaling (figure 17): the multi-CPU speedup.
	for _, workers := range []int{1, 2, 4} {
		add(fmt.Sprintf("ext-prefork%d-rate3000", workers), experiments.RunSpec{
			Server: experiments.PreforkKind(workers), RequestRate: 3000, Inactive: 500,
		})
	}

	// The scale family (figures 26-28): the 10k/20k/30k-connection points on
	// the cheapest sustaining mechanism, plus the collapsing baseline at 10k.
	// These pin their own connection counts — the count is the point.
	for _, conns := range []int{10000, 20000, 30000} {
		add(fmt.Sprintf("scale-%d-epoll-rate1000", conns), experiments.RunSpec{
			Server: experiments.ServerThttpdEpoll, RequestRate: 1000, Inactive: 251,
			Connections: conns,
		})
	}
	add("scale-10000-poll-rate1000", experiments.RunSpec{
		Server: experiments.ServerThttpdPoll, RequestRate: 1000, Inactive: 251,
		Connections: 10000,
	})
	add("scale-10000-compio-rate1000", experiments.RunSpec{
		Server: experiments.ServerThttpdCompio, RequestRate: 1000, Inactive: 251,
		Connections: 10000,
	})

	// The massive-scale anchor (figures 29-31): the 100k-connection point on
	// the cheapest sustaining mechanism. TIME-WAIT holds rate x 61s of ports
	// at this size, so the point widens the port space the way the
	// massive-scale figures themselves do.
	massiveNet := netsim.DefaultConfig()
	massiveNet.PortSpace = 2*100000 + 100000
	add("scale-100000-epoll-rate1000", experiments.RunSpec{
		Server: experiments.ServerThttpdEpoll, RequestRate: 1000, Inactive: 251,
		Connections: 100000, Network: &massiveNet,
	})
	add("scale-100000-compio-rate1000", experiments.RunSpec{
		Server: experiments.ServerThttpdCompio, RequestRate: 1000, Inactive: 251,
		Connections: 100000, Network: &massiveNet,
	})

	// One overload point per workload scenario (figures 19-24), past the
	// knee, where the latency distribution carries the signal. Most run on
	// devpoll; the stalled-reader scenario runs on poll(), the mechanism that
	// rescans the write-parked background entries every loop (on devpoll the
	// jammed connections are invisible after their one pre-benchmark serve).
	for _, w := range loadgen.Workloads() {
		// The push and dhtchurn workloads drive their own server families;
		// their gated points follow below.
		if w.Kind != loadgen.KindRequest {
			continue
		}
		server := experiments.ServerThttpdDevPoll
		if w.Name == "stalled" {
			server = experiments.ServerThttpdPoll
		}
		add(fmt.Sprintf("overload-%s-%s-rate1300", w.Name, server), experiments.RunSpec{
			Server: server, RequestRate: 1300, Inactive: 251,
			Workload: w.Name,
		})
	}

	// The mostly-idle families (figures 36-39): the push daemon fanning out
	// over a 100k-member interest set of which well under 5% are active per
	// tick (the figure-37 acceptance point), and the datagram node at its
	// churn knee. Both pin their own connection counts — the idle population
	// is the point — and the push entry widens the port space like the other
	// 100k anchors.
	add("push-100k-idle-epoll-rate1000", experiments.RunSpec{
		Server: "push-epoll", Workload: "push", RequestRate: 1000,
		Connections: 100000, Network: &massiveNet,
	})
	add("dhtchurn-knee-epoll-rate2000", experiments.RunSpec{
		Server: "dht-epoll", Workload: "dhtchurn", RequestRate: 2000,
		Connections: 4000,
	})

	// The persistent-connection hot path (figure-32 family): the epoll knee
	// point with the axes turned on one at a time — serial keep-alive,
	// pipelined keep-alive, and pipelined keep-alive with the response cache
	// and sendfile write path — plus pipelined keep-alive at the 10k and 100k
	// scale anchors. Connections counts offered requests for these points, so
	// they serve the same budget as their HTTP/1.0 siblings above.
	ka := httpcore.Options{KeepAlive: true}
	kaHot := httpcore.Options{KeepAlive: true, CacheKB: 64, WriteMode: httpcore.WriteSendfile}
	pipelined := loadgen.ClientProfile{
		RequestsPerConn: experiments.KeepAliveRequests,
		PipelineDepth:   experiments.KeepAliveRequests,
	}
	add("ext-keepalive-epoll-load501-rate1300", experiments.RunSpec{
		Server: experiments.ServerThttpdEpoll, RequestRate: 1300, Inactive: 501,
		HTTP: ka, Client: loadgen.ClientProfile{RequestsPerConn: experiments.KeepAliveRequests},
	})
	add("ext-pipelined-epoll-load501-rate1300", experiments.RunSpec{
		Server: experiments.ServerThttpdEpoll, RequestRate: 1300, Inactive: 501,
		HTTP: ka, Client: pipelined,
	})
	add("ext-cached-sendfile-epoll-load501-rate1300", experiments.RunSpec{
		Server: experiments.ServerThttpdEpoll, RequestRate: 1300, Inactive: 501,
		HTTP: kaHot, Client: pipelined,
	})
	add("scale-10000-epoll-keepalive-rate1000", experiments.RunSpec{
		Server: experiments.ServerThttpdEpoll, RequestRate: 1000, Inactive: 251,
		Connections: 10000, HTTP: ka, Client: pipelined,
	})
	add("scale-100000-epoll-keepalive-rate1000", experiments.RunSpec{
		Server: experiments.ServerThttpdEpoll, RequestRate: 1000, Inactive: 251,
		Connections: 100000, Network: &massiveNet, HTTP: ka, Client: pipelined,
	})

	// The chaos points (figures 40-43): one per fault class, each on the
	// mechanism whose degradation path it exercises. Fault decisions are
	// seeded hashes, so these metrics are exactly as bit-deterministic as the
	// healthy points; a change in injection pricing, EMFILE shedding, EINTR
	// restart or overflow recovery moves them where nothing else does.
	add("chaos-reset-epoll-rate1000", experiments.RunSpec{
		Server: experiments.ServerThttpdEpoll, RequestRate: 1000, Inactive: 251,
		Faults: faults.Config{Seed: 3, ResetRate: 0.1, VanishRate: 0.02},
	})
	add("chaos-emfile-poll-rate1000", experiments.RunSpec{
		Server: experiments.ServerThttpdPoll, RequestRate: 1000, Inactive: 251,
		Faults: faults.Config{Seed: 3, FDLimit: 280},
	})
	add("chaos-eintr-devpoll-rate1000", experiments.RunSpec{
		Server: experiments.ServerThttpdDevPoll, RequestRate: 1000, Inactive: 251,
		Faults: faults.Config{Seed: 3, EINTRRate: 0.4},
	})
	add("chaos-overflow-compio-rate1000", experiments.RunSpec{
		Server: experiments.ServerThttpdCompio, RequestRate: 1000, Inactive: 251,
		Faults: faults.Config{Seed: 3, OverflowStormRate: 0.1},
	})
	return out
}

// emit runs every gated point and writes the baseline file.
func emit(path string, connections int, seed int64, threads int, quiet bool) error {
	f := File{Schema: 2, Connections: connections, Seed: seed}
	for _, p := range points(connections, seed) {
		p.spec.Threads = threads
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
			res = experiments.Run(p.spec)
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
			ID:          p.id,
			RepliesPS:   res.Load.ReplyRate.Mean,
			P99Ms:       res.Latency.P99,
			ErrPct:      res.Load.ErrorPercent,
			Threads:     res.Threads,
			NsPerOp:     best,
			AllocsPerOp: bestAllocs,
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "%-40s %8.1f replies/s %8.2f p99-ms %12d ns/op %10d allocs/op %2d threads\n",
				e.ID, e.RepliesPS, e.P99Ms, e.NsPerOp, e.AllocsPerOp, e.Threads)
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
	for _, p := range points(connections, seed) {
		seq := p.spec
		seq.Threads = 1
		par := p.spec
		par.Threads = threads
		sres := experiments.Run(seq)
		pres := experiments.Run(par)
		if sres.Load.ReplyRate.Mean != pres.Load.ReplyRate.Mean ||
			sres.Latency.P99 != pres.Latency.P99 ||
			sres.Load.ErrorPercent != pres.Load.ErrorPercent {
			mismatches++
			fmt.Printf("FAIL %-40s threads=%d diverged from threads=1: "+
				"replies %v vs %v, p99-ms %v vs %v, err%% %v vs %v\n",
				p.id, pres.Threads,
				pres.Load.ReplyRate.Mean, sres.Load.ReplyRate.Mean,
				pres.Latency.P99, sres.Latency.P99,
				pres.Load.ErrorPercent, sres.Load.ErrorPercent)
			continue
		}
		if !quiet {
			fmt.Printf("ok   %-40s threads=%d == threads=1  %8.1f replies/s %7.2f p99-ms\n",
				p.id, pres.Threads, pres.Load.ReplyRate.Mean, pres.Latency.P99)
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
