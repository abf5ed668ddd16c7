// Command benchfig regenerates the evaluation: the paper's figures (4-14),
// the extension figures (15+: epoll, prefork scaling, overload workloads,
// scale, keep-alive, mostly-idle and chaos) and the ablation studies described
// in DESIGN.md. Each figure sweeps its axis (request rate, worker count, churn
// rate or a fault knob) for every curve and prints the data series as a text
// table, suitable for pasting into EXPERIMENTS.md.
//
// Usage:
//
//	benchfig                        # the default sweep: every figure that does not pin its own size
//	benchfig -fig 8                 # quick, scaled-down run of Figure 8
//	benchfig -fig 8,9,10            # a set of figures
//	benchfig -fig 16                # extension: all four mechanisms incl. epoll
//	benchfig -fig 17,18 -workers 1,2,4   # prefork worker scaling
//	benchfig -fig 20                # overload: flash-crowd bursts, four mechanisms
//	benchfig -fig 12 -workload slowloris  # re-run a paper figure under an adversarial workload
//	benchfig -fig 19 -percentiles   # append the per-point latency percentile table
//	benchfig -fig 32                # keep-alive vs HTTP/1.0 at the knee
//	benchfig -fig 16 -keepalive     # re-run a figure on the persistent hot path
//	benchfig -fig 10 -connections 35000   # the paper's full-size procedure
//	benchfig -fig 37                # server push at 100k mostly-idle members
//	benchfig -fig 39 -churn-rate 400      # datagram churn, custom join rate
//	benchfig -ablation              # the ablation studies instead of figures
//	benchfig -ablation-id hints     # one ablation
//	benchfig -list                  # list available figures
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/eventlib"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/profiling"
	"repro/internal/servers/httpcore"
)

func main() {
	figs := experiments.Figures()
	first, last := figs[0].Number, figs[len(figs)-1].Number
	fig := flag.String("fig", "", fmt.Sprintf("comma-separated figures to regenerate (%d..%d or fig%02d..fig%d; default: every figure that does not pin its own connection count)", first, last, first, last))
	list := flag.Bool("list", false, "list available figures and exit")
	ablation := flag.Bool("ablation", false, "run the ablation studies instead of the figures")
	ablationID := flag.String("ablation-id", "", "run a single ablation by id")
	connections := flag.Int("connections", 0, "benchmark connections per point (0 = the figure's own default: 4000 for most figures and the ablations, 10000-30000 for the scale family, 100000-1000000 for the massive-scale family; paper: 35000)")
	threads := flag.Int("threads", 1, "OS threads per simulated point (>=2 shards the event kernel; figures are byte-identical across thread counts)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	mutexprofile := flag.String("mutexprofile", "", "write a pprof mutex-contention profile (taken at exit) to this file")
	blockprofile := flag.String("blockprofile", "", "write a pprof blocking profile (taken at exit) to this file")
	rates := flag.String("rates", "", "comma-separated request rates overriding a rate figure's sweep (on other axes the first is the fixed offered rate)")
	workers := flag.String("workers", "", "comma-separated worker counts overriding the scaling figures' 1,2,4,8 sweep and fig25's prefork curves")
	backend := flag.String("backend", "", "re-run the figures' thttpd/hybrid/prefork/push/dht curves on this eventlib backend (see -list-backends)")
	workload := flag.String("workload", "", "run every point under this loadgen workload (see -list-workloads)")
	percentiles := flag.Bool("percentiles", false, "append the per-point latency percentile table (p50/p90/p99/p999, client and service side)")
	keepalive := flag.Bool("keepalive", false, "serve every curve over HTTP/1.1 keep-alive connections (default 8 requests per connection; curves with their own persistent-connection config keep it)")
	requestsPerConn := flag.Int("requests-per-conn", 0, "requests each client connection issues (>1 implies -keepalive)")
	pipelineDepth := flag.Int("pipeline-depth", 0, "requests the keep-alive client keeps outstanding (>1 implies -keepalive)")
	cacheKB := flag.Int("cache-kb", 0, "server response-cache capacity in KB (0 = the legacy no-file-charge model)")
	writeMode := flag.String("write-mode", "", "server write path: copy, writev or sendfile (default writev)")
	fanout := flag.Int("fanout", 0, "members the push server fans out to per tick (push figures; 0 = the workload's default)")
	churnRate := flag.Float64("churn-rate", 0, "peer join rate in peers/s (dhtchurn figures; 0 = the workload's default; fig39's churn axis wins)")
	listBackends := flag.Bool("list-backends", false, "list registered event backends and exit")
	listWorkloads := flag.Bool("list-workloads", false, "list registered workload scenarios and exit")
	seed := flag.Int64("seed", 1, "load generator seed")
	quiet := flag.Bool("quiet", false, "suppress all progress output on stderr")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection seed (consulted only when some -fault-* knob is set)")
	faultEINTR := flag.Float64("fault-eintr", 0, "probability one blocking wait is interrupted (EINTR) and restarted")
	faultAcceptEAGAIN := flag.Float64("fault-accept-eagain", 0, "probability one accept fails spuriously with EAGAIN")
	faultReadEAGAIN := flag.Float64("fault-read-eagain", 0, "probability one read fails spuriously with EAGAIN")
	faultWriteEAGAIN := flag.Float64("fault-write-eagain", 0, "probability one write accepts nothing (EAGAIN)")
	faultFDLimit := flag.Int("fault-fdlimit", 0, "per-process RLIMIT_NOFILE: accept fails with EMFILE at the limit (0 = unlimited)")
	faultReset := flag.Float64("fault-reset", 0, "fraction of benchmark connections reset (RST) mid-exchange")
	faultVanish := flag.Float64("fault-vanish", 0, "fraction of benchmark connections whose peer silently vanishes")
	faultOverflowStorm := flag.Float64("fault-overflow-storm", 0, "probability one RT-signal/completion-ring post is swallowed by an injected queue overflow")
	retry := flag.Bool("retry", false, "clients retry failed connections with deterministic capped exponential backoff (3 attempts, 100ms base)")
	flag.Parse()

	if *list {
		for _, f := range figs {
			fmt.Printf("%-6s %s\n", f.ID, f.Title)
		}
		return
	}
	if *listBackends {
		fmt.Println(eventlib.DescribeBackends(""))
		return
	}
	if *listWorkloads {
		for _, w := range loadgen.Workloads() {
			fmt.Printf("%-11s %s\n", w.Name, w.Description)
		}
		return
	}
	if *backend != "" {
		if _, ok := eventlib.Lookup(*backend); !ok {
			fail(eventlib.UnknownBackendError(*backend))
		}
	}
	if *workload != "" {
		if _, ok := loadgen.LookupWorkload(*workload); !ok {
			fail(loadgen.UnknownWorkloadError(*workload))
		}
	}
	workerCounts, err := experiments.ParseWorkerCounts(*workers)
	if err != nil {
		fail(err)
	}
	mode, err := httpcore.ParseWriteMode(*writeMode)
	if err != nil {
		fail(err)
	}

	// With -quiet the progress callback stays nil everywhere, so nothing can
	// reach stderr; without it every point prints one line.
	var progress func(format string, args ...interface{})
	if !*quiet {
		progress = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// Resolve the work before starting the profilers, so an input error
	// cannot leave a truncated profile behind.
	prof := profiling.Config{CPU: *cpuprofile, Mem: *memprofile, Mutex: *mutexprofile, Block: *blockprofile}
	if *ablation || *ablationID != "" {
		abls := experiments.Ablations(*connections)
		if *ablationID != "" {
			a, err := experiments.AblationByID(*ablationID, *connections)
			if err != nil {
				fail(err)
			}
			abls = []experiments.Ablation{a}
		}
		defer profiling.StartAll(prof)()
		for _, a := range abls {
			fmt.Println(experiments.FormatAblation(experiments.RunAblation(a, progress)))
		}
		return
	}

	var selected []experiments.Figure
	if *fig == "" {
		// The default sweep skips the figures that pin their own connection
		// count (the scale and mostly-idle families): at 10k-1M connections
		// per point they would dominate it.
		for _, f := range figs {
			if !f.Pinned() {
				selected = append(selected, f)
			}
		}
	} else {
		for _, id := range strings.Split(*fig, ",") {
			f, err := experiments.FigureByID(id)
			if err != nil {
				fail(err)
			}
			selected = append(selected, f)
		}
	}

	opts := experiments.SweepOptions{
		Connections: *connections, Workers: workerCounts, Seed: *seed, Threads: *threads,
		Backend: *backend, Workload: *workload, Progress: progress,
		KeepAlive: *keepalive, RequestsPerConn: *requestsPerConn,
		PipelineDepth: *pipelineDepth, CacheKB: *cacheKB, WriteMode: mode,
		Fanout: *fanout, ChurnRate: *churnRate, Retry: *retry,
		Faults: faults.Config{
			Seed:              *faultSeed,
			EINTRRate:         *faultEINTR,
			AcceptEAGAINRate:  *faultAcceptEAGAIN,
			ReadEAGAINRate:    *faultReadEAGAIN,
			WriteEAGAINRate:   *faultWriteEAGAIN,
			FDLimit:           *faultFDLimit,
			ResetRate:         *faultReset,
			VanishRate:        *faultVanish,
			OverflowStormRate: *faultOverflowStorm,
		},
	}
	if *rates != "" {
		for _, part := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fail(fmt.Errorf("bad rate %q: %v", part, err))
			}
			opts.Rates = append(opts.Rates, v)
		}
	}

	defer profiling.StartAll(prof)()
	// A single figure prints bare; a set follows every table with a blank
	// line.
	sep := ""
	if len(selected) > 1 {
		sep = "\n"
	}
	for _, f := range selected {
		res := experiments.RunFigure(f, opts)
		fmt.Print(experiments.Format(res), sep)
		if *percentiles {
			fmt.Print(experiments.FormatPercentiles(res.Runs), sep)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
	os.Exit(2)
}
