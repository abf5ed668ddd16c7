// Command httpsim runs a single benchmark point — one server, one request
// rate, one inactive-connection load — and prints the detailed result:
// reply-rate samples, latency percentiles, error breakdown, mechanism
// statistics and CPU utilisation. It is the tool for poking at a single
// configuration; cmd/benchfig regenerates whole figures.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/experiments"
	"repro/internal/loadgen"
)

func main() {
	server := flag.String("server", string(experiments.ServerThttpdDevPoll),
		"server under test (see -list-servers)")
	listServers := flag.Bool("list-servers", false, "list selectable server kinds and exit")
	rate := flag.Float64("rate", 800, "targeted request rate (requests/second)")
	inactive := flag.Int("inactive", 251, "inactive (idle, high-latency) connections")
	connections := flag.Int("connections", 4000, "benchmark connections (paper: 35000)")
	seed := flag.Int64("seed", 1, "load generator seed")
	batchDequeue := flag.Bool("sigtimedwait4", false, "enable batch signal dequeue (phhttpd)")
	queueLimit := flag.Int("queue-limit", 0, "override the RT signal queue limit (phhttpd, hybrid)")
	flag.Parse()

	if *listServers {
		for _, k := range experiments.ServerKinds() {
			fmt.Println(k)
		}
		return
	}

	kind := experiments.ServerKind(*server)
	if err := experiments.ValidateServerKind(kind); err != nil {
		fmt.Fprintf(os.Stderr, "httpsim: %v\n", err)
		os.Exit(2)
	}

	spec := experiments.RunSpec{
		Server:              kind,
		RequestRate:         *rate,
		Inactive:            *inactive,
		Connections:         *connections,
		Seed:                *seed,
		PhhttpdBatchDequeue: *batchDequeue,
		RTQueueLimit:        *queueLimit,
	}
	res := experiments.Run(spec)
	load := res.Load

	fmt.Printf("server            %s (final mode %s)\n", spec.Server, res.FinalMode)
	fmt.Printf("workload          rate=%.0f req/s, %d connections, %d inactive\n",
		spec.RequestRate, spec.Connections, spec.Inactive)
	fmt.Printf("virtual duration  %v   CPU utilisation %.0f%%   event loops %d\n",
		res.VirtualTime, 100*res.CPUUtilization, res.EventLoops)
	fmt.Printf("replies           %d of %d issued (%.1f%% errors)\n",
		load.Completed, load.Issued, load.ErrorPercent)
	fmt.Printf("reply rate        avg=%.1f sd=%.1f min=%.1f max=%.1f replies/s\n",
		load.ReplyRate.Mean, load.ReplyRate.StdDev, load.ReplyRate.Min, load.ReplyRate.Max)
	fmt.Printf("latency           median=%.2fms mean=%.2fms p90=%.2fms max=%.2fms\n",
		load.MedianLatencyMs, load.MeanLatencyMs, load.P90LatencyMs, load.MaxLatencyMs)

	if len(load.ErrorsBy) > 0 {
		fmt.Println("errors by reason:")
		reasons := make([]string, 0, len(load.ErrorsBy))
		for r := range load.ErrorsBy {
			reasons = append(reasons, string(r))
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Printf("  %-14s %d\n", r, load.ErrorsBy[loadgen.ErrorReason(r)])
		}
	}

	fmt.Println("reply-rate samples (replies/s per interval):")
	for i, s := range load.ReplyRateSamples {
		fmt.Printf("  interval %2d: %8.1f\n", i, s)
	}

	fmt.Printf("mechanism stats   waits=%d events=%d driver-polls=%d hint-hits=%d copied-out=%d enqueued=%d overflows=%d\n",
		res.Primary.Waits, res.Primary.EventsReturned, res.Primary.DriverPolls,
		res.Primary.HintHits, res.Primary.CopiedOut, res.Primary.Enqueued, res.Primary.Overflows)
	if res.Overflows > 0 || res.Handoffs > 0 {
		fmt.Printf("phhttpd recovery  overflows=%d handoffs=%d\n", res.Overflows, res.Handoffs)
	}
	if res.SwitchesToPoll > 0 || res.SwitchesToSignal > 0 {
		fmt.Printf("hybrid switches   to-devpoll=%d to-signal=%d\n", res.SwitchesToPoll, res.SwitchesToSignal)
	}
	fmt.Printf("server stats      accepted=%d served=%d closed=%d idle-closes=%d bad-requests=%d\n",
		res.Server.Accepted, res.Server.Served, res.Server.Closed, res.Server.IdleCloses, res.Server.BadRequests)
}
