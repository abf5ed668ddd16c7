package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/servers/prefork"
)

// gatedMetrics renders every deterministic metric the figure and gate tooling
// consumes. A parallel run must reproduce all of them byte-for-byte.
func gatedMetrics(r RunResult) string {
	return fmt.Sprintf("samples=%v reply=%+v err=%.6f errsBy=%v median=%v p90=%v max=%v lat=%+v svc=%+v offered=%v issued=%d completed=%d",
		r.Load.ReplyRateSamples, r.Load.ReplyRate, r.Load.ErrorPercent,
		r.Load.ErrorsBy, r.Load.MedianLatencyMs, r.Load.P90LatencyMs,
		r.Load.MaxLatencyMs, r.Latency, r.ServiceLatency, r.Load.OfferedRate,
		r.Load.Issued, r.Load.Completed)
}

// TestParallelMatchesSequential pins the tentpole determinism claim: for every
// server family, a sharded run produces byte-identical deterministic metrics
// at any thread count, including the single-threaded legacy engine.
func TestParallelMatchesSequential(t *testing.T) {
	kinds := []ServerKind{
		ServerThttpdPoll, ServerPhhttpd, ServerThttpdEpoll, PreforkKind(4), ServerHybrid,
		// compio rides the same sharded kernel: its completion postings run as
		// same-lane interrupts, so both the single-process server and the
		// prefork wrapper must stay bit-identical at any thread count.
		ServerThttpdCompio, ServerKind("prefork-2-compio"),
	}
	for _, kind := range kinds {
		spec := DefaultSpec(kind, 400, 251)
		spec.Connections = 1500
		want := gatedMetrics(Run(spec))
		for _, threads := range []int{2, 8} {
			spec.Threads = threads
			res := Run(spec)
			if res.Threads != threads {
				t.Errorf("%s threads=%d: engine fell back to %d threads", kind, threads, res.Threads)
			}
			if got := gatedMetrics(res); got != want {
				t.Errorf("%s threads=%d diverged from sequential:\nseq: %s\npar: %s", kind, threads, want, got)
			}
		}
	}
}

// TestParallelMatchesSequentialWorkloads repeats the determinism check across
// the adversarial workloads, which exercise the cross-lane paths hardest:
// flash crowds issue same-instant bursts, slow-loris keeps per-lane trickle
// timers running, and the WAN mix spreads RTTs across three orders of
// magnitude (shrinking the lookahead window to the fastest band).
func TestParallelMatchesSequentialWorkloads(t *testing.T) {
	for _, wl := range []string{"flashcrowd", "slowloris", "wan"} {
		spec := DefaultSpec(ServerPhhttpd, 400, 251)
		spec.Connections = 1500
		spec.Workload = wl
		want := gatedMetrics(Run(spec))
		spec.Threads = 8
		if got := gatedMetrics(Run(spec)); got != want {
			t.Errorf("workload %s diverged from sequential:\nseq: %s\npar: %s", wl, want, got)
		}
	}
}

// TestParallelIneligibleFallsBack covers the configurations the sharded
// engine refuses: they must run sequentially (Threads reported as 1), say
// why in Fallback and Describe, and still complete correctly rather than
// panic.
func TestParallelIneligibleFallsBack(t *testing.T) {
	rr := netsim.DefaultConfig()
	rr.Shard = netsim.ShardRoundRobin
	shortTW := netsim.DefaultConfig()
	shortTW.TimeWait = core.Microsecond // far below the 100 µs lookahead
	cases := []struct {
		name   string
		spec   RunSpec
		reason string
	}{
		{"round-robin", func() RunSpec {
			s := DefaultSpec(PreforkKind(2), 400, 0)
			s.Network = &rr
			return s
		}(), "round-robin listener sharding"},
		{"handoff", func() RunSpec {
			s := DefaultSpec(PreforkKind(2), 400, 0)
			s.PreforkMode = prefork.ModeHandoff
			return s
		}(), "prefork handoff"},
		{"short-timewait", func() RunSpec {
			s := DefaultSpec(ServerThttpdEpoll, 400, 0)
			s.Network = &shortTW
			return s
		}(), "TIME-WAIT below the lookahead"},
	}
	for _, c := range cases {
		c.spec.Connections = 500
		c.spec.Threads = 4
		res := Run(c.spec)
		if res.Threads != 1 {
			t.Errorf("%s: ineligible config ran with %d threads", c.name, res.Threads)
		}
		if res.Fallback != c.reason {
			t.Errorf("%s: Fallback = %q, want %q", c.name, res.Fallback, c.reason)
		}
		if d := Describe(res); !strings.HasSuffix(d, "sequential: "+c.reason) {
			t.Errorf("%s: Describe does not name the fallback: %s", c.name, d)
		}
		if res.Load.Issued != 500 {
			t.Errorf("%s: issued %d connections, want 500", c.name, res.Load.Issued)
		}
	}
	eligible := DefaultSpec(ServerThttpdEpoll, 400, 0)
	eligible.Connections = 500
	eligible.Threads = 2
	if res := Run(eligible); res.Threads != 2 || res.Fallback != "" {
		t.Errorf("eligible config: Threads = %d, Fallback = %q; want 2 and none", res.Threads, res.Fallback)
	}
}
