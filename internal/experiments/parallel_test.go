package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/servers/thttpd"
)

// gatedMetrics renders every deterministic metric the figure and gate tooling
// consumes. A parallel run must reproduce all of them byte-for-byte.
func gatedMetrics(r RunResult) string {
	return fmt.Sprintf("samples=%v reply=%+v err=%.6f errsBy=%v lat=%+v svc=%+v offered=%v issued=%d completed=%d",
		r.Load.ReplyRateSamples, r.Load.ReplyRate, r.Load.ErrorPercent,
		r.Load.ErrorsBy, r.Latency, r.ServiceLatency, r.Load.OfferedRate,
		r.Load.Issued, r.Load.Completed)
}

// requireThreadIndependent runs spec sequentially and on the sharded engine at
// 2 and 8 threads. Every gated metric must match the sequential run
// byte-for-byte, and the executed event count must match between the two
// sharded runs. The count is not compared with the sequential run: a sharded
// run adds one driver-lane event per port release (the release crosses lanes)
// and stops at a barrier rather than inside the resolving event, so it
// depends on the lane count — which the configuration fixes — but never on
// the thread count.
func requireThreadIndependent(t *testing.T, name string, spec RunSpec) {
	t.Helper()
	spec.Threads = 1
	want := gatedMetrics(Run(spec))
	var events int64
	for _, threads := range []int{2, 8} {
		spec.Threads = threads
		res := Run(spec)
		if res.Threads != threads {
			t.Errorf("%s threads=%d: engine fell back to %d threads", name, threads, res.Threads)
		}
		if got := gatedMetrics(res); got != want {
			t.Errorf("%s threads=%d diverged from sequential:\nseq: %s\npar: %s", name, threads, want, got)
		}
		if threads == 2 {
			events = res.Events
		} else if res.Events != events {
			t.Errorf("%s: threads=%d executed %d events, threads=2 executed %d", name, threads, res.Events, events)
		}
	}
}

// TestSequentialEventCounts pins the number of events a sequential run
// executes for each launch schedule loadgen feeds through Q.AtEach (constant,
// flash crowd, Pareto, push members, DHT peers). The counts were recorded
// with the queue's previous layout, a heap plus a same-instant ring fed one
// At call per launch: a change to how the queue stores events may change
// what an event costs, never how many a run executes.
func TestSequentialEventCounts(t *testing.T) {
	mk := func(server ServerKind, workload string) RunSpec {
		s := DefaultSpec(server, 400, 251)
		s.Connections = 1500
		s.Workload = workload
		return s
	}
	for _, c := range []struct {
		spec RunSpec
		want int64
	}{
		{mk(ServerThttpdEpoll, ""), 24617},
		{mk(ServerThttpdDevPoll, "flashcrowd"), 15218},
		{mk(ServerThttpdDevPoll, "pareto"), 20105},
		{RunSpec{Server: "push-epoll", Workload: "push", RequestRate: 1600, Connections: 1000, Seed: 1}, 5866},
		{RunSpec{Server: "dht-epoll", Workload: "dhtchurn", RequestRate: 1000, Connections: 200, Seed: 1}, 7495},
	} {
		if got := Run(c.spec).Events; got != c.want {
			t.Errorf("%s/%s: executed %d events, want %d", c.spec.Server, c.spec.Workload, got, c.want)
		}
	}
}

// TestParallelMatchesSequential pins the tentpole determinism claim: for every
// server family, a sharded run produces byte-identical deterministic metrics
// at any thread count, including the single-threaded legacy engine.
func TestParallelMatchesSequential(t *testing.T) {
	kinds := []ServerKind{
		ServerThttpdPoll, ServerPhhttpd, ServerThttpdEpoll, ServerHybrid,
		// compio rides the same sharded kernel: its completion postings run as
		// same-lane interrupts, so both the single-process server and the
		// prefork wrapper must stay bit-identical at any thread count. Stock
		// poll charges no interrupts, so its 4-worker prefork is eligible too.
		ServerThttpdCompio, ServerKind("prefork-2-compio"), ServerKind("prefork-4-poll"),
	}
	for _, kind := range kinds {
		spec := DefaultSpec(kind, 400, 251)
		spec.Connections = 1500
		requireThreadIndependent(t, string(kind), spec)
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
		requireThreadIndependent(t, "workload "+wl, spec)
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
			s.PreforkMode = thttpd.ModeHandoff
			return s
		}(), "prefork handoff"},
		{"smp-interrupts", DefaultSpec(PreforkKind(4), 400, 0), "SMP wakeup interrupts charged to CPU 0"},
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
