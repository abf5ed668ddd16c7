package experiments

// Tests for the prefork server kinds and the worker-scaling (figure-17)
// machinery: kind resolution, the prefork-1 degeneracy guarantee, determinism
// of multi-worker runs, and the scaling acceptance the figure claims.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/devpoll"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/servers/thttpd"
)

func TestResolvePreforkKinds(t *testing.T) {
	cases := []struct {
		kind    ServerKind
		workers int
		backend string
	}{
		{"prefork-1", 1, "epoll"},
		{"prefork-4", 4, "epoll"},
		{"prefork-2-epoll-et", 2, "epoll-et"},
		{"prefork-2-rtsig", 2, "rtsig"},
		{"prefork-8-devpoll", 8, "devpoll"},
	}
	for _, c := range cases {
		rk, err := resolveKind(c.kind)
		if err != nil {
			t.Fatalf("resolveKind(%q): %v", c.kind, err)
		}
		if rk.family != "prefork" || rk.workers != c.workers || rk.backend != c.backend {
			t.Fatalf("resolveKind(%q) = %+v", c.kind, rk)
		}
	}
	for _, bad := range []ServerKind{"prefork-0", "prefork-65", "prefork-x", "prefork-2-kqueue", "prefork-"} {
		if _, err := resolveKind(bad); err == nil || !strings.Contains(err.Error(), "choices") {
			t.Fatalf("resolveKind(%q) = %v, want listed-choices error", bad, err)
		}
	}
	if kind, err := RetargetKind("prefork-4", "epoll-et"); err != nil || kind != "prefork-4-epoll-et" {
		t.Fatalf("RetargetKind = %v, %v", kind, err)
	}
	if kind, err := RetargetKind("prefork-4-epoll-et", "epoll"); err != nil || kind != "prefork-4" {
		t.Fatalf("RetargetKind back = %v, %v", kind, err)
	}
}

// prefork-1 must degenerate to exactly the single-process thttpd model on
// every backend, with and without injected faults: same load results, server
// counters, mechanism statistics, loop and event counts, service latency and
// virtual time as thttpd on the same backend. Only FinalMode differs, and it
// follows the kind's spelling.
func TestPreforkOneWorkerMatchesThttpd(t *testing.T) {
	chaos := faults.Config{Seed: 1, EINTRRate: 0.2, ReadEAGAINRate: 0.05, ResetRate: 0.05}
	for _, fc := range []faults.Config{{}, chaos} {
		for _, backend := range []string{"poll", "devpoll", "epoll", "epoll-et", "rtsig", "compio"} {
			matchOneWorker(t, backend, fc)
		}
	}
}

// matchOneWorker compares prefork-1-<backend> with thttpd-<backend> under
// one fault configuration.
func matchOneWorker(t *testing.T, backend string, fc faults.Config) {
	t.Helper()
	at := fmt.Sprintf("[%s faults=%+v]", backend, fc)
	a := Run(RunSpec{Server: ServerKind("prefork-1-" + backend), RequestRate: 1000, Inactive: 501, Connections: 1500, Seed: 1, Faults: fc})
	b := Run(RunSpec{Server: ServerKind("thttpd-" + backend), RequestRate: 1000, Inactive: 501, Connections: 1500, Seed: 1, Faults: fc})
	if fc.Seed != 0 && b.Server.Resets == 0 {
		t.Fatalf("%s the fault plane reset nothing; the faulted comparison exercises nothing", at)
	}
	if !reflect.DeepEqual(a.Load, b.Load) {
		t.Fatalf("%s prefork-1 load diverges from thttpd:\n%v\n%v", at, a.Load, b.Load)
	}
	if !reflect.DeepEqual(a.Server, b.Server) {
		t.Fatalf("%s prefork-1 server stats diverge: %+v vs %+v", at, a.Server, b.Server)
	}
	if a.EventLoops != b.EventLoops || a.Events != b.Events || !reflect.DeepEqual(a.Primary, b.Primary) {
		t.Fatalf("%s prefork-1 mechanism behaviour diverges: loops %d vs %d, events %d vs %d",
			at, a.EventLoops, b.EventLoops, a.Events, b.Events)
	}
	if a.ServiceLatency != b.ServiceLatency || a.VirtualTime != b.VirtualTime {
		t.Fatalf("%s prefork-1 timing diverges: %+v at %v vs %+v at %v",
			at, a.ServiceLatency, a.VirtualTime, b.ServiceLatency, b.VirtualTime)
	}
	if want := "prefork-1/" + backend + "/reuseport"; a.FinalMode != want {
		t.Fatalf("%s prefork-1 FinalMode = %q, want %q", at, a.FinalMode, want)
	}
	if b.FinalMode != backend {
		t.Fatalf("%s thttpd FinalMode = %q, want the poller's name", at, b.FinalMode)
	}
}

// Mechanism options reach every worker: the /dev/poll hint ablation applies
// to a multi-worker server exactly as to the single process.
func TestMechanismOptionsReachEveryWorker(t *testing.T) {
	noHints := devpoll.DefaultOptions()
	noHints.UseHints = false
	spec := RunSpec{Server: "prefork-2-devpoll", RequestRate: 1000, Inactive: 251, Connections: 600, Seed: 1}
	if hits := Run(spec).Primary.HintHits; hits == 0 {
		t.Fatal("hinted /dev/poll recorded no hint hits; the test exercises nothing")
	}
	spec.DevPollOptions = &noHints
	if hits := Run(spec).Primary.HintHits; hits != 0 {
		t.Fatalf("hints-off workers recorded %d hint hits: the options did not reach them", hits)
	}
}

// Two identical multi-worker benchmark points must produce identical results
// in every observable: the determinism the discrete-event scheduler promises.
func TestMultiWorkerRunsAreDeterministic(t *testing.T) {
	spec := RunSpec{Server: "prefork-4", RequestRate: 2500, Inactive: 251, Connections: 1500, Seed: 7}
	a, b := Run(spec), Run(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical prefork-4 runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Workers != 4 || len(a.PerCPUUtilization) != 4 || len(a.PerWorkerServed) != 4 {
		t.Fatalf("per-worker reporting incomplete: %+v", a)
	}
}

// The figure-17 acceptance claim: under heavy offered load, two workers serve
// at least 1.7x one worker's replies, and throughput is monotone through four
// workers. Run scaled down (the shape is load-ratio driven, not size driven).
func TestWorkerScalingMeetsAcceptance(t *testing.T) {
	reply := func(workers int) float64 {
		res := Run(RunSpec{
			Server:      PreforkKind(workers),
			RequestRate: 3000,
			Inactive:    1500,
			Connections: 2000,
			Seed:        1,
		})
		for _, u := range res.PerCPUUtilization {
			if u > 1 {
				t.Fatalf("workers=%d: per-CPU utilisation %v > 1", workers, u)
			}
		}
		return res.Load.ReplyRate.Mean
	}
	r1, r2, r4 := reply(1), reply(2), reply(4)
	if r2 < 1.7*r1 {
		t.Fatalf("2 workers reply %.1f < 1.7x single worker's %.1f", r2, r1)
	}
	if r4 < r2 {
		t.Fatalf("throughput not monotone: 4 workers %.1f < 2 workers %.1f", r4, r2)
	}
}

// The sharding-policy ablation must exercise all three variants and show the
// single-acceptor handoff costing throughput against in-stack sharding at the
// contended point.
func TestShardingPolicyAblation(t *testing.T) {
	point := func(mode thttpd.Mode, shard netsim.ShardPolicy) RunResult {
		netCfg := netsim.DefaultConfig()
		netCfg.Shard = shard
		return Run(RunSpec{
			Server:      "prefork-2",
			RequestRate: 3000,
			Inactive:    501,
			Connections: 1500,
			Seed:        1,
			Network:     &netCfg,
			PreforkMode: mode,
		})
	}
	hash := point(thttpd.ModeReuseport, netsim.ShardHash)
	rr := point(thttpd.ModeReuseport, netsim.ShardRoundRobin)
	handoff := point(thttpd.ModeHandoff, netsim.ShardHash)
	if handoff.Handoffs == 0 {
		t.Fatal("handoff mode performed no handoffs")
	}
	if hash.Handoffs != 0 {
		t.Fatal("reuseport mode should not hand connections off")
	}
	for _, res := range []RunResult{hash, rr} {
		if res.Load.ReplyRate.Mean < handoff.Load.ReplyRate.Mean*0.95 {
			t.Fatalf("in-stack sharding (%.1f) fell behind single-acceptor handoff (%.1f)",
				res.Load.ReplyRate.Mean, handoff.Load.ReplyRate.Mean)
		}
	}
}

func TestWorkerFigureDefinitions(t *testing.T) {
	var workerFigs []Figure
	for _, f := range Figures() {
		if f.Axis == AxisWorkers {
			workerFigs = append(workerFigs, f)
		}
	}
	if len(workerFigs) != 2 || workerFigs[0].ID != "fig17" || workerFigs[1].ID != "fig18" {
		t.Fatalf("worker figures = %+v, want fig17 and fig18", workerFigs)
	}
	fig := Figure{
		ID: "figtest", Number: 99, Title: "t", Paper: "p",
		Metric: MetricReplyCPU, Axis: AxisWorkers, X: []float64{1, 2},
		Curves: []Curve{{Label: "c", Spec: RunSpec{Server: PreforkKind(1), RequestRate: 1500, Inactive: 1}}},
	}
	res := RunFigure(fig, SweepOptions{Connections: 400})
	if len(res.Series) != 4 || len(res.Runs) != 2 {
		t.Fatalf("series=%d runs=%d, want 4 and 2", len(res.Series), len(res.Runs))
	}
	if res.Runs[1].Spec.Server != PreforkKind(2) || res.Runs[1].Workers != 2 {
		t.Fatalf("workers axis not applied: %s ran %d workers", res.Runs[1].Spec.Server, res.Runs[1].Workers)
	}
	text := Format(res)
	if !strings.Contains(text, "workers") || !strings.Contains(text, "c (avg)") || !strings.Contains(text, "c (cpu%)") {
		t.Fatalf("Format output malformed:\n%s", text)
	}
}

// TestWorkerFigureHonoursSweepOptions pins that the worker-scaling figures
// take the same per-point options as every other figure: a fault
// configuration and keep-alive must change fig17's numbers.
func TestWorkerFigureHonoursSweepOptions(t *testing.T) {
	fig := mustFigure(t, "fig17")
	base := SweepOptions{Connections: 600, Workers: []int{1, 2}}
	chaos := base
	chaos.Faults = faults.Config{Seed: 1, FDLimit: 300, ResetRate: 0.2}
	chaos.KeepAlive = true
	plain, faulted := RunFigure(fig, base), RunFigure(fig, chaos)
	if Format(plain) == Format(faulted) {
		t.Fatalf("fig17 ignored the fault and keep-alive options:\n%s", Format(faulted))
	}
	for _, r := range faulted.Runs {
		if r.Spec.Faults.ResetRate != 0.2 || r.Spec.Client.RequestsPerConn != KeepAliveRequests {
			t.Fatalf("%s: options not applied to the spec: %+v", r.Spec.Server, r.Spec)
		}
	}
}
