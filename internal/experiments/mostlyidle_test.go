package experiments

import (
	"strings"
	"testing"
)

// TestPushRunAccounting runs one push point end to end: every member
// subscribes, the delivery budget is spent exactly, and the server-side
// counters agree with the client-side books.
func TestPushRunAccounting(t *testing.T) {
	spec := RunSpec{
		Server:      "push-epoll",
		Workload:    "push",
		RequestRate: 1600,
		Connections: 1000,
		Seed:        1,
	}
	res := Run(spec)
	if res.Load.Issued != 1000 || res.Load.Completed != 1000 || res.Load.Errors != 0 {
		t.Fatalf("load = issued %d completed %d errors %d (%+v)",
			res.Load.Issued, res.Load.Completed, res.Load.Errors, res.Load.ErrorsBy)
	}
	if res.Load.Replies != 1000 {
		t.Fatalf("booked deliveries = %d, want the exact budget 1000", res.Load.Replies)
	}
	if res.Server.Served != 1000 {
		t.Fatalf("subscribed members = %d, want 1000", res.Server.Served)
	}
	// Pushed counts warmup deliveries too, so it must be at least the budget.
	if res.Server.Pushed < 1000 {
		t.Fatalf("server pushes = %d, want >= 1000", res.Server.Pushed)
	}
	if res.Latency.P50 <= 0 {
		t.Fatalf("median delivery latency = %v ms, want > 0", res.Latency.P50)
	}
	if res.FinalMode != "epoll" {
		t.Fatalf("final mode = %q, want epoll", res.FinalMode)
	}
	if res.EventLoops == 0 || res.Primary.Waits == 0 {
		t.Fatalf("mechanism stats not filled: loops=%d waits=%d", res.EventLoops, res.Primary.Waits)
	}
}

// TestDHTRunAccounting runs one churn point end to end: every peer session
// completes its pong quota and the node's counters line up.
func TestDHTRunAccounting(t *testing.T) {
	spec := RunSpec{
		Server:      "dht-epoll",
		Workload:    "dhtchurn",
		RequestRate: 1000, // quota 5 pongs per peer at the workload's 200/s churn
		Connections: 200,
		Seed:        1,
	}
	res := Run(spec)
	if res.Load.Issued != 200 || res.Load.Completed != 200 || res.Load.Errors != 0 {
		t.Fatalf("load = issued %d completed %d errors %d (%+v)",
			res.Load.Issued, res.Load.Completed, res.Load.Errors, res.Load.ErrorsBy)
	}
	if res.Load.Replies != 1000 {
		t.Fatalf("pongs booked = %d, want 200 peers x 5", res.Load.Replies)
	}
	if res.Server.Accepted != 200 {
		t.Fatalf("joins = %d, want 200", res.Server.Accepted)
	}
	if res.Server.Served < 1000 {
		t.Fatalf("pongs sent = %d, want >= 1000", res.Server.Served)
	}
}

// TestFamilyPairingRejected pins the validation: a push daemon driven by the
// request workload (or an HTTP server by the push workload) must fail with an
// explanatory error, not run to an all-error result.
func TestFamilyPairingRejected(t *testing.T) {
	cases := []RunSpec{
		{Server: "push-epoll"},                                    // request workload against the push daemon
		{Server: "dht-poll", Workload: "flashcrowd"},              // request workload against the node
		{Server: ServerThttpdEpoll, Workload: "push"},             // push traffic against an HTTP server
		{Server: PreforkKind(2), Workload: "dhtchurn"},            // datagrams against prefork
		{Server: "push-epoll", Workload: "dhtchurn"},              // wrong non-request family
		{Server: "dht-epoll", Workload: "push", RequestRate: 500}, // wrong non-request family
	}
	for _, spec := range cases {
		if _, err := RunE(spec); err == nil || !strings.Contains(err.Error(), "traffic") {
			t.Fatalf("spec %+v: error = %v, want a family-pairing error", spec.Server, err)
		}
	}
}

// TestMostlyIdleFiguresRegistered pins figs 36-39 into the lookup path the
// tools use.
func TestMostlyIdleFiguresRegistered(t *testing.T) {
	for _, id := range []string{"fig36", "37", "fig38", "39"} {
		fig := mustFigure(t, id)
		if !fig.Pinned() {
			t.Fatalf("%s has no pinned connection count; the default sweep would run it", fig.ID)
		}
		for _, c := range fig.Curves {
			if _, err := resolveKind(c.Spec.Server); err != nil {
				t.Fatalf("%s curve %q: %v", fig.ID, c.Label, err)
			}
		}
	}
	fig39 := mustFigure(t, "fig39")
	if fig39.Axis != AxisChurn || len(fig39.X) == 0 || fig39.Curves[0].Spec.RequestRate != 2000 {
		t.Fatalf("fig39 must sweep churn at one fixed rate: %+v", fig39)
	}
}

// TestMostlyIdleFigureRunAndFormat regenerates a scaled-down fig36 and fig39
// and checks the rendered tables carry the right axes.
func TestMostlyIdleFigureRunAndFormat(t *testing.T) {
	fig36 := mustFigure(t, "fig36")
	fig36.Curves = fig36.Curves[:2] // poll and devpoll suffice
	res := RunFigure(fig36, SweepOptions{Connections: 300, Rates: []float64{800}})
	if len(res.Runs) != 2 || len(res.Series) != 4 {
		t.Fatalf("fig36 runs=%d series=%d, want 2 runs / 4 series", len(res.Runs), len(res.Series))
	}
	out := Format(res)
	if !strings.Contains(out, "rate") || !strings.Contains(out, "devpoll (reply avg)") ||
		!strings.Contains(out, "connections: 300 per point") {
		t.Fatalf("fig36 table missing expected columns:\n%s", out)
	}

	fig39 := mustFigure(t, "fig39")
	fig39.Curves = fig39.Curves[:1]
	fig39.X = []float64{100, 400}
	res = RunFigure(fig39, SweepOptions{Connections: 200})
	if len(res.Runs) != 2 {
		t.Fatalf("fig39 runs = %d, want one per churn value", len(res.Runs))
	}
	if res.Runs[0].Spec.ChurnRate != 100 || res.Runs[1].Spec.ChurnRate != 400 {
		t.Fatalf("fig39 churn axis not applied: %v / %v",
			res.Runs[0].Spec.ChurnRate, res.Runs[1].Spec.ChurnRate)
	}
	out = Format(res)
	if !strings.Contains(out, "churn") {
		t.Fatalf("fig39 table missing the churn axis header:\n%s", out)
	}
}

// TestParallelMatchesSequentialMostlyIdle extends the engine's bit-equality
// contract to the two new traffic families: push and churn runs must produce
// byte-identical deterministic metrics at -threads 1, 2 and 8.
func TestParallelMatchesSequentialMostlyIdle(t *testing.T) {
	specs := []RunSpec{
		{Server: "push-epoll", Workload: "push", RequestRate: 1600, Connections: 1000},
		{Server: "push-poll", Workload: "push", RequestRate: 800, Connections: 500},
		{Server: "dht-epoll", Workload: "dhtchurn", RequestRate: 1000, Connections: 200},
		{Server: "dht-compio", Workload: "dhtchurn", RequestRate: 600, Connections: 150},
	}
	for _, spec := range specs {
		spec.Seed = 1
		requireThreadIndependent(t, string(spec.Server)+"/"+spec.Workload, spec)
	}
}
