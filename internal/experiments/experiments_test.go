package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/compio"
	"repro/internal/devpoll"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/servers/hybrid"
)

// testConns keeps the integration runs quick while staying long enough to
// reach steady state.
const testConns = 1500

func spec(server ServerKind, rate float64, inactive int) RunSpec {
	s := DefaultSpec(server, rate, inactive)
	s.Connections = testConns
	return s
}

func TestRunProducesConsistentAccounting(t *testing.T) {
	res := Run(spec(ServerThttpdDevPoll, 600, 1))
	if res.Load.Issued != testConns {
		t.Fatalf("issued = %d", res.Load.Issued)
	}
	if res.Load.Completed+res.Load.Errors != res.Load.Issued {
		t.Fatalf("accounting: %+v", res.Load)
	}
	if res.Server.Served == 0 || res.EventLoops == 0 {
		t.Fatalf("server stats empty: %+v loops=%d", res.Server, res.EventLoops)
	}
	if res.CPUUtilization <= 0 || res.CPUUtilization > 1 {
		t.Fatalf("cpu utilization = %v", res.CPUUtilization)
	}
	if res.Primary.Waits == 0 {
		t.Fatalf("mechanism stats empty: %+v", res.Primary)
	}
	if Describe(res) == "" {
		t.Fatal("empty Describe")
	}
	if res.FinalMode != "devpoll" {
		t.Fatalf("final mode = %s", res.FinalMode)
	}
}

func TestRunDefaultsForZeroSpec(t *testing.T) {
	res := Run(RunSpec{Server: ServerThttpdPoll, RequestRate: 0, Connections: 0, Inactive: 0,
		MaxVirtualTime: 0})
	if res.Load.Issued == 0 {
		t.Fatal("defaults did not produce a run")
	}
}

// TestRunERejectsBadSpecs pins that RunE refuses a spec it cannot run as
// asked, naming the value, instead of substituting a default or running a
// configuration other than the one requested: a rate that is not finite or
// is negative, a negative connection or inactive count, and mechanism
// options the kind would drop. Zero still selects the documented defaults.
func TestRunERejectsBadSpecs(t *testing.T) {
	devOpts, ringOpts := devpoll.DefaultOptions(), compio.DefaultOptions()
	base := RunSpec{Server: ServerThttpdEpoll, RequestRate: 800, Connections: 200, Seed: 1}
	with := func(f func(*RunSpec)) RunSpec {
		s := base
		f(&s)
		return s
	}
	cases := []struct {
		name string
		spec RunSpec
		want string // substring of the error; empty means the run succeeds
	}{
		{"negative rate", with(func(s *RunSpec) { s.RequestRate = -5 }), "rate -5"},
		{"NaN rate", with(func(s *RunSpec) { s.RequestRate = math.NaN() }), "rate NaN"},
		{"infinite rate", with(func(s *RunSpec) { s.RequestRate = math.Inf(1) }), "rate +Inf"},
		{"negative connections", with(func(s *RunSpec) { s.Connections = -1 }), "connection count -1"},
		{"negative inactive", with(func(s *RunSpec) { s.Inactive = -3 }), "inactive count -3"},
		{"devpoll options on epoll", with(func(s *RunSpec) { s.DevPollOptions = &devOpts }), "DevPollOptions"},
		{"compio options on hybrid", with(func(s *RunSpec) {
			s.Server = "hybrid-compio"
			s.CompioOptions = &ringOpts
		}), "CompioOptions"},
		{"zero rate keeps the default", with(func(s *RunSpec) { s.RequestRate = 0 }), ""},
	}
	for _, c := range cases {
		res, err := RunE(c.spec)
		if c.want == "" {
			if err != nil || res.Load.Issued == 0 {
				t.Errorf("%s: err=%v issued=%d, want a run", c.name, err, res.Load.Issued)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err=%v, want one naming %q", c.name, err, c.want)
		}
	}
}

// The paper's headline result (Figures 8 vs 9, Figure 10): with 501 inactive
// connections, thttpd using /dev/poll sustains the offered load with few or no
// errors while stock poll() collapses, losing throughput and failing a large
// fraction of connections.
func TestDevPollBeatsStockPollUnderInactiveLoad(t *testing.T) {
	rate := 900.0
	poll := Run(spec(ServerThttpdPoll, rate, 501))
	dev := Run(spec(ServerThttpdDevPoll, rate, 501))

	if dev.Load.ReplyRate.Mean < 0.95*rate {
		t.Fatalf("devpoll should sustain ~%v replies/s, got %v", rate, dev.Load.ReplyRate.Mean)
	}
	if dev.Load.ErrorPercent > 1 {
		t.Fatalf("devpoll error rate = %v%%", dev.Load.ErrorPercent)
	}
	if poll.Load.ReplyRate.Mean > 0.85*rate {
		t.Fatalf("stock poll should fall well short of %v replies/s at load 501, got %v",
			rate, poll.Load.ReplyRate.Mean)
	}
	if poll.Load.ErrorPercent < 5 {
		t.Fatalf("stock poll should fail a significant fraction of connections, got %v%%",
			poll.Load.ErrorPercent)
	}
	if poll.Load.MedianLatencyMs < 5*dev.Load.MedianLatencyMs {
		t.Fatalf("stock poll median latency (%vms) should dwarf devpoll's (%vms)",
			poll.Load.MedianLatencyMs, dev.Load.MedianLatencyMs)
	}
	// The mechanism statistics explain why: every stock poll() call scans the
	// whole interest set (≈500+ driver callbacks per wait), while /dev/poll
	// with hints touches only the descriptors that changed.
	devPerWait := float64(dev.Primary.DriverPolls) / float64(dev.Primary.Waits)
	if devPerWait > 60 {
		t.Fatalf("devpoll driver polls per wait = %.0f, want only hinted descriptors", devPerWait)
	}
	if dev.Primary.HintHits == 0 {
		t.Fatal("devpoll hint machinery unused")
	}
	if poll.Primary.DriverPolls <= dev.Primary.DriverPolls {
		t.Fatalf("stock poll performed fewer driver polls (%d) than devpoll (%d)",
			poll.Primary.DriverPolls, dev.Primary.DriverPolls)
	}
}

// At a low inactive load every thttpd variant keeps up with a moderate
// request rate (Figures 4 and 5 below the breakdown point, plus the epoll
// extensions).
func TestThttpdVariantsKeepUpAtLowLoad(t *testing.T) {
	for _, server := range []ServerKind{
		ServerThttpdPoll, ServerThttpdDevPoll, ServerThttpdEpoll, ServerThttpdEpollET,
	} {
		res := Run(spec(server, 600, 1))
		if res.Load.ErrorPercent > 0.5 {
			t.Fatalf("%s errors = %v%%", server, res.Load.ErrorPercent)
		}
		if res.Load.ReplyRate.Mean < 570 {
			t.Fatalf("%s reply rate = %v", server, res.Load.ReplyRate.Mean)
		}
	}
}

// The epoll extension: under heavy inactive load, epoll (in either trigger
// mode) sustains the offered rate like /dev/poll does, while performing only
// O(ready) work per wait — far fewer driver polls than stock poll.
func TestEpollSustainsHeavyInactiveLoad(t *testing.T) {
	rate := 900.0
	poll := Run(spec(ServerThttpdPoll, rate, 501))
	for _, server := range []ServerKind{ServerThttpdEpoll, ServerThttpdEpollET} {
		res := Run(spec(server, rate, 501))
		if res.Load.ReplyRate.Mean < 0.95*rate {
			t.Fatalf("%s should sustain ~%v replies/s, got %v", server, rate, res.Load.ReplyRate.Mean)
		}
		if res.Load.ErrorPercent > 1 {
			t.Fatalf("%s error rate = %v%%", server, res.Load.ErrorPercent)
		}
		if res.Primary.Waits == 0 {
			t.Fatalf("%s mechanism stats empty", server)
		}
		perWait := float64(res.Primary.DriverPolls) / float64(res.Primary.Waits)
		if perWait > 60 {
			t.Fatalf("%s driver polls per wait = %.0f, want O(ready)", server, perWait)
		}
		if poll.Primary.DriverPolls <= res.Primary.DriverPolls {
			t.Fatalf("stock poll performed fewer driver polls (%d) than %s (%d)",
				poll.Primary.DriverPolls, server, res.Primary.DriverPolls)
		}
		wantMode := "epoll"
		if server == ServerThttpdEpollET {
			wantMode = "epoll-et"
		}
		if res.FinalMode != wantMode {
			t.Fatalf("%s final mode = %q", server, res.FinalMode)
		}
	}
}

// The hybrid server accepts epoll as its bulk mechanism and still survives
// overload with a tiny signal queue; with an aggressive crossover it actually
// engages the epoll bulk poller.
func TestHybridEpollSurvivesOverload(t *testing.T) {
	s := spec(ServerHybridEpoll, 1300, 251)
	s.RTQueueLimit = 16
	res := Run(s)
	if res.Load.ReplyRate.Mean < 1000 {
		t.Fatalf("hybrid-epoll throughput = %v, want epoll-class", res.Load.ReplyRate.Mean)
	}
	if res.Load.ErrorPercent > 10 {
		t.Fatalf("hybrid-epoll errors = %v%%", res.Load.ErrorPercent)
	}

	early := spec(ServerHybridEpoll, 1300, 251)
	cfg := hybrid.DefaultConfig()
	cfg.HighWater = 2
	early.HybridConfig = &cfg
	eres := Run(early)
	if eres.SwitchesToPoll == 0 {
		t.Fatal("hybrid-epoll never engaged its bulk poller despite HighWater=2")
	}
	if eres.Load.ReplyRate.Mean < 1000 {
		t.Fatalf("hybrid-epoll in polling mode throughput = %v", eres.Load.ReplyRate.Mean)
	}
}

// Figures 12/13: phhttpd degrades with inactive connections — worse than
// thttpd+/dev/poll under the same load — while remaining better than stock
// poll (its events still arrive one at a time rather than via full scans).
func TestPhhttpdSitsBetweenPollAndDevPollAt501(t *testing.T) {
	rate := 1000.0
	ph := Run(spec(ServerPhhttpd, rate, 501))
	dev := Run(spec(ServerThttpdDevPoll, rate, 501))
	poll := Run(spec(ServerThttpdPoll, rate, 501))

	if !(ph.Load.ReplyRate.Mean < dev.Load.ReplyRate.Mean) {
		t.Fatalf("phhttpd (%v) should trail devpoll (%v) at load 501",
			ph.Load.ReplyRate.Mean, dev.Load.ReplyRate.Mean)
	}
	if !(ph.Load.ReplyRate.Mean > poll.Load.ReplyRate.Mean) {
		t.Fatalf("phhttpd (%v) should beat stock poll (%v) at load 501",
			ph.Load.ReplyRate.Mean, poll.Load.ReplyRate.Mean)
	}
	if ph.Load.MedianLatencyMs <= dev.Load.MedianLatencyMs {
		t.Fatalf("phhttpd median latency (%v) should exceed devpoll's (%v) under overload",
			ph.Load.MedianLatencyMs, dev.Load.MedianLatencyMs)
	}
}

// The hybrid server (the paper's §4 design) should match or beat phhttpd
// under overload because its interest state is maintained concurrently and
// switching costs almost nothing.
func TestHybridHandlesOverloadGracefully(t *testing.T) {
	rate := 1000.0
	hy := Run(spec(ServerHybrid, rate, 501))
	ph := Run(spec(ServerPhhttpd, rate, 501))
	if hy.Load.ReplyRate.Mean < ph.Load.ReplyRate.Mean {
		t.Fatalf("hybrid (%v) should not trail phhttpd (%v) under overload",
			hy.Load.ReplyRate.Mean, ph.Load.ReplyRate.Mean)
	}
	if hy.Load.ErrorPercent > ph.Load.ErrorPercent+1 {
		t.Fatalf("hybrid errors (%v%%) should not exceed phhttpd's (%v%%)",
			hy.Load.ErrorPercent, ph.Load.ErrorPercent)
	}
}

// Sustained extreme overload must not break the hybrid even when the RT
// signal queue is tiny: overflow either switches it to /dev/poll (cheaply,
// because the interest set was maintained all along) or is absorbed without
// losing connections beyond what the offered load itself forces.
func TestHybridSurvivesTinySignalQueueUnderOverload(t *testing.T) {
	s := spec(ServerHybrid, 1300, 251)
	s.RTQueueLimit = 16
	res := Run(s)
	if res.Load.ReplyRate.Mean < 1000 {
		t.Fatalf("hybrid throughput = %v, want /dev/poll-class", res.Load.ReplyRate.Mean)
	}
	if res.Load.ErrorPercent > 10 {
		t.Fatalf("hybrid errors = %v%%", res.Load.ErrorPercent)
	}
	if res.Server.Served == 0 || res.Load.Completed == 0 {
		t.Fatalf("hybrid served nothing: %+v", res.Server)
	}
}

func TestFigureDefinitionsCoverPaper(t *testing.T) {
	figs := Figures()
	if len(figs) != 40 {
		t.Fatalf("figures = %d, want 40 (FIG 4 through FIG 43)", len(figs))
	}
	for i, f := range figs {
		if f.Number != 4+i {
			t.Fatalf("figure %d at position %d: the registry must run in number order", f.Number, i)
		}
		if f.ID == "" || f.Title == "" || f.Paper == "" || len(f.Curves) == 0 || len(f.X) == 0 {
			t.Fatalf("incomplete figure: %+v", f)
		}
		for _, c := range f.Curves {
			if _, err := resolveKind(c.Spec.Server); err != nil {
				t.Fatalf("%s curve %q: %v", f.ID, c.Label, err)
			}
			if _, ok := loadgen.LookupWorkload(c.Spec.Workload); !ok {
				t.Fatalf("%s curve %q names unknown workload %q", f.ID, c.Label, c.Spec.Workload)
			}
		}
	}
	for _, id := range []string{"fig10", "14", " FIG16 ", "43"} {
		if _, err := FigureByID(id); err != nil {
			t.Fatalf("FigureByID(%q): %v", id, err)
		}
	}
	for _, id := range []string{"nope", "99", "3", ""} {
		if _, err := FigureByID(id); err == nil || !strings.Contains(err.Error(), "choices: 4..43") {
			t.Fatalf("FigureByID(%q) error = %v, want the listed choices", id, err)
		}
	}
	if len(ServerKinds()) != 27 {
		t.Fatalf("ServerKinds = %d, want the paper's four plus the registry-derived extensions, the prefork sizes and the push/dht families", len(ServerKinds()))
	}
	kinds := map[ServerKind]bool{}
	for _, k := range ServerKinds() {
		kinds[k] = true
		if _, err := resolveKind(k); err != nil {
			t.Fatalf("listed kind %q does not validate: %v", k, err)
		}
	}
	for _, want := range []ServerKind{
		ServerThttpdEpoll, ServerThttpdEpollET, ServerKind("thttpd-rtsig"),
		ServerHybridEpoll, ServerKind("hybrid-epoll-et"),
		ServerThttpdCompio, ServerKind("hybrid-compio"),
		ServerKind("push-poll"), ServerKind("push-compio"),
		ServerKind("dht-poll"), ServerKind("dht-epoll-et"),
	} {
		if !kinds[want] {
			t.Fatalf("ServerKinds missing %q", want)
		}
	}
	if _, err := resolveKind("thttpd-kqueue"); err == nil ||
		!strings.Contains(err.Error(), "choices") {
		t.Fatalf("unknown kind error = %v, want listed choices", err)
	}
	if _, err := RunE(RunSpec{Server: "nope"}); err == nil {
		t.Fatal("RunE with an unknown kind should fail")
	}
	if kind, err := RetargetKind(ServerThttpdPoll, "epoll-et"); err != nil || kind != ServerThttpdEpollET {
		t.Fatalf("RetargetKind = %v, %v", kind, err)
	}
	if kind, err := RetargetKind(ServerHybridEpoll, "devpoll"); err != nil || kind != ServerHybrid {
		t.Fatalf("RetargetKind(hybrid-epoll, devpoll) = %v, %v", kind, err)
	}
	if kind, err := RetargetKind(ServerPhhttpd, "epoll"); err != nil || kind != ServerPhhttpd {
		t.Fatalf("RetargetKind(phhttpd, epoll) = %v, %v", kind, err)
	}
	if _, err := RetargetKind(ServerThttpdPoll, "kqueue"); err == nil {
		t.Fatal("RetargetKind with an unknown backend should fail")
	}
	for _, m := range []MetricKind{MetricReplyRate, MetricErrorPercent, MetricMedianLatency, MetricReplyP99, MetricReplyCPU, MetricVariants, MetricKind(99)} {
		if m.String() == "" {
			t.Fatal("metric string empty")
		}
	}
}

func TestRunFigureAndFormat(t *testing.T) {
	fig := mustFigure(t, "fig05")
	res := RunFigure(fig, SweepOptions{Connections: 800, Rates: []float64{600, 900}, Progress: t.Logf})
	// One curve × (avg, min, max) series.
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	for _, s := range res.Series {
		if s.Len() != 2 {
			t.Fatalf("series %q has %d points", s.Label, s.Len())
		}
	}
	out := Format(res)
	if !strings.Contains(out, "FIGURE 5") || !strings.Contains(out, "600") {
		t.Fatalf("format output:\n%s", out)
	}

	// An error-percent figure produces one series per curve.
	fig10 := mustFigure(t, "fig10")
	res10 := RunFigure(fig10, SweepOptions{Connections: 600, Rates: []float64{900}})
	if len(res10.Series) != len(fig10.Curves) {
		t.Fatalf("fig10 series = %d", len(res10.Series))
	}
	if !strings.Contains(Format(res10), "errors") {
		t.Fatal("fig10 format missing metric")
	}
}

func TestAblationDefinitionsAndRun(t *testing.T) {
	abls := Ablations()
	if len(abls) < 5 {
		t.Fatalf("ablations = %d", len(abls))
	}
	ids := map[string]bool{}
	for _, a := range abls {
		if a.ID == "" || a.Title == "" || len(a.Curves) < 2 {
			t.Fatalf("incomplete ablation %+v", a)
		}
		for _, c := range a.Curves {
			if c.Spec.Connections != 0 {
				t.Fatalf("%s/%s pins %d connections; the sweep's count must apply", a.ID, c.Label, c.Spec.Connections)
			}
		}
		ids[a.ID] = true
	}
	for _, want := range []string{"hints", "mmap", "sigtimedwait4", "hybrid-vs-phhttpd", "compio-batch", "compio-regbuf"} {
		if !ids[want] {
			t.Fatalf("ablation %q missing", want)
		}
	}
	if _, err := FigureByID("nope"); err == nil || !strings.Contains(err.Error(), "choices: hints, mmap") {
		t.Fatalf("FigureByID(nope) error = %v, want the listed ablation choices", err)
	}

	// Run the cheapest meaningful ablation end to end at the default size.
	res := RunFigure(mustFigure(t, "hints"), SweepOptions{})
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	for _, r := range res.Runs {
		if r.Spec.Connections != 4000 {
			t.Fatalf("%s ran %d connections, want the 4000 default", r.Spec.Server, r.Spec.Connections)
		}
	}
	// Hints must reduce driver poll callbacks dramatically.
	on, off := res.Runs[0], res.Runs[1]
	if on.Primary.DriverPolls*5 > off.Primary.DriverPolls {
		t.Fatalf("hints-on driver polls (%d) should be far below hints-off (%d)",
			on.Primary.DriverPolls, off.Primary.DriverPolls)
	}
	if !strings.Contains(Format(res), "ABLATION hints") {
		t.Fatal("ablation table missing id")
	}
}

// TestEveryAblationDistinguishesItsVariants runs every ablation at the
// default size: a study whose variants all print the same row measures
// nothing. The three hybrid studies must also see the hybrid switch to its
// bulk poller, or they never exercise what they compare.
func TestEveryAblationDistinguishesItsVariants(t *testing.T) {
	for _, a := range Ablations() {
		res := RunFigure(a, SweepOptions{})
		rows := map[string]bool{}
		lines := strings.Split(strings.TrimSpace(Format(res)), "\n")
		for _, line := range lines[3:] { // after the id, description and header
			fields := strings.Fields(line)
			rows[strings.Join(fields[1:], " ")] = true
		}
		if len(rows) < 2 {
			t.Errorf("ablation %s: every variant prints the same row:\n%s", a.ID, Format(res))
		}
		if a.ID == "hybrid-threshold" || a.ID == "hybrid-bulk-mechanism" || a.ID == "hybrid-vs-phhttpd" {
			switched := false
			for _, r := range res.Runs {
				switched = switched || r.SwitchesToPoll > 0
			}
			if !switched {
				t.Errorf("ablation %s: no variant switched to its bulk poller", a.ID)
			}
		}
	}
}

// TestAblationHonoursSweepOptions pins that the sweep options reach an
// ablation: a different load-generator seed and a fault plane each change
// the hints table, while the thread count, which never moves a figure, does
// not.
func TestAblationHonoursSweepOptions(t *testing.T) {
	hints := mustFigure(t, "hints")
	table := func(opts SweepOptions) string {
		opts.Connections = 400
		return Format(RunFigure(hints, opts))
	}
	base := table(SweepOptions{})
	if table(SweepOptions{Seed: 2}) == base {
		t.Error("seed 2 left the hints table unchanged")
	}
	if table(SweepOptions{Faults: faults.Config{Seed: 1, ResetRate: 0.3}}) == base {
		t.Error("a 30% reset rate left the hints table unchanged")
	}
	if got := table(SweepOptions{Threads: 2}); got != base {
		t.Errorf("2 threads changed the hints table\ngot:\n%s\nwant:\n%s", got, base)
	}
}

// TestSweepRejectsDroppedMechanismOptions pins that sweep options which
// cannot run as asked fail instead of printing rows labelled with a
// configuration that never ran: a backend retarget that would drop a curve's
// /dev/poll or completion-ring options (naming the figure, the curve and the
// option), and a rate or connection count Run would silently replace
// (naming the value).
func TestSweepRejectsDroppedMechanismOptions(t *testing.T) {
	cases := []struct {
		fig  string
		opts SweepOptions
		want []string // substrings of the error; none means valid
	}{
		{"hints", SweepOptions{Backend: "epoll"}, []string{"hints", `"hints-off"`, "DevPollOptions"}},
		{"compio-batch", SweepOptions{Backend: "epoll"}, []string{"compio-batch", `"sq-1"`, "CompioOptions"}},
		{"compio-regbuf", SweepOptions{Backend: "devpoll"}, []string{"compio-regbuf", `"registered"`, "CompioOptions"}},
		{"compio-batch", SweepOptions{Backend: "compio"}, nil},
		{"hints", SweepOptions{Backend: "devpoll"}, nil},
		{"hybrid-threshold", SweepOptions{Backend: "epoll"}, nil},
		{"16", SweepOptions{Backend: "epoll"}, nil},
		{"8", SweepOptions{Rates: []float64{-5}}, []string{"fig08", "rate -5"}},
		{"8", SweepOptions{Rates: []float64{600, 0}}, []string{"fig08", "rate 0"}},
		{"8", SweepOptions{Rates: []float64{math.NaN()}}, []string{"fig08", "rate NaN"}},
		{"8", SweepOptions{Rates: []float64{math.Inf(1)}}, []string{"fig08", "rate +Inf"}},
		{"40", SweepOptions{Rates: []float64{-900}}, []string{"fig40", "rate -900"}},
		{"8", SweepOptions{Connections: -5}, []string{"fig08", "connection count -5"}},
		{"hints", SweepOptions{Connections: -1}, []string{"hints", "connection count -1"}},
		{"8", SweepOptions{Rates: []float64{600, 1e6}, Connections: 1}, nil},
	}
	for _, c := range cases {
		_, err := mustFigure(t, c.fig).Points(c.opts)
		if c.want == nil {
			if err != nil {
				t.Errorf("%s with %+v: %v", c.fig, c.opts, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s with %+v: no error, want one naming %v", c.fig, c.opts, c.want)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s with %+v: error %q does not name %s", c.fig, c.opts, err, w)
			}
		}
	}
}

// TestCompioAblationEffects checks the directional claims behind the two
// compio ablations at a reduced run size: deeper Enter batching and
// registered buffers must each lower the virtual-time CPU cost of serving
// the same workload. (The exact per-operation charges are pinned by the
// compio and netsim unit tests; at the full-size 1300 req/s knee the effect
// surfaces as a monotone median-latency improvement.)
func TestCompioAblationEffects(t *testing.T) {
	small := SweepOptions{Connections: 800}
	batch := mustFigure(t, "compio-batch")
	batch.Curves = []Curve{batch.Curves[0], batch.Curves[len(batch.Curves)-1]} // sq-1, sq-64
	runs := RunFigure(batch, small).Runs
	shallow, deep := runs[0], runs[1]
	if shallow.CPUUtilization <= deep.CPUUtilization {
		t.Fatalf("sq-1 cpu %.4f should exceed sq-64 cpu %.4f: batching amortises the Enter syscall",
			shallow.CPUUtilization, deep.CPUUtilization)
	}

	runs = RunFigure(mustFigure(t, "compio-regbuf"), small).Runs
	registered, unregistered := runs[0], runs[1]
	if registered.CPUUtilization >= unregistered.CPUUtilization {
		t.Fatalf("registered cpu %.4f should be below unregistered cpu %.4f: registered buffers skip the read copy",
			registered.CPUUtilization, unregistered.CPUUtilization)
	}
}

func mustFigure(t *testing.T, id string) Figure {
	t.Helper()
	f, err := FigureByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
