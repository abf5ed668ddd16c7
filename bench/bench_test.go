package main

import (
	"bytes"
	"flag"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/eventlib"
	"repro/internal/experiments"
	"repro/internal/simtest"
)

// smokeBudget is the request budget of the in-process smoke runs.
const smokeBudget = 2000

func testConfig(t *testing.T) *benchConfig {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig(root)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func smokeRun(t *testing.T, name string, traced bool) (outputs, *tracer) {
	t.Helper()
	spec, err := workloadSpec(name, smokeBudget, 1)
	if err != nil {
		t.Fatal(err)
	}
	var tr *tracer
	if traced {
		var restore func()
		tr, restore = installTracer()
		defer restore()
	}
	res, err := experiments.RunE(spec)
	if err != nil {
		t.Fatal(err)
	}
	return outputsOf(res), tr
}

// Every workload runs at a small budget with no failed operation, balanced
// books, and the same outputs with the tracer installed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range testConfig(t).Workloads {
		t.Run(w.Name, func(t *testing.T) {
			o, _ := smokeRun(t, w.Name, false)
			if o.Issued == 0 || o.Errors != 0 || o.Completed != o.Issued || o.LatencyCount != int64(o.Replies) {
				t.Fatalf("outputs %+v: want every issued operation completed, none failed", o)
			}
			traced, _ := smokeRun(t, w.Name, true)
			if traced != o {
				t.Fatalf("traced outputs %+v differ from untraced %+v", traced, o)
			}
		})
	}
}

// The poller wrapper replaces epoll and poll in place: a run on each backend
// goes through the wrapper, records spans for its own layer only, and leaves
// every simulated output, the mechanism counters included, unchanged.
func TestTracerTransparent(t *testing.T) {
	for _, c := range []struct{ workload, layer, other string }{
		{"churn-epoll", "epoll", "stockpoll"},
		{"poll-scan", "stockpoll", "epoll"},
	} {
		t.Run(c.layer, func(t *testing.T) {
			plain, _ := smokeRun(t, c.workload, false)
			traced, tr := smokeRun(t, c.workload, true)
			if traced != plain {
				t.Fatalf("traced outputs %+v differ from untraced %+v", traced, plain)
			}
			spans := tr.result(nil, 0).Spans
			s := spans[c.layer]
			// Every dispatch iteration is one handler span; the run stops
			// with at most one Wait and its handler still outstanding.
			if s.HandlerCalls < plain.Loops || s.HandlerCalls > plain.Loops+1 ||
				s.WaitCalls < s.HandlerCalls || s.WaitCalls > s.HandlerCalls+1 || s.CtlCalls == 0 {
				t.Fatalf("%s spans %+v: want one Wait and one handler span per dispatch iteration (%d) and ctl spans",
					c.layer, s, plain.Loops)
			}
			if s.HandlerSelfNs > s.HandlerNs || s.WaitNs <= 0 {
				t.Fatalf("%s spans %+v: self time must not exceed inclusive time", c.layer, s)
			}
			if o := spans[c.other]; o != (spanStats{}) {
				t.Fatalf("%s recorded spans %+v on a %s run", c.other, o, c.layer)
			}
		})
	}
	// The registry is restored once a traced run ends.
	for _, tb := range tracedBackends {
		b, _ := eventlib.Lookup(tb.backend)
		env := simtest.NewEnv()
		if _, wrapped := b.Open(env.K, env.P).(*tracedPoller); wrapped {
			t.Fatalf("backend %s is still wrapped", tb.backend)
		}
	}
}

// Each layer case runs one iteration without failing.
func TestLayerCases(t *testing.T) {
	testing.Init()
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = flag.Set("test.benchtime", prev) }()
	for _, c := range layerCases {
		if r := testing.Benchmark(c.fn); r.N != 1 {
			t.Errorf("%s: ran %d iterations, want 1 (a failed case runs none)", c.name, r.N)
		}
	}
}

// Every per-layer metric BENCHMARK.json declares is computed, and nothing
// undeclared is.
func TestPerLayerNamesMatchConfig(t *testing.T) {
	cfg := testConfig(t)
	layers := map[string]float64{}
	for _, c := range layerCases {
		layers[c.name+"_ns"], layers[c.name+"_allocs"] = 1, 1
	}
	traced := childResult{Trace: &traceResult{Samples: map[string]int64{}}}
	wr := &workloadRuns{name: "churn-epoll", budget: 1, timed: []childResult{{}}, traced: []childResult{traced}}
	got := wr.perLayer(layers)
	declared := map[string]bool{}
	for _, d := range cfg.PerLayer {
		declared[d.Name] = true
		if _, ok := got[d.Name]; !ok {
			t.Errorf("declared per-layer metric %s is not computed", d.Name)
		}
	}
	for name := range got {
		if !declared[name] {
			t.Errorf("computed per-layer metric %s is not declared in %s", name, configName)
		}
	}
}

// A child timed while the reference loop ran twice as slow as on the
// reference host reports half its measured wall time.
func TestScaledWall(t *testing.T) {
	c := childResult{WallS: 3, RefWallS: 2 * referenceWallS}
	if got := childMetrics["wall_s"](c); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("wall_s = %v, want 1.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(xs, n=4) in Python 3.
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := func(m float64) summary { return summarize("s", []float64{m * 0.99, m, m * 1.01}) }
	noisy := summarize("s", []float64{0.5, 1, 1.5})
	for _, c := range []struct {
		name   string
		a, b   summary
		higher bool
		want   string
	}{
		{"same", steady(1), steady(1), false, verdictOK},
		{"faster", steady(1), steady(0.5), false, verdictOK},
		{"within bound", steady(1), steady(1.05), false, verdictOK},
		{"slower past bound", steady(1), steady(1.2), false, verdictWorse},
		{"higher is better, dropped", steady(100), steady(80), true, verdictWorse},
		{"higher is better, rose", steady(100), steady(130), true, verdictOK},
		{"noisy baseline", noisy, steady(1.2), false, verdictUnresolved},
		{"noisy candidate", steady(1), noisy, false, verdictUnresolved},
	} {
		if got := verdict(c.a, c.b, 0.1, c.higher); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRepoLayer(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/netsim.(*Network).ConnectWith":        "netsim",
		"repro/internal/servers/thttpd.(*Server).Start.func1": "thttpd",
		"repro/internal/simkernel.NewSimulator":               "simkernel",
		"repro/internal/interest.(*Table).Each":               "interest",
		"runtime.mallocgc":                                    "",
		"main.(*tracedPoller).Wait":                           "",
	} {
		if got := repoLayer(name); got != want {
			t.Errorf("repoLayer(%q) = %q, want %q", name, got, want)
		}
	}
}

var spin uint64

// A real CPU profile decodes, and samples outside the repository's packages
// land in the runtime buckets.
func TestAttributeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := uint64(0); i < 1000; i++ {
			spin = spin*31 + i
		}
	}
	pprof.StopCPUProfile()
	counts, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for bucket, n := range counts {
		total += n
		if bucket != bucketOther && bucket != bucketGC {
			t.Errorf("%d samples attributed to %q from a loop outside the repository", n, bucket)
		}
	}
	if total == 0 {
		t.Fatal("no samples decoded from a 300 ms busy loop")
	}
	if _, err := attributeProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}
