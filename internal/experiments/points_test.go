package experiments

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestBenchPoints pins the gated table's shape: unique ids, every figure
// reference resolves, and no explicit spec hand-copies a point some figure
// or ablation draws (such a point must name the figure, so it cannot drift).
func TestBenchPoints(t *testing.T) {
	// normal drops what a figure point and a hand-written spec may
	// legitimately differ in: the seed the sweep fills in, and the empty
	// name of the constant workload.
	normal := func(s RunSpec) RunSpec {
		s.Seed = 0
		if s.Workload == "constant" {
			s.Workload = ""
		}
		return s
	}
	type point struct {
		at   string
		spec RunSpec
	}
	var drawn []point
	for _, f := range append(Figures(), Ablations()...) {
		points, err := f.Points(SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			drawn = append(drawn, point{fmt.Sprintf("%s curve %q at %s=%g", f.ID, p.Curve, f.Axis, p.X), normal(p.Spec)})
		}
	}

	table := benchTable()
	ids := map[string]bool{}
	refs := 0
	for _, e := range table {
		if ids[e.id] {
			t.Errorf("duplicate id %s", e.id)
		}
		ids[e.id] = true
		spec, err := e.resolve()
		if err != nil {
			t.Errorf("%s: %v", e.id, err)
			continue
		}
		if e.fig != "" {
			refs++
			continue
		}
		for _, d := range drawn {
			if reflect.DeepEqual(normal(spec), d.spec) {
				t.Errorf("%s hand-copies %s; name the figure point instead", e.id, d.at)
			}
		}
	}
	if refs == 0 {
		t.Fatal("no gated point names a figure")
	}
	if t.Failed() {
		return // BenchPoints panics on a reference that does not resolve
	}
	got := BenchPoints()
	if len(got) != len(table) {
		t.Fatalf("BenchPoints = %d points, table has %d", len(got), len(table))
	}
	for i, p := range got {
		if p.ID != table[i].id || p.Spec.Server == "" {
			t.Fatalf("point %d = %+v, want table entry %s", i, p, table[i].id)
		}
	}
}

// TestFigurePointErrors pins that a point the figure does not draw is an
// error naming the figure and the curve, listing the figure's curves for an
// unknown curve and the axis values for an x off the axis, whether the
// gated table or benchfig -cell asks; and that -cell without exactly one
// figure, or with -ablation, names the value. (A retarget the figure cannot
// run is TestSweepRejectsDroppedMechanismOptions's.)
func TestFigurePointErrors(t *testing.T) {
	// result is one failing lookup: the call as the error message names it.
	type result struct {
		call string
		err  error
	}
	ref := func(fig, curve string, x float64) result {
		_, err := drawn("x", fig, curve, x).resolve()
		return result{fmt.Sprintf("gated point %s %q at %g", fig, curve, x), err}
	}
	cell := func(figs string, ablation bool, cell string) result {
		_, err := ResolveCell(figs, ablation, cell, SweepOptions{})
		return result{fmt.Sprintf("benchfig -fig %q -ablation=%t -cell %q", figs, ablation, cell), err}
	}
	// The push workload on figure 8's HTTP server, for the whole figure and
	// for one cell: both fail before anything runs, naming the pairing.
	push := SweepOptions{Connections: 300, Workload: "push"}
	_, pushSweepErr := mustFigure(t, "8").Points(push)
	_, pushCellErr := ResolveCell("8", false, "thttpd-poll@1000", push)
	pairing := []string{"fig08", `"thttpd-poll"`, `server family "thttpd"`, `workload "push"`}
	cases := []struct {
		got  result
		want []string
	}{
		{ref("fig08", "nope", 1000), []string{"fig08", `"nope"`, `choices: "thttpd-poll"`}},
		{ref("fig08", "thttpd-poll", 1050), []string{"fig08", `"thttpd-poll"`, "rate=1050", "choices: 500, 600, 700, 800, 900, 1000, 1100"}},
		{ref("hints", "hints-on", 1), []string{"hints", `"hints-on"`, "variant=1", "choices: 0"}},
		{cell("10", false, "nope@500"), []string{"fig10", `"nope"`, `"normal poll, load 251", "devpoll, load 251", "normal poll, load 501", "devpoll, load 501"`}},
		{cell("17", false, "handoff@2"), []string{"fig17", `"handoff"`, `choices: "reuseport-hash"`}},
		{cell("17", false, "reuseport-hash@3"), []string{"fig17", `"reuseport-hash"`, "workers=3", "choices: 1, 2, 4, 8"}},
		{cell("8", false, "thttpd-poll"), []string{"fig08", `"thttpd-poll"`, "<curve>@<rate>"}},
		{cell("8", false, "thttpd-poll@fast"), []string{"fig08", `"thttpd-poll@fast"`}},
		{cell("8,9", false, "thttpd-poll@1000"), []string{`"8,9"`, `"thttpd-poll@1000"`}},
		{cell("", false, "thttpd-poll@1000"), []string{"-fig", `"thttpd-poll@1000"`}},
		{cell("hints", true, "hints-off"), []string{"-ablation", `"hints-off"`}},
		{cell("99", false, "thttpd-poll@1000"), []string{`"99"`, "choices: 4..43"}},
		{result{"benchfig -fig 8 -connections 300 -workload push", pushSweepErr}, pairing},
		{result{`benchfig -fig 8 -connections 300 -workload push -cell "thttpd-poll@1000"`, pushCellErr}, pairing},
	}
	for _, c := range cases {
		if c.got.err == nil {
			t.Errorf("%s: no error, want one naming %v", c.got.call, c.want)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(c.got.err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", c.got.call, c.got.err, w)
			}
		}
	}
}

// benchPinsPath is TestBenchPointPins's golden: the Go release that wrote it,
// then one line per gated point in table order.
const benchPinsPath = "testdata/benchpoints.golden"

// benchPin is one gated point's pinned run: the simulated fields (reply rate,
// p99 ms and err% at full precision, then executed events) and the heap
// allocation count.
type benchPin struct {
	id     string
	sim    string
	allocs uint64
}

func pinOf(id string, res RunResult, allocs uint64) benchPin {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	sim := fmt.Sprintf("%s %s %s %d", g(res.Load.ReplyRate.Mean), g(res.Latency.P99), g(res.Load.ErrorPercent), res.Events)
	return benchPin{id: id, sim: sim, allocs: allocs}
}

func (p benchPin) String() string { return fmt.Sprintf("%-44s %s %d", p.id, p.sim, p.allocs) }

// goRelease is the running Go release without its patch number ("go1.24"):
// allocation counts are a property of the code and of the compiler and
// runtime that build it.
func goRelease() string {
	v := runtime.Version()
	if parts := strings.SplitN(v, ".", 3); len(parts) == 3 {
		return parts[0] + "." + parts[1]
	}
	return v
}

// readBenchPins parses benchPinsPath.
func readBenchPins(t testing.TB) (release string, pins []benchPin) {
	t.Helper()
	data, err := os.ReadFile(benchPinsPath)
	if err != nil {
		t.Fatalf("%v (go test -run TestBenchPointPins -update writes it)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || f[0] == "#":
		case len(f) == 2 && f[0] == "release":
			release = f[1]
		case len(f) == 6:
			allocs, err := strconv.ParseUint(f[5], 10, 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", benchPinsPath, line, err)
			}
			pins = append(pins, benchPin{id: f[0], sim: strings.Join(f[1:5], " "), allocs: allocs})
		default:
			t.Fatalf("%s: malformed line %q", benchPinsPath, line)
		}
	}
	return release, pins
}

// TestBenchPointPins runs every gated point once, at seed 1 on the sequential
// engine, and holds it to its line in benchPinsPath. Reply rate, p99, err%
// and executed events must match exactly. The run's heap allocation count
// must stay within allocSlack of the pin either way, so a pin that has gone
// stale fails as surely as a regression. A count outside the band is measured
// twice more and the minimum kept, so one-time warm-up (a package table's
// first use) does not fail it. Allocation counts move with the Go release, so
// they are compared only on the release that wrote the golden and logged on
// any other. -update rewrites the golden, pinning the minimum count of three
// runs.
//
// Under -short and under the race detector, the points of 10,000 connections
// or more are skipped and allocations are not compared. The test must not run
// parallel with another: malloc counts are process-wide.
func TestBenchPointPins(t *testing.T) {
	const allocSlack = 0.10
	reduced := testing.Short() || raceEnabled
	if *update && reduced {
		t.Fatal("-update pins every point: run it without -short and -race")
	}
	points := BenchPoints()
	var release string
	var pins []benchPin
	if !*update {
		release, pins = readBenchPins(t)
		for i := 0; i < max(len(points), len(pins)); i++ {
			if i >= len(points) || i >= len(pins) || pins[i].id != points[i].ID {
				t.Fatalf("%s line %d does not pin BenchPoints()[%d]: %d pins for %d points (go test -run TestBenchPointPins -update rewrites it)",
					benchPinsPath, i+1, i, len(pins), len(points))
			}
		}
	}
	checkAllocs := !reduced && release == goRelease()
	var got []benchPin
	for i, p := range points {
		t.Run(p.ID, func(t *testing.T) {
			if reduced && p.Spec.Connections >= 10000 {
				t.Skip("10,000 connections or more: skipped under -short and -race")
			}
			spec := p.Spec
			spec.Seed, spec.Threads = 1, 1
			allocs, res := mallocsOf(spec)
			remeasure := func() {
				for k := 0; k < 2; k++ {
					if a, _ := mallocsOf(spec); a < allocs {
						allocs = a
					}
				}
			}
			if *update {
				remeasure()
				got = append(got, pinOf(p.ID, res, allocs))
				return
			}
			want := pins[i]
			if sim := pinOf(p.ID, res, allocs).sim; sim != want.sim {
				t.Errorf("replies/s p99-ms err%% events = %s, pinned %s", sim, want.sim)
			}
			if !checkAllocs {
				t.Logf("allocs %d, pinned %d on %s: not compared on %s", allocs, want.allocs, release, goRelease())
				return
			}
			inBand := func() bool {
				return math.Abs(float64(allocs)-float64(want.allocs)) <= allocSlack*float64(want.allocs)
			}
			if !inBand() {
				remeasure()
			}
			if !inBand() {
				t.Errorf("allocs = %d (least of three runs), pinned %d ±%.0f%% (a fall re-pins too: go test -run TestBenchPointPins -update)",
					allocs, want.allocs, 100*allocSlack)
			}
		})
	}
	if !*update {
		return
	}
	if len(got) != len(points) {
		t.Fatalf("-update ran %d of %d points: run it without a subtest filter", len(got), len(points))
	}
	var b strings.Builder
	b.WriteString("# go test -run TestBenchPointPins -update rewrites this file.\n")
	fmt.Fprintf(&b, "release %s\n", goRelease())
	fmt.Fprintf(&b, "# %-42s replies/s p99-ms err%% events allocs\n", "id")
	for _, p := range got {
		fmt.Fprintln(&b, p)
	}
	if err := os.WriteFile(benchPinsPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPointThreads4 runs every gated point on the sharded kernel at four
// threads and fails when its reply rate, p99 or err% differs at all from the
// sequential pin in benchPinsPath: the parallel engine promises bit-equal
// simulated results. Events are not compared; sharded runs add lane events.
// `make bench-crosscheck` runs it once per point.
func BenchmarkPointThreads4(b *testing.B) {
	// The simulated fields without the trailing event count.
	noEvents := func(sim string) string { return sim[:strings.LastIndexByte(sim, ' ')] }
	_, pins := readBenchPins(b)
	pinned := map[string]string{}
	for _, p := range pins {
		pinned[p.id] = noEvents(p.sim)
	}
	for _, p := range BenchPoints() {
		spec := p.Spec
		spec.Seed, spec.Threads = 1, 4
		b.Run(p.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := Run(spec)
				if got := noEvents(pinOf(p.ID, res, 0).sim); got != pinned[p.ID] {
					b.Fatalf("threads=%d: replies/s p99-ms err%% = %s, sequential pin %s", res.Threads, got, pinned[p.ID])
				}
			}
		})
	}
}
