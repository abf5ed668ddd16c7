package experiments

import (
	"fmt"
	"reflect"
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
