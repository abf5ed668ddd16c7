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

// TestFigurePointErrors pins that a figure point the figure does not draw
// is an error naming the figure and the curve. (A retarget the figure cannot
// run is TestSweepRejectsDroppedMechanismOptions's.)
func TestFigurePointErrors(t *testing.T) {
	cases := []struct {
		ref  benchEntry
		want []string
	}{
		{drawn("x", "fig08", "nope", 1000), []string{"fig08", `"nope"`}},
		{drawn("x", "fig08", "thttpd-poll", 1050), []string{"fig08", `"thttpd-poll"`, "rate=1050"}},
		{drawn("x", "hints", "hints-on", 1), []string{"hints", `"hints-on"`, "variant=1"}},
	}
	for _, c := range cases {
		_, err := c.ref.resolve()
		if err == nil {
			t.Errorf("%s %q at %g: no error, want one naming %v", c.ref.fig, c.ref.curve, c.ref.x, c.want)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s %q at %g: error %q does not name %s", c.ref.fig, c.ref.curve, c.ref.x, err, w)
			}
		}
	}
}
