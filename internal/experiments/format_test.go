package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFormatGolden pins the rendered table bytes of five small figures, one
// per layout: a reply-rate figure, an errors figure, a fault-axis figure with
// fractional x values, a workers-axis figure and an ablation. The golden
// files are the `benchfig -quiet` output of the same sweeps taken before the
// figure types were unified (so the options mirror benchfig's defaults; the
// ablation's drops the blank line its own printer appended); a change to the
// runner or the formatter that moves a byte fails here.
func TestFormatGolden(t *testing.T) {
	cases := []struct {
		golden string
		fig    string
		opts   SweepOptions
	}{
		{"rate-fig05", "5", SweepOptions{Connections: 300, Rates: []float64{600, 900}}},
		{"errors-fig10", "10", SweepOptions{Connections: 400, Rates: []float64{1000, 1100}}},
		{"fault-fig40", "40", SweepOptions{Connections: 300}},
		{"workers-fig17", "17", SweepOptions{Connections: 3000, Workers: []int{1, 2}}},
		{"variant-hints", "hints", SweepOptions{Connections: 400}},
	}
	for _, c := range cases {
		c.opts.Faults.Seed = 1 // benchfig's -fault-seed default
		want, err := os.ReadFile(filepath.Join("testdata", "format", c.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := Format(RunFigure(mustFigure(t, c.fig), c.opts)); got != string(want) {
			t.Errorf("%s: table changed\ngot:\n%s\nwant:\n%s", c.golden, got, want)
		}
	}
}
