package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faults"
)

var update = flag.Bool("update", false, "rewrite testdata/figures from the current code and delete stale goldens")

// goldenDir holds one golden per figureGolden.
const goldenDir = "testdata/figures"

// smallConnections lists the figures whose small golden runs at more than
// 600 connections. At 600 their runs are shorter than one reply-rate sample
// interval, so whole points print a 0.0 reply rate; each size below is the
// smallest at which no cell is zero.
var smallConnections = map[int]int{
	17: 2000, // prefork worker scaling: every point at 2+ workers
	18: 2000, // accept-sharding policies
	25: 2000, // prefork worker counts under flash crowds
	36: 8000, // server push at 10000 members: every rate above 1000
	37: 2000, // server push at 100000 members
}

// figureGolden is one benchfig invocation whose stdout a golden file holds
// byte for byte.
type figureGolden struct {
	fig         Figure
	connections int       // -connections; zero keeps the figure's own size
	rates       []float64 // -rates
	workers     []int     // -workers
}

// figureGoldens lists every golden: each figure at its small size, each
// figure of the default sweep and each ablation at its own size, and the
// sweep options no figure golden runs (-rates on a rate and an errors
// figure, -workers on a workers figure). Fig 41's fault axis is flat at 600
// connections (every fdlimit row is identical); its own-size golden is what
// pins that axis.
func figureGoldens() []figureGolden {
	var gs []figureGolden
	for _, f := range Figures() {
		c := smallConnections[f.Number]
		if c == 0 {
			c = 600
		}
		gs = append(gs, figureGolden{fig: f, connections: c})
	}
	for _, f := range Figures() {
		if !f.Pinned() {
			gs = append(gs, figureGolden{fig: f})
		}
	}
	for _, a := range Ablations() {
		gs = append(gs, figureGolden{fig: a})
	}
	fig := func(id string) Figure {
		f, err := FigureByID(id)
		if err != nil {
			panic(err)
		}
		return f
	}
	return append(gs,
		figureGolden{fig: fig("5"), connections: 300, rates: []float64{600, 900}},
		figureGolden{fig: fig("10"), connections: 400, rates: []float64{1000, 1100}},
		figureGolden{fig: fig("17"), connections: 3000, workers: []int{1, 2}},
	)
}

// args renders the benchfig invocation.
func (g figureGolden) args() string {
	id := g.fig.ID
	if g.fig.Number > 0 {
		id = strconv.Itoa(g.fig.Number)
	}
	s := "-fig " + id
	if g.connections > 0 {
		s += " -connections " + strconv.Itoa(g.connections)
	}
	if len(g.rates) > 0 {
		s += " -rates " + join(g.rates, formatRate)
	}
	if len(g.workers) > 0 {
		s += " -workers " + join(g.workers, strconv.Itoa)
	}
	return s + " -percentiles -quiet"
}

// name names the golden: the figure's id, then each flag's value.
func (g figureGolden) name() string {
	name := g.fig.ID
	if g.connections > 0 {
		name += "-" + strconv.Itoa(g.connections)
	}
	if len(g.rates) > 0 {
		name += "-rates" + join(g.rates, formatRate)
	}
	if len(g.workers) > 0 {
		name += "-workers" + join(g.workers, strconv.Itoa)
	}
	return name
}

func (g figureGolden) path() string { return filepath.Join(goldenDir, g.name()+".golden") }

func formatRate(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }

func join[T any](xs []T, format func(T) string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = format(x)
	}
	return strings.Join(parts, ",")
}

// output is what benchfig prints for the invocation: the table, then the
// percentile table.
func (g figureGolden) output() string {
	res := RunFigure(g.fig, SweepOptions{
		Connections: g.connections, Rates: g.rates, Workers: g.workers,
		Seed: 1, Threads: 1, Faults: faults.Config{Seed: 1}, // benchfig's defaults
	})
	return Format(res) + FormatPercentiles(res.Runs)
}

// TestFigureGoldens pins the bytes of every figure, ablation and sweep
// option that figureGoldens lists: each golden under testdata/figures is the
// stdout of the benchfig invocation its subtest names. A change that moves a
// figure fails here with the first differing table and its diff; a change
// that means to move one reruns with -update and shows every moved number in
// the golden diff. The "complete" subtest fails when an invocation has no
// golden or a golden matches no invocation; -update writes the one and
// deletes the other.
//
// Under -short and under the race detector the goldens at a figure's own
// size (the default sweep and the ablations: 9.5 of the set's 13.6 s of CPU)
// are skipped; the rest runs everywhere, in about 26 s under the race
// detector on two CPUs.
func TestFigureGoldens(t *testing.T) {
	goldens := figureGoldens()
	t.Run("complete", func(t *testing.T) {
		listed := make(map[string]bool, len(goldens))
		for _, g := range goldens {
			listed[g.path()] = true
			if _, err := os.Stat(g.path()); err != nil && !*update {
				t.Errorf("benchfig %s: no golden (go test -run TestFigureGoldens -update writes it): %v", g.args(), err)
			}
		}
		files, err := filepath.Glob(filepath.Join(goldenDir, "*.golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			switch {
			case listed[path]:
			case *update:
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			default:
				t.Errorf("%s: no invocation writes this golden (go test -run TestFigureGoldens -update deletes it)", path)
			}
		}
	})
	for _, g := range goldens {
		g := g
		t.Run(g.name(), func(t *testing.T) {
			if g.connections == 0 && (testing.Short() || raceEnabled) {
				t.Skip("own-size golden: skipped under -short and -race")
			}
			t.Parallel()
			got := g.output()
			if *update {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(g.path(), []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(g.path())
			if err != nil {
				t.Fatalf("benchfig %s: %v", g.args(), err)
			}
			if got != string(want) {
				t.Errorf("benchfig %s: output differs from %s\n%s", g.args(), g.path(), firstDifferingTable(string(want), got))
			}
		})
	}
}

// firstDifferingTable reports the first blank-line-separated table that
// differs between want and got, with a line diff: "-" lines are the
// golden's, "+" lines the new output's.
func firstDifferingTable(want, got string) string {
	wt, gt := tables(want), tables(got)
	for i := 0; i < len(wt) || i < len(gt); i++ {
		var w, g string
		if i < len(wt) {
			w = wt[i]
		}
		if i < len(gt) {
			g = gt[i]
		}
		if w == g {
			continue
		}
		title := w
		if title == "" {
			title = g
		}
		title, _, _ = strings.Cut(title, "\n")
		return fmt.Sprintf("first differing table (#%d): %s\n%s", i+1, title,
			lineDiff(strings.Split(w, "\n"), strings.Split(g, "\n")))
	}
	return "the tables are equal; the blank lines between them differ"
}

// tables splits s at blank lines.
func tables(s string) []string {
	var out []string
	for _, t := range strings.Split(s, "\n\n") {
		if t = strings.Trim(t, "\n"); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// lineDiff prints the lines of want and got along a longest common
// subsequence: "  " on both, "- " only in want, "+ " only in got.
func lineDiff(want, got []string) string {
	// lcs[i][j] is the longest common subsequence of want[i:] and got[j:].
	lcs := make([][]int, len(want)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(got)+1)
	}
	for i := len(want) - 1; i >= 0; i-- {
		for j := len(got) - 1; j >= 0; j-- {
			if want[i] == got[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var b strings.Builder
	i, j := 0, 0
	for i < len(want) || j < len(got) {
		switch {
		case i < len(want) && j < len(got) && want[i] == got[j]:
			b.WriteString("    " + want[i] + "\n")
			i++
			j++
		case i < len(want) && (j == len(got) || lcs[i+1][j] >= lcs[i][j+1]):
			b.WriteString("  - " + want[i] + "\n")
			i++
		default:
			b.WriteString("  + " + got[j] + "\n")
			j++
		}
	}
	return b.String()
}
