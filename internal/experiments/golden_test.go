package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/servers/httpcore"
)

var update = flag.Bool("update", false, "rewrite testdata/figures and testdata/benchpoints.golden from the current code and delete stale goldens")

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
// byte for byte: the figure, the sweep flags it sets and, for a -cell
// invocation, the cell. Zero fields of opts keep benchfig's defaults; zero
// Connections keeps the figure's own size.
type figureGolden struct {
	fig  Figure
	opts SweepOptions
	cell string
}

// figureGoldens lists every golden: each figure at its small size, each
// figure of the default sweep and each ablation at its own size, the sweep
// options no figure golden runs (-rates on a rate and an errors figure,
// -workers on a workers figure, and sweepOverrideGoldens) and -cell on a
// rate figure, an ablation, a multi-worker point and a push point. Fig 41's
// fault axis is flat at 600 connections (every fdlimit row is identical); its
// own-size golden is what pins that axis.
func figureGoldens() []figureGolden {
	var gs []figureGolden
	for _, f := range Figures() {
		c := smallConnections[f.Number]
		if c == 0 {
			c = 600
		}
		gs = append(gs, figureGolden{fig: f, opts: SweepOptions{Connections: c}})
	}
	for _, f := range Figures() {
		if !f.Pinned() {
			gs = append(gs, figureGolden{fig: f})
		}
	}
	for _, a := range Ablations() {
		gs = append(gs, figureGolden{fig: a})
	}
	gs = append(gs,
		figureGolden{fig: figureByID("5"), opts: SweepOptions{Connections: 300, Rates: []float64{600, 900}}},
		figureGolden{fig: figureByID("10"), opts: SweepOptions{Connections: 400, Rates: []float64{1000, 1100}}},
		figureGolden{fig: figureByID("17"), opts: SweepOptions{Connections: 3000, Workers: []int{1, 2}}},
		figureGolden{fig: figureByID("8"), opts: SweepOptions{Connections: 600}, cell: "thttpd-poll@1000"},
		figureGolden{fig: figureByID("hints"), cell: "hints-off"},
		figureGolden{fig: figureByID("17"), opts: SweepOptions{Connections: 2000}, cell: "reuseport-hash@2"},
		figureGolden{fig: figureByID("36"), opts: SweepOptions{Connections: 8000}, cell: "epoll@1000"},
		figureGolden{fig: figureByID("36"), opts: SweepOptions{Connections: 8000}, cell: "poll@1000"},
	)
	return append(gs, sweepOverrideGoldens()...)
}

// sweepOverrideGoldens runs each remaining sweep override on a figure where
// it changes the output: TestSweepOverridesReachTheRun checks that each
// golden differs from its figure's small-size golden. The fault golden sets
// every -fault-* knob; its fd limit stays above the figure's 501 inactive
// connections, or every request would fail.
func sweepOverrideGoldens() []figureGolden {
	return []figureGolden{
		{fig: figureByID("8"), opts: SweepOptions{Connections: 600, Backend: "epoll"}},
		{fig: figureByID("12"), opts: SweepOptions{Connections: 600, Workload: "slowloris"}},
		{fig: figureByID("16"), opts: SweepOptions{Connections: 600, RequestsPerConn: 4, PipelineDepth: 2, CacheKB: 64, WriteMode: httpcore.WriteSendfile}},
		{fig: figureByID("37"), opts: SweepOptions{Connections: 2000, Fanout: 50}},
		{fig: figureByID("38"), opts: SweepOptions{Connections: 600, ChurnRate: 400}},
		{fig: figureByID("12"), opts: SweepOptions{Connections: 600, Seed: 2, Retry: true, Faults: faults.Config{
			EINTRRate: 0.01, AcceptEAGAINRate: 0.01, ReadEAGAINRate: 0.01, WriteEAGAINRate: 0.01,
			FDLimit: 900, ResetRate: 0.01, VanishRate: 0.01, OverflowStormRate: 0.01,
		}}},
	}
}

func figureByID(id string) Figure {
	f, err := FigureByID(id)
	if err != nil {
		panic(err)
	}
	return f
}

// flags lists the benchfig flags the invocation sets after -fig and
// -connections, in benchfig's order, each with its value ("" for a bool).
func (g figureGolden) flags() [][2]string {
	o, f := g.opts, g.opts.Faults
	var out [][2]string
	add := func(set bool, name, value string) {
		if set {
			out = append(out, [2]string{name, value})
		}
	}
	add(g.cell != "", "cell", g.cell)
	add(len(o.Rates) > 0, "rates", join(o.Rates, formatRate))
	add(len(o.Workers) > 0, "workers", join(o.Workers, strconv.Itoa))
	add(o.Backend != "", "backend", o.Backend)
	add(o.Workload != "", "workload", o.Workload)
	add(o.RequestsPerConn > 0, "requests-per-conn", strconv.Itoa(o.RequestsPerConn))
	add(o.PipelineDepth > 0, "pipeline-depth", strconv.Itoa(o.PipelineDepth))
	add(o.CacheKB > 0, "cache-kb", strconv.Itoa(o.CacheKB))
	add(o.WriteMode != httpcore.WriteWritev, "write-mode", o.WriteMode.String())
	add(o.Fanout > 0, "fanout", strconv.Itoa(o.Fanout))
	add(o.ChurnRate > 0, "churn-rate", formatRate(o.ChurnRate))
	add(o.Seed != 0, "seed", strconv.FormatInt(o.Seed, 10))
	add(o.Retry, "retry", "")
	add(f.EINTRRate > 0, "fault-eintr", formatRate(f.EINTRRate))
	add(f.AcceptEAGAINRate > 0, "fault-accept-eagain", formatRate(f.AcceptEAGAINRate))
	add(f.ReadEAGAINRate > 0, "fault-read-eagain", formatRate(f.ReadEAGAINRate))
	add(f.WriteEAGAINRate > 0, "fault-write-eagain", formatRate(f.WriteEAGAINRate))
	add(f.FDLimit > 0, "fault-fdlimit", strconv.Itoa(f.FDLimit))
	add(f.ResetRate > 0, "fault-reset", formatRate(f.ResetRate))
	add(f.VanishRate > 0, "fault-vanish", formatRate(f.VanishRate))
	add(f.OverflowStormRate > 0, "fault-overflow-storm", formatRate(f.OverflowStormRate))
	return out
}

// args renders the benchfig invocation.
func (g figureGolden) args() string {
	id := g.fig.ID
	if g.fig.Number > 0 {
		id = strconv.Itoa(g.fig.Number)
	}
	s := "-fig " + id
	if g.opts.Connections > 0 {
		s += " -connections " + strconv.Itoa(g.opts.Connections)
	}
	for _, fl := range g.flags() {
		switch {
		case fl[0] == "cell":
			s += " -cell '" + fl[1] + "'"
		case fl[1] != "":
			s += " -" + fl[0] + " " + fl[1]
		default:
			s += " -" + fl[0]
		}
	}
	return s + " -percentiles -quiet"
}

// name names the golden: the figure's id, the connection count, then each
// flag's name and value.
func (g figureGolden) name() string {
	name := g.fig.ID
	if g.opts.Connections > 0 {
		name += "-" + strconv.Itoa(g.opts.Connections)
	}
	for _, fl := range g.flags() {
		name += "-" + fl[0] + fl[1]
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

// output is what benchfig prints for the invocation: the table (or the cell
// view), then the percentile table. For a figure it also checks, on the
// runs it already holds, that the cell view of the last point prints the
// value the table draws there.
func (g figureGolden) output(t *testing.T) string {
	opts := g.opts
	opts.Threads = 1 // benchfig's defaults
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	opts.Faults.Seed = 1
	if g.cell != "" {
		p, err := ResolveCell(g.fig.ID, false, g.cell, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := Run(p.Spec)
		return FormatCell(res) + FormatPercentiles([]RunResult{res})
	}
	res := RunFigure(g.fig, opts)
	if err := cellMatchesTable(res); err != nil {
		t.Errorf("benchfig %s: %v", g.args(), err)
	}
	return Format(res) + FormatPercentiles(res.Runs)
}

// cellMatchesTable reports whether the cell view of the figure's last run,
// with its percentile row, prints the value the table draws at that point:
// the reply average, or the error percentage or median (the p50 column) the
// figure draws instead, each at the cell view's precision.
func cellMatchesTable(res FigureResult) error {
	cols := res.Figure.Metric.columns()
	series := res.Series[len(res.Series)-len(cols)] // the last curve's first column
	y, _ := series.YAt(series.X[len(series.X)-1])
	key, format := `reply rate +avg=(\S+) `, "%.1f"
	switch res.Figure.Metric {
	case MetricErrorPercent:
		key = `\((\S+)% errors\)`
	case MetricMedianLatency:
		key, format = `\| +(\S+) +\S+ +\S+ +\S+ +\S+ +\|`, "%.2f"
	}
	last := res.Runs[len(res.Runs)-1]
	view := FormatCell(last) + FormatPercentiles([]RunResult{last})
	m := regexp.MustCompile(key).FindStringSubmatch(view)
	if want := fmt.Sprintf(format, y); m == nil || m[1] != want {
		return fmt.Errorf("cell view of %s does not print the table's %s %s:\n%s", series.Label, res.Figure.Metric, want, view)
	}
	return nil
}

// TestFigureGoldens pins the bytes of every figure, ablation, sweep option
// and cell that figureGoldens lists: each golden under testdata/figures is
// the stdout of the benchfig invocation its subtest names. A change that moves a
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
			if g.opts.Connections == 0 && (testing.Short() || raceEnabled) {
				t.Skip("own-size golden: skipped under -short and -race")
			}
			t.Parallel()
			got := g.output(t)
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

// TestSweepOverridesReachTheRun requires each sweepOverrideGoldens golden to
// differ from the golden of the same figure and size without the override:
// a flag that never reached the run would print the base figure unchanged.
func TestSweepOverridesReachTheRun(t *testing.T) {
	for _, g := range sweepOverrideGoldens() {
		base := figureGolden{fig: g.fig, opts: SweepOptions{Connections: g.opts.Connections}}
		got, err := os.ReadFile(g.path())
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(base.path())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) == string(want) {
			t.Errorf("benchfig %s prints what benchfig %s prints: the override does not reach the run", g.args(), base.args())
		}
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
