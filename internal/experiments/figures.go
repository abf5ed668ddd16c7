package experiments

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/servers/httpcore"
)

// MetricKind selects what a figure plots per curve.
type MetricKind int

// Metrics plotted by the figures.
const (
	MetricReplyRate     MetricKind = iota // average/min/max reply rate (FIGS 4-9, 11-13, 15-16, 18)
	MetricErrorPercent                    // percentage of failed connections (FIG 10)
	MetricMedianLatency                   // median connection time in ms (FIG 14)
	MetricReplyP99                        // average reply rate and p99 connection time (figs 19-43)
	MetricReplyCPU                        // reply rate plus mean per-CPU utilisation (fig 17)
	MetricVariants                        // one row per variant: reply rate, errors, median, cpu, loops, mode (ablations)
)

// String names the metric.
func (m MetricKind) String() string {
	switch m {
	case MetricReplyRate:
		return "reply rate (replies/s)"
	case MetricErrorPercent:
		return "errors (percent)"
	case MetricMedianLatency:
		return "median connection time (ms)"
	case MetricReplyP99:
		return "reply rate and p99 connection time"
	case MetricReplyCPU:
		return "reply rate (replies/s) and mean per-CPU utilisation (percent)"
	case MetricVariants:
		return "reply rate, errors, median connection time, cpu, loops and mode per variant"
	default:
		return "unknown"
	}
}

// column is one series a metric draws per curve: the suffix on the curve's
// label and the value it takes from a run.
type column struct {
	suffix string
	value  func(RunResult) float64
}

// columns lists the series the metric draws per curve, in table order.
func (m MetricKind) columns() []column {
	replyRange := []column{
		{" (avg)", func(r RunResult) float64 { return r.Load.ReplyRate.Mean }},
		{" (min)", func(r RunResult) float64 { return r.Load.ReplyRate.Min }},
		{" (max)", func(r RunResult) float64 { return r.Load.ReplyRate.Max }},
	}
	switch m {
	case MetricErrorPercent:
		return []column{{"", func(r RunResult) float64 { return r.Load.ErrorPercent }}}
	case MetricVariants:
		// One series per variant carries its label; formatVariants reads the
		// rest of the row from the run itself.
		return []column{{"", func(r RunResult) float64 { return r.Load.ReplyRate.Mean }}}
	case MetricMedianLatency:
		return []column{{"", func(r RunResult) float64 { return r.Latency.P50 }}}
	case MetricReplyP99:
		return []column{
			{" (reply avg)", func(r RunResult) float64 { return r.Load.ReplyRate.Mean }},
			{" (p99 ms)", func(r RunResult) float64 { return r.Latency.P99 }},
		}
	case MetricReplyCPU:
		return append(replyRange, column{" (cpu%)", func(r RunResult) float64 { return 100 * r.CPUUtilization }})
	default:
		return replyRange
	}
}

// Axis is what a figure sweeps on its x axis; its value is the table's
// x-column header. A rate axis sweeps the offered request rate. Every other
// axis holds each curve's offered rate fixed and sweeps one knob: the prefork
// worker count, the churn workload's peer join rate, or a fault-injection
// knob. The variant axis is categorical: each curve is one configuration of
// an ablation and runs at a single point.
type Axis string

// The figure axes.
const (
	AxisRate     Axis = "rate"     // offered request rate (req/s)
	AxisWorkers  Axis = "workers"  // prefork worker count
	AxisChurn    Axis = "churn"    // churn workload peer join rate (peers/s)
	AxisReset    Axis = "reset"    // fraction of connections RST mid-exchange
	AxisFDLimit  Axis = "fdlimit"  // per-process RLIMIT_NOFILE (0 = unlimited)
	AxisEINTR    Axis = "eintr"    // probability a blocking wait is interrupted
	AxisOverflow Axis = "overflow" // probability a signal/ring post is swallowed
	AxisVariant  Axis = "variant"  // the curves themselves: one point per curve
)

// apply sets x on one point's spec.
func (a Axis) apply(spec *RunSpec, x float64) {
	switch a {
	case AxisRate:
		spec.RequestRate = x
	case AxisWorkers:
		rk, err := resolveKind(spec.Server)
		if err != nil || rk.family != "prefork" {
			panic(fmt.Sprintf("experiments: workers axis on non-prefork server %q", spec.Server))
		}
		spec.Server = preforkKind(int(x), rk.backend)
	case AxisChurn:
		spec.ChurnRate = x
	case AxisReset:
		spec.Faults.ResetRate = x
	case AxisFDLimit:
		spec.Faults.FDLimit = int(x)
	case AxisEINTR:
		spec.Faults.EINTRRate = x
	case AxisOverflow:
		spec.Faults.OverflowStormRate = x
	case AxisVariant:
		// The curve's template is the whole configuration.
	default:
		panic("experiments: unknown axis " + string(a))
	}
}

// Curve is one plotted configuration within a figure: a label and the
// template every point of the curve starts from. The figure's axis supplies
// x; the sweep options supply the run size, seed and the command-line
// overrides.
type Curve struct {
	Label string
	Spec  RunSpec
}

// Figure describes one evaluation figure — the paper's (4-14), an extension
// (15-43) or an ablation — and how to regenerate it.
type Figure struct {
	ID     string // "fig04" ... "fig43", or an ablation's id ("hints")
	Number int    // zero for an ablation
	Title  string
	// Paper summarises what the original figure showed (or, for extensions,
	// what the figure is expected to show), so a reader can compare shape.
	Paper  string
	Metric MetricKind
	Axis   Axis
	// X is the axis values swept by default.
	X      []float64
	Curves []Curve
}

// Pinned reports whether the figure sets its own per-point connection
// count: the scale and mostly-idle families, too large for the default sweep.
func (f Figure) Pinned() bool {
	return len(f.Curves) > 0 && f.Curves[0].Spec.Connections > 0
}

// SweepOptions control how a figure is regenerated. Zero values keep the
// figure's own configuration.
type SweepOptions struct {
	// Connections per point; zero keeps the figure's own count (4000 unless
	// the figure pins one). Use 35000 to reproduce the paper's procedure.
	Connections int
	// Rates overrides a rate axis's sweep; on any other axis its first value
	// replaces the fixed offered rate.
	Rates []float64
	// Workers overrides a workers axis's sweep. On a rate figure with prefork
	// curves it replaces those curves with one prefork curve per count.
	Workers []int
	// Backend, when non-empty, re-parameterises each curve's server onto the
	// named eventlib backend (see RetargetKind). The name must be valid and
	// the retarget must keep every curve's mechanism options — callers check
	// with Points first; RunFigure panics otherwise.
	Backend string
	// Workload, when non-empty, runs every point under the named loadgen
	// workload scenario instead of the figure's own. The name must be valid
	// (loadgen.LookupWorkload); Run panics otherwise.
	Workload string
	// Seed for the load generator; zero selects 1.
	Seed int64
	// KeepAlive, RequestsPerConn, PipelineDepth, CacheKB and WriteMode apply
	// a persistent-connection configuration to every curve that does not
	// carry its own. RequestsPerConn > 1 or PipelineDepth > 1 implies
	// KeepAlive; KeepAlive alone defaults to 8 requests per connection.
	KeepAlive       bool
	RequestsPerConn int
	PipelineDepth   int
	CacheKB         int
	WriteMode       httpcore.WriteMode

	// Fanout overrides the push workload's per-tick fan-out on push-* curves
	// and ChurnRate the churn workload's join rate on dht-* curves. Zero
	// keeps the workload's own values; a churn axis wins over ChurnRate.
	Fanout    int
	ChurnRate float64

	// Faults applies a fault-injection configuration to every point; a
	// fault axis sets its knob on top. The zero value injects nothing.
	Faults faults.Config

	// Retry enables the load generator's deterministic capped-exponential-
	// backoff retry on every point; off by default.
	Retry bool

	// Threads is the number of OS threads driving each point's simulation;
	// values below 2 select the sequential engine. Deterministic metrics are
	// byte-identical across thread counts (see RunSpec.Threads).
	Threads int
	// Progress, when non-nil, receives a line per completed point.
	Progress func(format string, args ...interface{})
}

// FigureResult holds everything needed to print or compare one regenerated
// figure.
type FigureResult struct {
	Figure Figure
	// Series holds the metric's columns for each curve in turn (for
	// example average, minimum and maximum reply rate, mirroring the error
	// bars and min/max marks in the paper's graphs).
	Series []metrics.Series
	// Runs holds the raw per-point results, curve by curve in sweep order.
	Runs []RunResult
}

// Point is one run a figure draws: the label of its curve as run, its x
// value and the spec that runs it.
type Point struct {
	Curve string
	X     float64
	Spec  RunSpec
	curve int // the curve's position, which groups its series
}

// Points returns every point the figure runs under the sweep options, curve
// by curve in sweep order. It returns an error naming the figure (and the
// curve, where one is at fault) for a rate that is not finite and positive,
// a negative connection count, an unknown backend, a retarget that would
// drop a curve's mechanism options, or a curve whose server family the
// workload cannot drive (a push workload on an HTTP server).
func (f Figure) Points(opts SweepOptions) ([]Point, error) {
	if opts.Connections < 0 {
		return nil, fmt.Errorf("experiments: figure %s: bad connection count %d (want > 0, or 0 for the figure's own)", f.ID, opts.Connections)
	}
	for _, r := range opts.Rates {
		if !validRate(r) {
			return nil, fmt.Errorf("experiments: figure %s: bad rate %g (want a finite rate > 0)", f.ID, r)
		}
	}
	xs := f.X
	curves := f.Curves
	switch {
	case f.Axis == AxisRate && len(opts.Rates) > 0:
		xs = opts.Rates
	case f.Axis == AxisWorkers && len(opts.Workers) > 0:
		xs = make([]float64, len(opts.Workers))
		for i, n := range opts.Workers {
			xs[i] = float64(n)
		}
	}
	if f.Axis != AxisWorkers {
		curves = withWorkerCounts(curves, opts.Workers)
	}
	out := make([]Point, 0, len(curves)*len(xs))
	for i, c := range curves {
		spec, label, err := sweepSpec(c, f.Axis, opts)
		if err == nil {
			_, _, err = resolvePairing(spec)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: figure %s, curve %q: %w", f.ID, c.Label, err)
		}
		for _, x := range xs {
			p := Point{Curve: label, X: x, Spec: spec, curve: i}
			f.Axis.apply(&p.Spec, x)
			out = append(out, p)
		}
	}
	return out, nil
}

// Point returns the point the figure runs on curve at x under the sweep
// options: the one lookup behind the gated table and benchfig -cell. It
// returns Points' error, or one naming the figure that lists its curves for
// an unknown curve and the curve's axis values for an x off the axis.
func (f Figure) Point(opts SweepOptions, curve string, x float64) (Point, error) {
	points, err := f.Points(opts)
	if err != nil {
		return Point{}, err
	}
	var curves, xs []string
	for i, p := range points {
		if i == 0 || p.curve != points[i-1].curve {
			curves = append(curves, strconv.Quote(p.Curve))
		}
		if p.Curve != curve {
			continue
		}
		if p.X == x {
			return p, nil
		}
		xs = append(xs, strconv.FormatFloat(p.X, 'g', -1, 64))
	}
	if len(xs) == 0 {
		return Point{}, fmt.Errorf("experiments: figure %s has no curve %q (choices: %s)", f.ID, curve, strings.Join(curves, ", "))
	}
	return Point{}, fmt.Errorf("experiments: figure %s, curve %q has no point at %s=%g (choices: %s)",
		f.ID, curve, f.Axis, x, strings.Join(xs, ", "))
}

// ResolveCell returns the point benchfig -fig figs -cell cell runs: cell is
// "<curve>@<x>", or an ablation's bare variant label, resolved by Point
// under the sweep options. It returns an error naming the values when figs
// is not exactly one figure or ablation is set, and Point's when the cell
// is not a point of the figure.
func ResolveCell(figs string, ablation bool, cell string, opts SweepOptions) (Point, error) {
	if ablation || strings.TrimSpace(figs) == "" || strings.Contains(figs, ",") {
		return Point{}, fmt.Errorf("experiments: -cell %q is a point of exactly one figure, not of -fig %q with -ablation=%t", cell, figs, ablation)
	}
	f, err := FigureByID(figs)
	if err != nil {
		return Point{}, err
	}
	curve, at, found := strings.Cut(cell, "@")
	x := 0.0
	if found || f.Axis != AxisVariant {
		if x, err = strconv.ParseFloat(at, 64); err != nil {
			return Point{}, fmt.Errorf("experiments: figure %s: bad cell %q (want <curve>@<%s>)", f.ID, cell, f.Axis)
		}
	}
	return f.Point(opts, curve, x)
}

// RunFigure regenerates one figure: it runs every point Points returns and
// draws the metric's columns for each curve in turn. It panics on the error
// Points reports.
func RunFigure(fig Figure, opts SweepOptions) FigureResult {
	points, err := fig.Points(opts)
	if err != nil {
		panic(err)
	}
	cols := fig.Metric.columns()
	out := FigureResult{Figure: fig}
	first := 0 // index of the current curve's first series
	for i, p := range points {
		if i == 0 || p.curve != points[i-1].curve {
			first = len(out.Series)
			for _, col := range cols {
				out.Series = append(out.Series, metrics.Series{Label: p.Curve + col.suffix})
			}
		}
		res := Run(p.Spec)
		out.Runs = append(out.Runs, res)
		for j, col := range cols {
			out.Series[first+j].Append(p.X, col.value(res))
		}
		if opts.Progress != nil {
			at := fmt.Sprintf("%s=%g", fig.Axis, p.X)
			if fig.Axis == AxisVariant {
				at = "variant=" + p.Curve
			}
			opts.Progress("%s %s %s", fig.ID, at, Describe(res))
		}
	}
	return out
}

// sweepSpec applies the sweep options to a curve's template and returns the
// spec and the label of what will actually run.
func sweepSpec(curve Curve, axis Axis, opts SweepOptions) (RunSpec, string, error) {
	spec, label := curve.Spec, curve.Label
	if opts.Connections > 0 {
		spec.Connections = opts.Connections
	}
	if axis != AxisRate && len(opts.Rates) > 0 {
		spec.RequestRate = opts.Rates[0]
	}
	spec.Seed = opts.Seed
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if opts.Workload != "" {
		spec.Workload = opts.Workload
	}
	spec.Threads = opts.Threads
	spec.Faults = opts.Faults
	spec.Client.Retry = opts.Retry
	spec.FanoutSize = opts.Fanout
	spec.ChurnRate = opts.ChurnRate
	applyHTTPSweep(&spec, opts)
	if opts.Backend != "" {
		kind, err := RetargetKind(spec.Server, opts.Backend)
		if err != nil {
			return spec, label, err
		}
		if kind != spec.Server {
			// Run rejects mechanism options the retargeted kind would drop;
			// say so here, naming the figure and curve. kind came from
			// RetargetKind, so it resolves.
			rk, _ := resolveKind(kind)
			if opt := droppedOption(spec, rk); opt != "" {
				return spec, label, fmt.Errorf("backend %s drops the curve's %s", opts.Backend, opt)
			}
			// The label must name what actually ran: a label that was the
			// server's name becomes the new name, any other gains the backend.
			if label == string(spec.Server) {
				label = string(kind)
			} else {
				label += " [" + opts.Backend + "]"
			}
			spec.Server = kind
		}
	}
	return spec, label, nil
}

// applyHTTPSweep fills a spec's persistent-connection fields from the sweep
// options unless the curve's template carries its own configuration (the
// keep-alive figure family). Zero options leave the spec untouched — the
// historical HTTP/1.0 run.
func applyHTTPSweep(spec *RunSpec, opts SweepOptions) {
	if spec.HTTP != (httpcore.Options{}) || spec.Client.RequestsPerConn > 0 {
		return
	}
	ka := opts.KeepAlive || opts.RequestsPerConn > 1 || opts.PipelineDepth > 1
	http := httpcore.Options{KeepAlive: ka, CacheKB: opts.CacheKB, WriteMode: opts.WriteMode}
	if http == (httpcore.Options{}) {
		return
	}
	spec.HTTP = http
	if ka {
		spec.Client.RequestsPerConn = opts.RequestsPerConn
		if spec.Client.RequestsPerConn <= 1 {
			spec.Client.RequestsPerConn = KeepAliveRequests
		}
		spec.Client.PipelineDepth = opts.PipelineDepth
	}
}

// withWorkerCounts replaces a figure's curves by one prefork curve per
// worker count, each a copy of the first prefork curve's template; curves
// without a prefork server (and empty counts) pass through unchanged.
func withWorkerCounts(curves []Curve, counts []int) []Curve {
	if len(counts) == 0 {
		return curves
	}
	for _, proto := range curves {
		if !strings.HasPrefix(string(proto.Spec.Server), "prefork-") {
			continue
		}
		out := make([]Curve, 0, len(counts))
		for _, n := range counts {
			c := proto
			c.Label = fmt.Sprintf("prefork-%d", n)
			c.Spec.Server = PreforkKind(n)
			out = append(out, c)
		}
		return out
	}
	return curves
}

// Format renders a figure result as the aligned text table the command-line
// tool prints and EXPERIMENTS.md records. The layout follows the figure: a
// reply-and-p99 figure names its workload, states a pinned connection count
// and uses 26-wide columns; a workers axis states its fixed offered load and
// uses 28-wide columns; every other figure uses 22-wide columns. An ablation
// prints one row per variant instead.
func Format(res FigureResult) string {
	f := res.Figure
	if f.Metric == MetricVariants {
		return formatVariants(res)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE %d (%s): %s\n", f.Number, f.ID, f.Title)
	fmt.Fprintf(&b, "paper: %s\n", f.Paper)
	var first RunSpec
	if len(res.Runs) > 0 {
		first = res.Runs[0].Spec
	} else if len(f.Curves) > 0 {
		first = f.Curves[0].Spec
	}
	width := 22
	switch {
	case f.Metric == MetricReplyP99:
		fmt.Fprintf(&b, "metric: %s vs offered load, workload %s\n", f.Metric, first.Workload)
		if f.Pinned() && len(res.Runs) > 0 {
			fmt.Fprintf(&b, "connections: %d per point\n", first.Connections)
		}
		width = 26
	case f.Axis == AxisWorkers:
		fmt.Fprintf(&b, "metric: %s vs workers at %.0f req/s, %d inactive\n",
			MetricReplyRate, first.RequestRate, first.Inactive)
		width = 28
	default:
		fmt.Fprintf(&b, "metric: %s\n", f.Metric)
	}

	// A label that would touch its neighbour widens every column.
	longest := 0
	for _, s := range res.Series {
		longest = max(longest, len(s.Label))
	}
	if longest+1 > width {
		width = longest + 2
	}

	// Collect the x values actually present.
	seen := map[float64]bool{}
	for _, s := range res.Series {
		for _, x := range s.X {
			seen[x] = true
		}
	}
	xs := make([]float64, 0, len(seen))
	for x := range seen {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	// Fault-rate axes carry fractional x values (a 0.02 reset rate); keep
	// the whole-number format everywhere else.
	xfmt := "%-12.0f"
	for _, x := range xs {
		if x != float64(int64(x)) {
			xfmt = "%-12.2f"
			break
		}
	}

	fmt.Fprintf(&b, "%-12s", f.Axis)
	for _, s := range res.Series {
		fmt.Fprintf(&b, "%*s", width, s.Label)
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, xfmt, x)
		for _, s := range res.Series {
			if y, ok := s.YAt(x); ok {
				fmt.Fprintf(&b, "%*.1f", width, y)
			} else {
				fmt.Fprintf(&b, "%*s", width, "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// formatVariants renders an ablation: its id, title and description, then
// one row per variant.
func formatVariants(res FigureResult) string {
	f := res.Figure
	var b strings.Builder
	fmt.Fprintf(&b, "ABLATION %s: %s\n%s\n", f.ID, f.Title, f.Paper)
	fmt.Fprintf(&b, "%-18s %10s %8s %10s %8s %10s %12s\n",
		"variant", "reply/s", "err%", "median ms", "cpu%", "loops", "mode")
	for i, r := range res.Runs {
		fmt.Fprintf(&b, "%-18s %10.1f %8.1f %10.2f %8.0f %10d %12s\n",
			res.Series[i].Label, r.Load.ReplyRate.Mean, r.Load.ErrorPercent, r.Latency.P50,
			100*r.CPUUtilization, r.EventLoops, r.FinalMode)
	}
	return b.String()
}

// FormatPercentiles renders the per-point latency-percentile table the
// -percentiles flag appends below a figure: the client-observed connection
// distribution next to the server-side service distribution for every run.
func FormatPercentiles(runs []RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %6s %6s %10s | %9s %9s %9s %9s %9s | %9s %9s\n",
		"server", "rate", "load", "workload",
		"p50 ms", "p90 ms", "p99 ms", "p999 ms", "max ms", "svc p99", "svc p999")
	for _, r := range runs {
		wl := r.Spec.Workload
		if wl == "" {
			wl = "constant"
		}
		fmt.Fprintf(&b, "%-18s %6.0f %6d %10s | %9.2f %9.2f %9.2f %9.2f %9.2f | %9.2f %9.2f\n",
			r.Spec.Server, r.Spec.RequestRate, r.Spec.Inactive, wl,
			r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.P999, r.Latency.Max,
			r.ServiceLatency.P99, r.ServiceLatency.P999)
	}
	return b.String()
}

// FormatCell renders one run in full, as benchfig -cell prints it: the spec
// as run, then what a figure table folds away — the executed events and the
// final virtual time, the reply-rate samples, the errors by reason, the
// mechanism's counters, the CPU utilisation, on a push run the fan-out
// tick's books and, on a multi-worker run, the served balance across the
// workers. The latency distribution is FormatPercentiles' row.
func FormatCell(r RunResult) string {
	var b strings.Builder
	b.WriteString("spec as run:\n")
	writeFields(&b, "", reflect.ValueOf(r.Spec))
	load := r.Load
	fmt.Fprintf(&b, "server            %s (final mode %s)\n", r.Spec.Server, r.FinalMode)
	fmt.Fprintf(&b, "workload          rate=%.0f req/s, %d connections, %d inactive\n",
		r.Spec.RequestRate, r.Spec.Connections, r.Spec.Inactive)
	fmt.Fprintf(&b, "virtual duration  %v   events %d   CPU utilisation %.0f%%   event loops %d\n",
		r.VirtualTime, r.Events, 100*r.CPUUtilization, r.EventLoops)
	// A push run's replies are its deliveries: Completed counts members
	// resolved when the delivery budget is spent, so a run that stops at its
	// virtual-time deadline completes none although it delivered.
	if rk, _ := resolveKind(r.Spec.Server); rk.family == "push" {
		fmt.Fprintf(&b, "replies           %d pushes delivered, %d members issued (%.1f%% errors)\n",
			load.Replies, load.Issued, load.ErrorPercent)
	} else {
		fmt.Fprintf(&b, "replies           %d of %d issued (%.1f%% errors)\n",
			load.Completed, load.Issued, load.ErrorPercent)
	}
	fmt.Fprintf(&b, "reply rate        avg=%.1f sd=%.1f min=%.1f max=%.1f replies/s\n",
		load.ReplyRate.Mean, load.ReplyRate.StdDev, load.ReplyRate.Min, load.ReplyRate.Max)
	// A line starts with its reason, so sorted lines are sorted reasons.
	reasons := make([]string, 0, len(load.ErrorsBy))
	for r, n := range load.ErrorsBy {
		reasons = append(reasons, fmt.Sprintf("  %-14s %d\n", r, n))
	}
	sort.Strings(reasons)
	if len(reasons) > 0 {
		b.WriteString("errors by reason:\n" + strings.Join(reasons, ""))
	}
	b.WriteString("reply-rate samples (replies/s per interval):\n")
	for i, s := range load.ReplyRateSamples {
		fmt.Fprintf(&b, "  interval %2d: %8.1f\n", i, s)
	}
	fmt.Fprintf(&b, "mechanism stats   waits=%d events=%d driver-polls=%d hint-hits=%d copied-out=%d enqueued=%d overflows=%d\n",
		r.Primary.Waits, r.Primary.EventsReturned, r.Primary.DriverPolls, r.Primary.HintHits,
		r.Primary.CopiedOut, r.Primary.Enqueued, r.Primary.Overflows)
	if r.Overflows > 0 || r.Handoffs > 0 { // phhttpd's overflow recovery, prefork's handoff mode
		fmt.Fprintf(&b, "overflow/handoff  overflows=%d handoffs=%d\n", r.Overflows, r.Handoffs)
	}
	if r.SwitchesToPoll > 0 || r.SwitchesToSignal > 0 {
		fmt.Fprintf(&b, "hybrid switches   to-devpoll=%d to-signal=%d\n", r.SwitchesToPoll, r.SwitchesToSignal)
	}
	if r.Ticks > 0 { // the push server's fan-out
		fmt.Fprintf(&b, "push ticks        ticks=%d pushed=%d busy-skips=%d write-blocks=%d\n",
			r.Ticks, r.Server.Pushed, r.PushBusy, r.WriteBlock)
	}
	fmt.Fprintf(&b, "server stats      accepted=%d served=%d closed=%d idle-closes=%d bad-requests=%d\n",
		r.Server.Accepted, r.Server.Served, r.Server.Closed, r.Server.IdleCloses, r.Server.BadRequests)
	if r.Workers > 1 {
		fmt.Fprintf(&b, "workers           %d, served per worker %v\n", r.Workers, r.PerWorkerServed)
	}
	return b.String()
}

// writeFields prints each non-zero field of the struct v on its own line,
// named by its path from the spec: a pointer prints what it points to and a
// nested struct its own non-zero fields, so no address is printed.
func writeFields(b *strings.Builder, prefix string, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, name := reflect.Indirect(v.Field(i)), prefix+v.Type().Field(i).Name
		switch {
		case v.Field(i).IsZero():
		case f.Kind() == reflect.Struct:
			writeFields(b, name+".", f)
		default:
			fmt.Fprintf(b, "  %-24s %v\n", name, f)
		}
	}
}

// ParseWorkerCounts parses a comma-separated worker-count list ("1,2,4,8")
// against the same bounds resolveKind enforces for prefork kinds. An empty
// string returns nil (use the figure's default sweep).
func ParseWorkerCounts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 || v > 64 {
			return nil, fmt.Errorf("experiments: bad worker count %q (want 1..64)", part)
		}
		out = append(out, v)
	}
	return out, nil
}
