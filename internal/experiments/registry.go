package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netsim"
	"repro/internal/servers/httpcore"
	"repro/internal/servers/prefork"
)

// KeepAliveRequests is the per-connection request count of the keep-alive
// figure family and the sweep-level -keepalive default: long enough to
// amortise the connection setup, short enough that connections still churn.
const KeepAliveRequests = 8

// curve is a curve running server at the given inactive load.
func curve(label string, server ServerKind, inactive int) Curve {
	return Curve{Label: label, Spec: RunSpec{Server: server, Inactive: inactive}}
}

// mechanismCurves returns the paper's four servers at the given inactive load
// plus the compio extension, the fixed curve set of the per-workload overload
// and chaos figures.
func mechanismCurves(inactive int) []Curve {
	return []Curve{
		curve("normal poll", ServerThttpdPoll, inactive),
		curve("devpoll", ServerThttpdDevPoll, inactive),
		curve("phhttpd", ServerPhhttpd, inactive),
		curve("hybrid", ServerHybrid, inactive),
		curve("compio", ServerThttpdCompio, inactive),
	}
}

// mostlyIdleCurves returns the five paper mechanisms hosted in the given
// non-HTTP daemon family ("push" or "dht"), where the backend name is the
// whole server kind.
func mostlyIdleCurves(family string) []Curve {
	curves := make([]Curve, 0, 5)
	for _, b := range []string{"poll", "devpoll", "rtsig", "epoll", "compio"} {
		curves = append(curves, curve(b, ServerKind(family+"-"+b), 0))
	}
	return curves
}

// workerCurve is a prefork curve of the worker-scaling figures: an
// accept-distribution architecture plus a listener sharding policy, offered
// 3000 req/s against 1500 inactive connections; the workers axis sets the
// worker count.
func workerCurve(label string, mode prefork.Mode, shard netsim.ShardPolicy) Curve {
	netCfg := netsim.DefaultConfig()
	netCfg.Shard = shard
	return Curve{Label: label, Spec: RunSpec{
		Server: PreforkKind(1), RequestRate: 3000, Inactive: 1500,
		Network: &netCfg, PreforkMode: mode,
	}}
}

// replyFigure is a reply-rate figure of one server at one inactive load over
// the paper's 500-1100 req/s sweep.
func replyFigure(num int, server ServerKind, inactive int, title, paper string) Figure {
	return Figure{
		ID: fmt.Sprintf("fig%02d", num), Number: num, Title: title, Paper: paper,
		Metric: MetricReplyRate, Axis: AxisRate, X: paperRates(),
		Curves: []Curve{curve(string(server), server, inactive)},
	}
}

// p99Figure is a reply-and-p99 figure. base carries the figure-wide run
// settings — the workload, a pinned connection count, a network override and,
// on non-rate axes, the fixed offered rate — stamped onto every curve.
func p99Figure(num int, title, paper string, base RunSpec, axis Axis, x []float64, curves []Curve) Figure {
	for i := range curves {
		s := &curves[i].Spec
		s.Workload, s.Connections, s.Network, s.RequestRate = base.Workload, base.Connections, base.Network, base.RequestRate
	}
	return Figure{
		ID: fmt.Sprintf("fig%d", num), Number: num, Title: title, Paper: paper,
		Metric: MetricReplyP99, Axis: axis, X: x, Curves: curves,
	}
}

// paperRates is the paper's x axis, 500 to 1100 requests per second.
func paperRates() []float64 { return []float64{500, 600, 700, 800, 900, 1000, 1100} }

// overloadRates runs from comfortably below a uniprocessor's capacity to well
// past it, so the knee falls inside the figure for every mechanism.
func overloadRates() []float64 { return []float64{400, 700, 1000, 1300, 1600} }

// portSpace returns a network whose client ephemeral-port space is n; the
// figures past the paper's 35000 connections need more than the default
// 60000 ports, which 60 s of TIME-WAIT exhausts.
func portSpace(n int) *netsim.Config {
	netCfg := netsim.DefaultConfig()
	netCfg.PortSpace = n
	return &netCfg
}

// scaleFigure is one figure of the scale (26-28) and massive-scale (29-31)
// families: the paper's mechanisms re-run at a pinned connection count per
// point, below, at and past the uniprocessor knee. The massive family widens
// the port space with the run.
func scaleFigure(num, conns int, massive bool, title, paper string, curves []Curve) Figure {
	base := RunSpec{Workload: "constant", Connections: conns}
	if massive {
		base.Network = portSpace(2*conns + 100000)
	}
	return p99Figure(num, fmt.Sprintf(title, conns), paper, base, AxisRate, []float64{700, 1000, 1300}, curves)
}

// chaosFigure is one figure of the chaos family (40-43): the overload
// measurement re-run with one fault class swept on the x axis at 900 req/s,
// just below the slowest mechanism's knee, so the degradation is the fault's
// doing, not ambient overload.
func chaosFigure(num int, title, paper string, axis Axis, x []float64, curves []Curve) Figure {
	return p99Figure(num, title, paper, RunSpec{Workload: "constant", RequestRate: 900}, axis, x, curves)
}

// Figures returns every figure in number order: the paper's (4-14), then
// the extensions — epoll (15-16), prefork scaling (17-18), overload and
// adversarial workloads (19-25), scale (26-31), keep-alive (32-35),
// millions-mostly-idle (36-39) and chaos (40-43).
func Figures() []Figure {
	ka := httpcore.Options{KeepAlive: true}
	kaPair := func(label string, server ServerKind) []Curve {
		keep := curve(label+" keepalive", server, 251)
		keep.Spec.HTTP = ka
		keep.Spec.Client.RequestsPerConn = KeepAliveRequests
		keep.Spec.Client.PipelineDepth = KeepAliveRequests
		return []Curve{curve(label+" http/1.0", server, 251), keep}
	}
	var kaCompare []Curve
	for _, c := range mechanismCurves(251) {
		kaCompare = append(kaCompare, kaPair(c.Label, c.Spec.Server)...)
	}
	kaEpoll := func(label string, http httpcore.Options, requests, depth int) Curve {
		c := curve(label, ServerThttpdEpoll, 251)
		c.Spec.HTTP = http
		c.Spec.Client.RequestsPerConn = requests
		c.Spec.Client.PipelineDepth = depth
		return c
	}
	depth := func(d int) Curve { return kaEpoll(fmt.Sprintf("depth-%d", d), ka, 16, d) }
	cache := func(kb int) Curve {
		label := "cache-off"
		if kb > 0 {
			label = fmt.Sprintf("cache-%dkb", kb)
		}
		return kaEpoll(label, httpcore.Options{KeepAlive: true, CacheKB: kb}, KeepAliveRequests, 0)
	}
	write := func(m httpcore.WriteMode) Curve {
		return kaEpoll(m.String(), httpcore.Options{KeepAlive: true, WriteMode: m}, KeepAliveRequests, 0)
	}
	scaleCurves := func(withCompio bool) []Curve {
		curves := []Curve{
			curve("normal poll", ServerThttpdPoll, 251),
			curve("devpoll", ServerThttpdDevPoll, 251),
			curve("phhttpd", ServerPhhttpd, 251),
			curve("epoll", ServerThttpdEpoll, 251),
			curve("prefork-4", PreforkKind(4), 251),
		}
		if withCompio {
			curves = append(curves, curve("compio", ServerThttpdCompio, 251))
		}
		return curves
	}
	const (
		scaleTitle = "Scale: %d connections per point, four mechanisms plus prefork-4 and compio, 251 inactive connections"
		scalePaper = "Not in the paper, whose procedure was capped near 35000 connections per run by the " +
			"client's port space and the testbed's speed. The mechanism ordering (poll collapses, " +
			"/dev/poll and epoll sustain, RT signals fall between, prefork moves the knee right) " +
			"must hold unchanged as the run grows an order of magnitude."
		massiveTitle = "Massive scale: %d connections per point, four mechanisms plus prefork-4, 251 inactive connections"
		massivePaper = "Not in the paper: its testbed topped out near 35000 connections per run. This family " +
			"re-runs the scale measurement at 100k-1M connections per point, where the interest-set " +
			"mechanisms' ordering must survive three orders of magnitude of growth."
	)
	workerCounts := []float64{1, 2, 4, 8}

	return []Figure{
		replyFigure(4, ServerThttpdPoll, 1,
			"Stock thttpd with poll(), 1 inactive connection",
			"Server performs well until a high enough request rate, then breaks down as processing latency exceeds the request rate."),
		replyFigure(5, ServerThttpdDevPoll, 1,
			"thttpd with /dev/poll, 1 inactive connection",
			"Performs well at all request rates; no point where processing latency exceeds request rate."),
		replyFigure(6, ServerThttpdPoll, 251,
			"Stock thttpd with poll(), 251 inactive connections",
			"Breaks down sooner as inactive-connection load increases; minimum response rates hit zero in several places."),
		replyFigure(7, ServerThttpdDevPoll, 251,
			"thttpd with /dev/poll, 251 inactive connections",
			"Performs almost as well as with no inactive connections."),
		replyFigure(8, ServerThttpdPoll, 501,
			"Stock thttpd with poll(), 501 inactive connections",
			"Latency due to inactive connections dominates at all request rates: poor performance and high error rates."),
		replyFigure(9, ServerThttpdDevPoll, 501,
			"thttpd with /dev/poll, 501 inactive connections",
			"Handles the high inactive load with ease; performance begins to break down only at extreme request rates."),
		{
			ID:     "fig10",
			Number: 10,
			Title:  "Connection error rate, stock poll() vs /dev/poll, 251 and 501 inactive connections",
			Paper:  "Stock thttpd's error rate climbs toward ~60% of connections; thttpd with /dev/poll shows only sporadic errors (none at 251).",
			Metric: MetricErrorPercent,
			Axis:   AxisRate,
			X:      paperRates(),
			Curves: []Curve{
				curve("normal poll, load 251", ServerThttpdPoll, 251),
				curve("devpoll, load 251", ServerThttpdDevPoll, 251),
				curve("normal poll, load 501", ServerThttpdPoll, 501),
				curve("devpoll, load 501", ServerThttpdDevPoll, 501),
			},
		},
		replyFigure(11, ServerPhhttpd, 1,
			"phhttpd (RT signals), 1 inactive connection",
			"Compares with the best servers at lower rates; very high request rates make it falter due to per-signal system-call overhead."),
		replyFigure(12, ServerPhhttpd, 251,
			"phhttpd (RT signals), 251 inactive connections",
			"Reaches its performance knee sooner; inactive connections unexpectedly increase the cost of handling active ones."),
		replyFigure(13, ServerPhhttpd, 501,
			"phhttpd (RT signals), 501 inactive connections",
			"Inactive-connection load affects throughput at all request rates; scales less well than thttpd with /dev/poll."),
		{
			ID:     "fig14",
			Number: 14,
			Title:  "Median connection time, 251 inactive connections",
			Paper:  "phhttpd responds 1-3 ms faster than thttpd+/dev/poll up to ~900 req/s, then its median latency jumps past 120 ms while thttpd+/dev/poll stays steady; stock poll sits above both.",
			Metric: MetricMedianLatency,
			Axis:   AxisRate,
			X:      paperRates(),
			Curves: []Curve{
				curve("devpoll", ServerThttpdDevPoll, 251),
				curve("normal poll", ServerThttpdPoll, 251),
				curve("phhttpd", ServerPhhttpd, 251),
			},
		},
		replyFigure(15, ServerThttpdEpoll, 501,
			"Extension: thttpd with epoll (level-triggered), 501 inactive connections",
			"Not in the paper. epoll's O(ready) wait should match or beat /dev/poll under heavy inactive load."),
		{
			ID:     "fig16",
			Number: 16,
			Title:  "Extension: event mechanisms compared at 501 inactive connections",
			Paper:  "Not in the paper. Stock poll collapses, /dev/poll and both epoll modes sustain the load.",
			Metric: MetricReplyRate,
			Axis:   AxisRate,
			X:      paperRates(),
			Curves: []Curve{
				curve("normal poll", ServerThttpdPoll, 501),
				curve("devpoll", ServerThttpdDevPoll, 501),
				curve("epoll", ServerThttpdEpoll, 501),
				curve("epoll-et", ServerThttpdEpollET, 501),
			},
		},
		{
			ID:     "fig17",
			Number: 17,
			Title:  "Extension: prefork worker scaling, 1500 inactive connections, 3000 req/s offered",
			Paper: "Not in the paper, whose testbed is a uniprocessor. N epoll workers on N CPUs " +
				"(SO_REUSEPORT sharding) should lift the single-worker saturation point near-linearly " +
				"until capacity meets the offered load; per-CPU utilisation falls once it does.",
			Metric: MetricReplyCPU,
			Axis:   AxisWorkers,
			X:      workerCounts,
			Curves: []Curve{workerCurve("reuseport-hash", prefork.ModeReuseport, netsim.ShardHash)},
		},
		{
			ID:     "fig18",
			Number: 18,
			Title:  "Extension: accept-sharding policy ablation, 1500 inactive connections, 3000 req/s offered",
			Paper: "Not in the paper. SO_REUSEPORT hash sharding versus idealised round-robin dispatch " +
				"versus the classic single-acceptor handoff: the handoff's serialised accept path and " +
				"per-connection descriptor passing cost it the scaling the in-stack policies keep.",
			Metric: MetricReplyRate,
			Axis:   AxisWorkers,
			X:      workerCounts,
			Curves: []Curve{
				workerCurve("reuseport-hash", prefork.ModeReuseport, netsim.ShardHash),
				workerCurve("reuseport-rr", prefork.ModeReuseport, netsim.ShardRoundRobin),
				workerCurve("handoff", prefork.ModeHandoff, netsim.ShardHash),
			},
		},
		p99Figure(19, "Overload: constant arrivals past saturation, 251 inactive connections",
			"The shape Figures 4-13 imply but never draw in full: reply rate tracks the offered "+
				"load, flattens at each mechanism's capacity, then declines as retries and timeouts eat "+
				"useful work, while p99 latency explodes at the knee.",
			RunSpec{Workload: "constant"}, AxisRate, overloadRates(), mechanismCurves(251)),
		p99Figure(20, "Overload: flash-crowd burst trains, 251 inactive connections",
			"Not in the paper. Bursts at three times the nominal rate saturate every mechanism "+
				"well before its constant-rate knee; the interest-set-scanning servers degrade soonest "+
				"because each burst arrives on top of the idle-connection scan.",
			RunSpec{Workload: "flashcrowd"}, AxisRate, overloadRates(), mechanismCurves(251)),
		p99Figure(21, "Overload: heavy-tailed (Pareto) arrivals, 251 inactive connections",
			"Not in the paper. Clumped arrivals with the same mean rate raise tail latency at "+
				"every load; mechanisms with O(ready) waits absorb the clumps, poll() pays the full "+
				"interest-set scan per clump.",
			RunSpec{Workload: "pareto"}, AxisRate, overloadRates(), mechanismCurves(251)),
		p99Figure(22, "Adversarial: slow-loris background population (251 tricklers)",
			"Not in the paper. Unlike silent inactive connections, tricklers generate a steady "+
				"event stream and defeat the idle sweep: every dribbled byte costs an interrupt, a "+
				"readiness event and a read, so the background load taxes the event path itself.",
			RunSpec{Workload: "slowloris"}, AxisRate, overloadRates(), mechanismCurves(251)),
		p99Figure(23, "Adversarial: stalled-reader background population (251 stalled)",
			"Not in the paper. Stalled readers make the server do the full accept/parse/serve "+
				"work, then jam its response against a closed receive window: each one holds a "+
				"descriptor, an interest-set entry and a blocked write until the idle sweep evicts it.",
			RunSpec{Workload: "stalled"}, AxisRate, overloadRates(), mechanismCurves(251)),
		p99Figure(24, "Overload: WAN RTT mix, 251 inactive connections",
			"Not in the paper, whose clients sit on a uniform LAN. Wide-area RTTs stretch "+
				"connection lifetimes, so the server holds many more concurrent connections at the "+
				"same offered rate and the p99 is dominated by the slow-path tail.",
			RunSpec{Workload: "wan"}, AxisRate, overloadRates(), mechanismCurves(251)),
		p99Figure(25, "Overload: prefork worker counts under flash-crowd bursts, 500 inactive connections",
			"Not in the paper. Adding workers moves the knee to the right near-linearly: the "+
				"offered rate at which reply rate departs the diagonal and p99 departs the floor "+
				"roughly doubles from one to two to four workers.",
			RunSpec{Workload: "flashcrowd"}, AxisRate, []float64{1000, 2000, 3000, 4000},
			[]Curve{
				curve("prefork-1", PreforkKind(1), 500),
				curve("prefork-2", PreforkKind(2), 500),
				curve("prefork-4", PreforkKind(4), 500),
			}),
		scaleFigure(26, 10000, false, scaleTitle, scalePaper, scaleCurves(true)),
		scaleFigure(27, 20000, false, scaleTitle, scalePaper, scaleCurves(true)),
		scaleFigure(28, 30000, false, scaleTitle, scalePaper, scaleCurves(true)),
		scaleFigure(29, 100000, true, massiveTitle, massivePaper, scaleCurves(false)),
		scaleFigure(30, 300000, true, massiveTitle, massivePaper, scaleCurves(false)),
		scaleFigure(31, 1000000, true, massiveTitle, massivePaper, scaleCurves(false)),
		p99Figure(32, "Keep-alive vs HTTP/1.0 at the overload knee, five mechanisms, 251 inactive connections",
			"Not in the paper, whose testbed closed every connection after one request. Each keep-alive "+
				"client pipelines its eight requests over one connection, so the accept, the interest-set "+
				"registration and the close are amortised over eight requests and the server dispatches "+
				"whole batches per readiness event. Every mechanism's reply-rate knee moves right; the "+
				"mechanisms whose per-event costs dominate (poll's full-set scan on every dispatch) gain "+
				"the most. The offered request budget matches the HTTP/1.0 curves: one eighth as many "+
				"connections at one eighth the connection rate.",
			RunSpec{Workload: "constant"}, AxisRate, overloadRates(), kaCompare),
		p99Figure(33, "Pipeline depth 1 vs 4 vs 16 on keep-alive epoll, 16 requests per connection, 251 inactive connections",
			"Not in the paper. Pipelining removes the client's request-response round trip from the "+
				"connection's critical path; past depth ~4 the server's bounded per-dispatch batch (not "+
				"the network) paces the connection, so returns diminish.",
			RunSpec{Workload: "constant"}, AxisRate, overloadRates(), []Curve{depth(1), depth(4), depth(16)}),
		p99Figure(34, "Response cache size sweep on keep-alive epoll, 251 inactive connections",
			"Not in the paper. cache-off is the legacy model with no file-access charges at all; "+
				"turning the explicit file model on, a cache too small for the document (4 KB vs the "+
				"6 KB default document) pays open-plus-page-read on every request, while any "+
				"sufficient size serves from the mmap'd cache at a fraction of that.",
			RunSpec{Workload: "constant"}, AxisRate, overloadRates(), []Curve{cache(0), cache(4), cache(64), cache(1024)}),
		p99Figure(35, "Write path copy vs writev vs sendfile on keep-alive epoll, 251 inactive connections",
			"Not in the paper. Two-write copy pays the user-space copy twice plus an extra "+
				"syscall; writev folds header and body into one charge; sendfile skips the "+
				"user-space copy entirely and charges per page crossed.",
			RunSpec{Workload: "constant"}, AxisRate, overloadRates(),
			[]Curve{write(httpcore.WriteCopy), write(httpcore.WriteWritev), write(httpcore.WriteSendfile)}),
		p99Figure(36, "Server push: delivery rate and p99 vs offered rate, 10000 subscribed members, five mechanisms",
			"Not in the paper, whose traffic is all client-initiated. Members subscribe once and go "+
				"silent; the server fans 32-payload ticks out to sampled member sets, so under 1% of the "+
				"interest set is active at any instant and the mechanisms separate purely on what an "+
				"idle registration costs per dispatch: poll rescans all 10000 members every tick.",
			RunSpec{Workload: "push", Connections: 10000}, AxisRate, []float64{1000, 4000, 16000},
			mostlyIdleCurves("push")),
		p99Figure(37, "Server push at 100000 members: the millions-mostly-idle regime, five mechanisms",
			"Not in the paper: two orders of magnitude past its testbed. With 100k members and 32 "+
				"pushes per tick (>=99.9% of the interest set idle), poll's full-set scan per tick "+
				"dominates everything else the server does and its delivery rate collapses, while "+
				"/dev/poll, epoll and the completion ring stay on the offered-rate diagonal.",
			RunSpec{Workload: "push", Connections: 100000, Network: portSpace(2*100000 + 100000)},
			AxisRate, []float64{1000, 3200, 6400}, mostlyIdleCurves("push")),
		p99Figure(38, "Datagram churn: pong rate and p99 vs offered ping rate, 4000 peer sessions, five mechanisms",
			"Not in the paper, which never leaves TCP. Peers join a rendezvous node at 200/s, ping "+
				"their per-peer session sockets and leave; the interest set is one datagram descriptor "+
				"per live peer, churning constantly, so the figure measures registration and teardown "+
				"cost as much as dispatch.",
			RunSpec{Workload: "dhtchurn", Connections: 4000}, AxisRate, []float64{1000, 2000, 4000, 8000},
			mostlyIdleCurves("dht")),
		p99Figure(39, "Datagram churn: pong rate and p99 vs churn rate at 2000 pings/s, 4000 peer sessions, five mechanisms",
			"Not in the paper. Holding the ping rate fixed and sweeping the join rate moves the "+
				"descriptor-churn/dispatch ratio: at low churn sessions live long and the run is all "+
				"dispatch, at high churn every mechanism pays constant interest-set registration and "+
				"teardown, the cost /dev/poll-style kernel-resident sets amortise and poll does not.",
			RunSpec{Workload: "dhtchurn", Connections: 4000, RequestRate: 2000},
			AxisChurn, []float64{50, 100, 200, 400, 800}, mostlyIdleCurves("dht")),
		chaosFigure(40, "Chaos: connection resets mid-request and mid-response, five mechanisms, 251 inactive connections",
			"Not in the paper, whose clients always complete or time out cleanly. A deterministic "+
				"fraction of connections RST mid-exchange: half mid-request (the server's read fails with "+
				"ECONNRESET), half mid-response (the draining write fails with EPIPE). The server must "+
				"unwind each one without leaking a descriptor, a pooled connection or a timer; reply rate "+
				"should fall roughly linearly with the doomed fraction.",
			AxisReset, []float64{0, 0.02, 0.05, 0.1, 0.2}, mechanismCurves(251)),
		chaosFigure(41, "Chaos: descriptor-limit headroom (RLIMIT_NOFILE), five mechanisms, 251 inactive connections",
			"Not in the paper. With 251 inactive connections pinning descriptors, shrinking the "+
				"process fd limit squeezes the headroom for active ones until accept fails with EMFILE. "+
				"The reserve-descriptor drain sheds the overflow cleanly and paced backoff keeps the "+
				"accept loop from spinning; reply rate should degrade to the sustainable headroom, not "+
				"collapse.",
			AxisFDLimit, []float64{0, 600, 450, 350, 300}, mechanismCurves(251)),
		chaosFigure(42, "Chaos: EINTR storms on the blocking wait, five mechanisms, 251 inactive connections",
			"Not in the paper. Each blocking wait episode is interrupted with probability p and "+
				"restarts with a recomputed timeout; the interrupt charges a signal delivery and the "+
				"restart a fresh syscall entry. Readiness arriving during the interrupt window must not "+
				"be lost, so the cost is pure overhead: reply rate bends down gently as p grows.",
			AxisEINTR, []float64{0, 0.2, 0.4, 0.6, 0.8}, mechanismCurves(251)),
		chaosFigure(43, "Chaos: notification-queue overflow storms, RT signals and completion ring",
			"Not in the paper, though its Section 5 fears exactly this: the RT signal queue "+
				"overflows and the server must fall back to a full scan. Injected kernel-side bursts "+
				"swallow a deterministic fraction of signal enqueues and ring posts, forcing repeated "+
				"overflow-recovery cycles with live traffic between them; the mechanisms whose recovery "+
				"is a bounded rescan degrade smoothly as the storm intensifies.",
			AxisOverflow, []float64{0, 0.05, 0.1, 0.2, 0.4},
			[]Curve{
				curve("phhttpd", ServerPhhttpd, 251),
				curve("hybrid", ServerHybrid, 251),
				curve("compio", ServerThttpdCompio, 251),
			}),
	}
}

// FigureByID looks a figure up by its "fig04"-style identifier or by its bare
// number ("4"), returning a listed-choices error for an unknown id.
func FigureByID(id string) (Figure, error) {
	key := strings.ToLower(strings.TrimSpace(id))
	figs := Figures()
	for _, f := range figs {
		if f.ID == key || strconv.Itoa(f.Number) == key {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("experiments: unknown figure %q (choices: %d..%d or fig%02d..fig%d)",
		id, figs[0].Number, figs[len(figs)-1].Number, figs[0].Number, figs[len(figs)-1].Number)
}
