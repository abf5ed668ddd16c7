// Package loadgen reimplements the measurement client of the paper: httperf
// driving a fixed request rate of HTTP/1.0 GETs for a 6 KB document, modified
// as the authors describe (§5) to also maintain a constant population of
// inactive, high-latency connections that never complete a request and that
// reopen themselves whenever the server times them out.
//
// The generator is open-loop: connections are started on a fixed schedule
// derived from the target request rate regardless of whether earlier ones have
// completed, which is what drives an overloaded server into the collapsing
// reply rates and rising error percentages of Figures 4-13.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/simkernel"
)

// ErrorReason labels a failed benchmark connection, mirroring httperf's error
// classes.
type ErrorReason string

// Error reasons.
const (
	ErrRefused   ErrorReason = "connrefused" // SYN rejected (backlog full / no listener)
	ErrReset     ErrorReason = "connreset"   // connection reset or truncated response
	ErrTimeout   ErrorReason = "client-timo" // no complete response within Timeout
	ErrPortSpace ErrorReason = "fd-unavail"  // client ran out of ports/descriptors
)

// ClientProfile bundles the per-connection client knobs — request count,
// pipelining, patience, inactive-client latency, jitter and retry — into one
// value a caller can pass around whole. New fills a zero field with its
// default (one-request HTTP/1.0 clients, serial dispatch, 5 s patience,
// 100 ms inactive RTT); DefaultConfig also sets the paper's 0.2 jitter, which
// a zero Jitter turns off. Benchmark connections use the network's LAN RTT
// unless Workload.RTTMix draws one.
type ClientProfile struct {
	// RequestsPerConn is how many requests each benchmark connection issues
	// (HTTP/1.1, the final one carrying Connection: close) before the
	// connection ends; 0 or 1 selects the historical one-request HTTP/1.0
	// client. Config.RequestRate remains the request rate: connections
	// launch at RequestRate/RequestsPerConn so a figure's x axis stays the
	// offered request load.
	RequestsPerConn int
	// PipelineDepth is how many requests a keep-alive client keeps
	// outstanding — sent before their predecessors' responses arrive; 0 or 1
	// waits for each response before sending the next request.
	PipelineDepth int
	// Timeout aborts a connection that has not completed in this long
	// (httperf --timeout). Default 5 s.
	Timeout core.Duration
	// InactiveRTT is the round-trip time of the inactive clients (default
	// 100 ms, a modem-like path).
	InactiveRTT core.Duration
	// Jitter is the fraction of the inter-arrival gap randomised (0..1).
	Jitter float64
	// Retry enables deterministic client retry: a benchmark connection that
	// fails (refused, reset, truncated, timed out, out of ports) relaunches
	// after a capped exponential backoff with seeded jitter instead of being
	// booked as an error, until RetryMax attempts are exhausted. Off by
	// default; benchfig gates it behind -retry. A retried connection
	// keeps its original start time, so latency measures the full
	// client-perceived wait, backoffs included.
	Retry bool
}

// The retry schedule: each connection gets RetryMax attempts beyond the
// original, and retry n waits RetryBase·2^(n-1), capped at 32·RetryBase,
// scaled by a deterministic per-(connection, attempt) jitter factor in
// [0.5, 1.5).
const (
	RetryMax  = 3
	RetryBase = 100 * core.Millisecond
)

// Config parameterises one benchmark run (one point in a figure).
type Config struct {
	// RequestRate is the targeted connection (request) rate in requests/second.
	RequestRate float64
	// Connections is the number of benchmark connections to issue; the paper
	// uses 35000 per run to stay clear of the TIME-WAIT port limit.
	Connections int
	// InactiveConnections is the constant population of stalled, high-latency
	// connections (the paper's loads of 1, 251 and 501).
	InactiveConnections int
	// Profile bundles the per-connection client knobs; New fills its zero
	// fields with the defaults (DefaultConfig sets the paper's).
	Profile ClientProfile
	// SampleInterval is the reply-rate sampling period (httperf uses 5 s).
	SampleInterval core.Duration
	// Seed drives the arrival jitter; runs with equal seeds are identical.
	Seed int64
	// Workload selects the traffic family, the arrival process, the
	// background-population behavior and the client RTT distribution. The
	// zero value is the paper's workload (constant arrivals, silent inactive
	// clients, LAN).
	Workload Workload
}

// DefaultConfig returns the paper's workload shape at the given request rate
// and inactive-connection load.
func DefaultConfig(rate float64, inactive int) Config {
	return Config{
		RequestRate:         rate,
		Connections:         35000,
		InactiveConnections: inactive,
		Profile: ClientProfile{
			Timeout:     5 * core.Second,
			InactiveRTT: 100 * core.Millisecond,
			Jitter:      0.2,
		},
		SampleInterval: 5 * core.Second,
		Seed:           1,
	}
}

// Result summarises one benchmark run.
type Result struct {
	Config Config

	Finished core.Time

	Issued    int
	Completed int
	Errors    int
	ErrorsBy  map[ErrorReason]int

	// ReplyRate summarises the per-interval reply-rate samples (avg/min/max/sd),
	// exactly what Figures 4-9 and 11-13 plot per offered rate.
	ReplyRateSamples []float64
	ReplyRate        metrics.Summary

	// Latency of completed connections, in milliseconds.
	MedianLatencyMs float64
	MeanLatencyMs   float64
	P90LatencyMs    float64
	MaxLatencyMs    float64

	// Latency is the percentile summary (p50/p90/p99/p999) of the same
	// completed-connection latencies, derived from the generator's fixed
	// bucket histogram — the distribution lens the overload figures plot
	// next to reply rate.
	Latency metrics.LatencyPercentiles

	// Replies counts completed responses across all connections: equal to
	// Completed for one-request connections, up to RequestsPerConn times it
	// for keep-alive runs. Reply-rate samples count replies, not connections.
	Replies int

	// ErrorPercent is the percentage of benchmark connections that failed
	// (Figure 10).
	ErrorPercent float64

	// Retries counts retry relaunches across all connections (always zero
	// unless Profile.Retry is enabled).
	Retries int

	// OfferedRate is the achieved connection-issue rate.
	OfferedRate float64
}

// String renders the one-line summary benchfig prints per point.
func (r Result) String() string {
	return fmt.Sprintf("rate=%4.0f load=%3d reply(avg=%6.1f min=%6.1f max=%6.1f sd=%5.1f) err=%5.1f%% median=%6.2fms",
		r.Config.RequestRate, r.Config.InactiveConnections,
		r.ReplyRate.Mean, r.ReplyRate.Min, r.ReplyRate.Max, r.ReplyRate.StdDev,
		r.ErrorPercent, r.MedianLatencyMs)
}

// Generator drives one benchmark run against the simulated server.
type Generator struct {
	k   *simkernel.Kernel
	net *netsim.Network
	cfg Config
	rng *rand.Rand

	request        []byte
	partialRequest []byte
	expectedSize   int

	// Keep-alive client state (reqsPerConn > 1): the persistent and the final
	// Connection: close request, and the two response sizes the client needs
	// to recognise reply boundaries on a shared connection.
	reqsPerConn int
	pipeDepth   int
	kaRequest   []byte
	kaFinal     []byte
	kaSize      int
	closeSize   int

	issued  int
	retries int

	// The run's books: one laneAcc per simulator lane. Every connection's
	// client callbacks execute on its home lane, so each lane books into its
	// own accumulator (indexed by the connection's lane) and Result merges
	// them; a sequential run is the 1-lane case. driverQ is lane 0, where the
	// launch schedule, the rng and the port accounting live. psamples holds
	// the closed reply-rate samples of a finished run (see mergedSamples).
	driverQ  simkernel.Q
	lanes    []laneAcc
	psamples []float64
	pbase    bool
	latCache latSummary

	// Push-family state (KindPush). The member registry and the delivery
	// budget are owned by the push server's lane — every member's home lane,
	// since they all hash to the one listener — so they stay single-writer
	// on a parallel run; the driver lane only launches connections, carving
	// each member from memberSlab, which no other lane touches.
	pushPayload int
	pushMembers []*pushMember
	memberSlab  core.Slab[pushMember]
	pushDone    int
	pushClosing bool

	// Churn-family state (KindDHTChurn), read-only after Start; the peers
	// themselves live on the datagram home lane.
	dhtQuota        int
	dhtPingSize     int
	dhtPingInterval core.Duration

	started  core.Time
	finished core.Time
	running  bool
	done     bool
	onDone   func(Result)
}

// latSummary is latencySummary's result for the first n latency samples.
type latSummary struct {
	n                   int
	mean, p50, p90, max float64
}

// laneAcc is one lane's share of the run bookkeeping: written only by
// callbacks executing on that lane, read by other code only in barrier serial
// sections or after the run.
type laneAcc struct {
	resolved      int
	completed     int
	replies       int
	errors        int
	errorsBy      map[ErrorReason]int
	latenciesMs   []float64
	hist          metrics.LatencyHist
	counts        []int // completions per sampling interval, by interval index
	lastResolveAt core.Time
	lastRecordAt  core.Time

	// free holds activeConn records released on this lane (see
	// activeConn.onTimeout); launches draw from the driver lane's list, and
	// on a parallel run a barrier hook moves the other lanes' lists there.
	free []*activeConn

	_ [64]byte // keep adjacent lanes off one cache line
}

func (ln *laneAcc) bump(idx int) {
	ln.counts = core.GrowTo(ln.counts, idx)
	ln.counts[idx]++
}

// observe books one reply latency. The list grows by doubling: a long run
// books hundreds of thousands of latencies, which append would copy at
// about 1.25× a step.
func (ln *laneAcc) observe(d core.Duration) {
	n := len(ln.latenciesMs)
	ln.latenciesMs = core.GrowTo(ln.latenciesMs, n)
	ln.latenciesMs[n] = d.Milliseconds()
	ln.hist.Observe(d)
}

// New creates a generator for the given kernel, network and workload.
func New(k *simkernel.Kernel, net *netsim.Network, cfg Config) *Generator {
	if cfg.Connections <= 0 {
		cfg.Connections = 1
	}
	if cfg.RequestRate <= 0 {
		cfg.RequestRate = 1
	}
	p := &cfg.Profile
	if p.Timeout <= 0 {
		p.Timeout = 5 * core.Second
	}
	if p.InactiveRTT <= 0 {
		p.InactiveRTT = 100 * core.Millisecond
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 5 * core.Second
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.RequestsPerConn < 1 {
		p.RequestsPerConn = 1
	}
	if p.PipelineDepth < 1 {
		p.PipelineDepth = 1
	}
	g := &Generator{
		k:              k,
		net:            net,
		cfg:            cfg,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		request:        httpsim.FormatRequest(httpsim.DefaultDocumentPath),
		partialRequest: httpsim.FormatPartialRequest(httpsim.DefaultDocumentPath),
		expectedSize:   httpsim.ResponseSize(httpsim.StatusOK, httpsim.DefaultDocumentSize),
	}
	g.reqsPerConn = cfg.Profile.RequestsPerConn
	g.pipeDepth = cfg.Profile.PipelineDepth
	if g.reqsPerConn > 1 {
		g.kaRequest = httpsim.FormatRequest11(httpsim.DefaultDocumentPath, false)
		g.kaFinal = httpsim.FormatRequest11(httpsim.DefaultDocumentPath, true)
		g.kaSize = httpsim.ResponseSizeVersion(httpsim.StatusOK, httpsim.DefaultDocumentSize, true)
		g.closeSize = httpsim.ResponseSizeVersion(httpsim.StatusOK, httpsim.DefaultDocumentSize, false)
	}
	g.driverQ = k.Sim.LaneQ(0)
	g.lanes = make([]laneAcc, k.Sim.NumLanes())
	for i := range g.lanes {
		g.lanes[i].errorsBy = make(map[ErrorReason]int)
	}
	return g
}

// OnDone registers a callback invoked once every benchmark connection has
// resolved (completed or failed).
func (g *Generator) OnDone(fn func(Result)) { g.onDone = fn }

// Done reports whether the run has finished.
func (g *Generator) Done() bool { return g.done }

// Start launches the inactive-connection population and schedules the
// benchmark connections at the configured rate.
func (g *Generator) Start(now core.Time) {
	if g.running {
		return
	}
	g.running = true
	if len(g.lanes) > 1 {
		// Completion cannot be detected inside a lane (no lane sees the
		// others' resolution counts), so it is checked in the serial section
		// of every barrier, where all lanes are quiescent. A 1-lane run
		// checks inside the resolving event instead (resolvedOne).
		g.k.Sim.OnBarrier(g.checkDone)
		g.k.Sim.OnBarrier(g.gatherFree)
	}
	switch g.cfg.Workload.Kind {
	case KindPush:
		g.startPush(now)
		return
	case KindDHTChurn:
		g.startDHT(now)
		return
	}

	for i := 0; i < g.cfg.InactiveConnections; i++ {
		ic := &inactiveClient{gen: g, kind: g.cfg.Workload.Background}
		// Stagger inactive connection setup over the first 200 ms so the
		// listener backlog is not hit by a synchronised burst.
		delay := core.Duration(g.rng.Int63n(int64(200 * core.Millisecond)))
		g.driverQ.At(now.Add(delay), ic.open)
	}

	at := now
	if g.cfg.InactiveConnections > 0 {
		// The paper's procedure establishes the inactive population before the
		// measured load is applied; give it a head start so every benchmark
		// point sees the full configured interest-set size.
		at = at.Add(400 * core.Millisecond)
	}
	// Measurement (reply-rate sampling, offered-rate accounting) begins when
	// the benchmark load begins, not when the inactive population is set up.
	g.started = at
	switch g.cfg.Workload.Arrival {
	case ArrivalFlashCrowd:
		g.scheduleFlashCrowd(now, at)
	case ArrivalPareto:
		g.schedulePareto(now, at)
	default:
		g.scheduleConstant(now, at)
	}
}

// scheduleConstant is the paper's open-loop schedule: fixed inter-arrival
// interval with uniform jitter.
func (g *Generator) scheduleConstant(now, at core.Time) {
	interval := core.Duration(float64(core.Second) / g.connRate())
	g.driverQ.AtEach(g.steadyLaunches(now, at, interval), g.launchOne)
}

// scheduleFlashCrowd issues burst trains: BurstFactor times the configured
// rate for BurstDuration out of every BurstPeriod, with the quiet phase
// derated so the long-run mean rate is preserved.
func (g *Generator) scheduleFlashCrowd(now, at core.Time) {
	wl := g.cfg.Workload
	period := wl.BurstPeriod
	if period <= 0 {
		period = 2 * core.Second
	}
	burst := wl.BurstDuration
	if burst <= 0 || burst >= period {
		burst = period / 4
	}
	factor := wl.BurstFactor
	if factor <= 1 {
		factor = 3
	}
	rate := g.connRate()
	burstRate := rate * factor
	// Solve rate*period = burstRate*burst + quietRate*(period-burst); a
	// factor too large for the period leaves nothing for the quiet phase, so
	// clamp it to a trickle rather than schedule backwards.
	quietRate := rate * (period.Seconds() - factor*burst.Seconds()) / (period.Seconds() - burst.Seconds())
	if quietRate < rate/100 {
		quietRate = rate / 100
	}
	times := make([]core.Time, g.cfg.Connections)
	offset := core.Duration(0)
	for i := range times {
		r := burstRate
		if offset%period >= burst {
			r = quietRate
		}
		interval := core.Duration(float64(core.Second) / r)
		times[i] = max(at.Add(offset).Add(g.jitterFor(interval)), now)
		offset += interval
	}
	g.driverQ.AtEach(times, g.launchOne)
}

// schedulePareto draws inter-arrival gaps from a Pareto distribution with
// shape alpha and scale chosen so the mean gap is 1/rate: the heavy-tailed
// clumping of real web traffic. Gaps are capped at one hundred mean gaps so a
// single extreme draw cannot stall the run.
func (g *Generator) schedulePareto(now, at core.Time) {
	alpha := g.cfg.Workload.ParetoAlpha
	if alpha <= 1.05 {
		alpha = 1.5
	}
	mean := 1 / g.connRate() // seconds
	xm := mean * (alpha - 1) / alpha
	times := make([]core.Time, g.cfg.Connections)
	offset := core.Duration(0)
	for i := range times {
		times[i] = max(at.Add(offset), now)
		u := 1 - g.rng.Float64() // (0, 1]
		gap := xm / math.Pow(u, 1/alpha)
		if gap > 100*mean {
			gap = 100 * mean
		}
		offset += core.Duration(gap * float64(core.Second))
	}
	g.driverQ.AtEach(times, g.launchOne)
}

// steadyLaunches returns Config.Connections launch instants from at onward,
// one per interval with uniform jitter and clamped to now: the schedule of
// the constant arrival process, the push member ramp and the DHT peer joins.
func (g *Generator) steadyLaunches(now, at core.Time, interval core.Duration) []core.Time {
	times := make([]core.Time, g.cfg.Connections)
	for i := range times {
		times[i] = max(at.Add(g.jitterFor(interval)), now)
		at = at.Add(interval)
	}
	return times
}

// connRate is the connection-launch rate: the configured request rate spread
// over each connection's request count, so keep-alive runs offer the same
// request load through fewer, longer-lived connections.
func (g *Generator) connRate() float64 {
	return g.cfg.RequestRate / float64(g.reqsPerConn)
}

// jitterFor draws the uniform schedule jitter for one inter-arrival interval.
func (g *Generator) jitterFor(interval core.Duration) core.Duration {
	if g.cfg.Profile.Jitter <= 0 {
		return 0
	}
	span := float64(interval) * g.cfg.Profile.Jitter
	return core.Duration((g.rng.Float64() - 0.5) * span)
}

// launchOne starts a single benchmark connection.
func (g *Generator) launchOne(now core.Time) {
	g.issued++
	var rtt core.Duration // the network's LAN RTT
	if len(g.cfg.Workload.RTTMix) > 0 {
		rtt = netsim.SampleRTT(g.cfg.Workload.RTTMix, g.rng.Float64())
	}
	ac := g.newActive()
	ac.started, ac.reqStart, ac.lastProgress, ac.rtt = now, now, now, rtt
	ac.conn = g.net.ConnectWith(now, netsim.ConnectOptions{RTT: rtt}, ac)
	// httperf's client-side timeout, delivered on the connection's home lane
	// (a plain same-lane event on a sequential run).
	g.driverQ.Post(ac.conn.Q(), now.Add(g.cfg.Profile.Timeout), ac.onTimeoutFn)
}

// newActive returns a zeroed activeConn: a released one from the driver
// lane's free list, or a fresh one with its watchdog callback bound once.
func (g *Generator) newActive() *activeConn {
	ln := &g.lanes[0]
	if n := len(ln.free); n > 0 {
		a := ln.free[n-1]
		ln.free[n-1] = nil
		ln.free = ln.free[:n-1]
		*a = activeConn{gen: g, onTimeoutFn: a.onTimeoutFn}
		return a
	}
	a := &activeConn{gen: g}
	a.onTimeoutFn = a.onTimeout
	return a
}

// gatherFree runs in the serial section of every barrier of a parallel run:
// it moves the activeConns released on connection lanes to the driver lane,
// where launches reuse them.
func (g *Generator) gatherFree(core.Time) {
	for i := 1; i < len(g.lanes); i++ {
		g.lanes[0].free = append(g.lanes[0].free, g.lanes[i].free...)
		clear(g.lanes[i].free)
		g.lanes[i].free = g.lanes[i].free[:0]
	}
}

// recordCompletion books a successful reply. q is the resolving connection's
// home lane — the executing lane for every resolution callback — so the books
// are kept in that lane's accumulator.
func (g *Generator) recordCompletion(q simkernel.Q, started, now core.Time) {
	ln := &g.lanes[q.LaneIndex()]
	ln.completed++
	ln.replies++
	ln.resolved++
	ln.bump(g.sampleIdx(now))
	ln.observe(now.Sub(started))
	ln.lastResolveAt = now
	ln.lastRecordAt = now
	g.resolvedOne()
}

// recordReply books one completed keep-alive reply: the reply-rate sample and
// the per-reply latency (anchored at the request's dispatch — the previous
// reply's arrival on a pipelined stream). Connection resolution is booked
// separately once the final reply lands.
func (g *Generator) recordReply(q simkernel.Q, reqStart, now core.Time) {
	ln := &g.lanes[q.LaneIndex()]
	ln.replies++
	ln.bump(g.sampleIdx(now))
	ln.observe(now.Sub(reqStart))
	ln.lastRecordAt = now
}

// resolveKeepAlive books the end of a keep-alive connection whose final reply
// recordReply already counted.
func (g *Generator) resolveKeepAlive(q simkernel.Q, now core.Time) {
	ln := &g.lanes[q.LaneIndex()]
	ln.completed++
	ln.resolved++
	ln.lastResolveAt = now
	g.resolvedOne()
}

// expectAfter is the cumulative response bytes a keep-alive client expects
// once k replies have arrived: k keep-alive responses, with the final reply
// carrying the (shorter) Connection: close head.
func (g *Generator) expectAfter(k int) int {
	if k >= g.reqsPerConn {
		return (g.reqsPerConn-1)*g.kaSize + g.closeSize
	}
	return k * g.kaSize
}

// recordError books a failed benchmark connection.
func (g *Generator) recordError(q simkernel.Q, reason ErrorReason, now core.Time) {
	ln := &g.lanes[q.LaneIndex()]
	ln.errors++
	ln.resolved++
	ln.errorsBy[reason]++
	ln.lastResolveAt = now
	g.resolvedOne()
}

// resolvedOne follows every connection resolution. A 1-lane run checks for
// the end of the run right here, inside the resolving event, so the engine
// stops at that very instant; a multi-lane run leaves it to the barrier hook.
func (g *Generator) resolvedOne() {
	if len(g.lanes) == 1 {
		g.checkDone(0)
	}
}

// sampleIdx maps a completion instant onto its sampling-interval index, with
// the sampler's edge rule: a completion exactly on an interval edge counts
// toward the interval that starts there.
func (g *Generator) sampleIdx(now core.Time) int {
	d := now.Sub(g.started)
	if d < 0 {
		return 0
	}
	return int(d / g.cfg.SampleInterval)
}

// checkDone completes the run once the full population has been issued and
// every issued connection has resolved. A multi-lane run invokes it in the
// serial section of every barrier epoch, while all lanes are quiescent.
func (g *Generator) checkDone(core.Time) {
	if g.done || g.issued < g.cfg.Connections {
		return
	}
	resolved := 0
	var last core.Time
	for i := range g.lanes {
		resolved += g.lanes[i].resolved
		if g.lanes[i].lastResolveAt > last {
			last = g.lanes[i].lastResolveAt
		}
	}
	if resolved < g.issued {
		return
	}
	g.done = true
	// A 1-lane run finishes inside the last resolution event; a multi-lane
	// run detects it a barrier later, so the recorded finish instant is
	// pinned to that last resolution, not the barrier floor.
	g.finished = last
	if g.onDone != nil {
		g.onDone(g.Result())
	}
}

// Result assembles the run summary. It may be called once Done is true (or at
// any time for a partial view). It merges the per-lane books: every merged
// quantity is either an order-free reduction (counts, sorted percentiles,
// histogram buckets) or reconstructed with metrics.RateSampler's exact
// arithmetic, so a sharded run's figures are byte-identical to the 1-lane
// run's.
func (g *Generator) Result() Result {
	end := g.finished
	if end == 0 {
		end = g.k.Now()
	}
	completed, replies, errors := 0, 0, 0
	errorsBy := make(map[ErrorReason]int)
	var hist metrics.LatencyHist
	var lastRecord core.Time
	for i := range g.lanes {
		ln := &g.lanes[i]
		completed += ln.completed
		replies += ln.replies
		errors += ln.errors
		for k, v := range ln.errorsBy {
			errorsBy[k] += v
		}
		hist.Merge(&ln.hist)
		if ln.lastRecordAt > lastRecord {
			lastRecord = ln.lastRecordAt
		}
	}
	total := func(k int) int {
		n := 0
		for i := range g.lanes {
			if k < len(g.lanes[i].counts) {
				n += g.lanes[i].counts[k]
			}
		}
		return n
	}
	res := Result{
		Config:           g.cfg,
		Finished:         end,
		Issued:           g.issued,
		Completed:        completed,
		Replies:          replies,
		Errors:           errors,
		Retries:          g.retries,
		ErrorsBy:         errorsBy,
		ReplyRateSamples: g.mergedSamples(end, lastRecord, total),
	}
	res.ReplyRate = metrics.Summarize(res.ReplyRateSamples)
	if g.issued > 0 {
		res.ErrorPercent = 100 * float64(errors) / float64(g.issued)
	}
	if elapsed := end.Sub(g.started); elapsed > 0 {
		res.OfferedRate = float64(g.issued) / elapsed.Seconds()
	}
	res.MeanLatencyMs, res.MedianLatencyMs, res.P90LatencyMs, res.MaxLatencyMs = g.latencySummary()
	res.Latency = hist.Percentiles()
	return res
}

// latencySummary returns the mean, median, 90th percentile and maximum of the
// per-reply latencies. Result runs at least twice per run (for OnDone and for
// the harness), and samples are only ever appended, so the four values are
// kept with the sample count they were computed from and reused while that
// count holds.
func (g *Generator) latencySummary() (mean, p50, p90, max float64) {
	n := 0
	for i := range g.lanes {
		n += len(g.lanes[i].latenciesMs)
	}
	c := &g.latCache
	if c.n == n { // also no samples yet: the zero cache
		return c.mean, c.p50, c.p90, c.max
	}
	// A 1-lane run reads its lane's samples in place; only the multi-lane
	// merge needs a concatenated copy.
	lat := g.lanes[0].latenciesMs
	if len(g.lanes) > 1 {
		lat = make([]float64, 0, n)
		for i := range g.lanes {
			lat = append(lat, g.lanes[i].latenciesMs...)
		}
	}
	q := metrics.Percentiles(lat, 50, 90, 100)
	*c = latSummary{n: n, mean: metrics.Summarize(lat).Mean, p50: q[0], p90: q[1], max: q[2]}
	return c.mean, c.p50, c.p90, c.max
}

// mergedSamples reproduces metrics.RateSampler's output from the merged
// per-interval completion counts: one sample per closed interval (zero-count
// intervals included), and the trailing partial interval when it is at least
// half an interval long and non-empty. RateSampler.Finish appends that tail on
// every call and Result is invoked once by the OnDone callback and once more
// by the harness, so the same one-tail-per-call growth is reproduced here.
func (g *Generator) mergedSamples(end, lastRecord core.Time, total func(int) int) []float64 {
	interval := g.cfg.SampleInterval
	if !g.done {
		if lastRecord == 0 {
			return nil
		}
		closed := int(lastRecord.Sub(g.started) / interval)
		if closed < 0 {
			closed = 0
		}
		var out []float64
		for k := 0; k < closed; k++ {
			out = append(out, float64(total(k))/interval.Seconds())
		}
		return out
	}
	closed := int(end.Sub(g.started) / interval)
	if closed < 0 {
		closed = 0
	}
	if !g.pbase {
		g.pbase = true
		for k := 0; k < closed; k++ {
			g.psamples = append(g.psamples, float64(total(k))/interval.Seconds())
		}
	}
	tail := end.Sub(g.started) - core.Duration(closed)*interval
	if cur := total(closed); tail >= interval/2 && cur > 0 {
		g.psamples = append(g.psamples, float64(cur)/tail.Seconds())
	}
	return append([]float64(nil), g.psamples...)
}

// activeConn is one benchmark connection's client-side state machine. It
// implements netsim.ConnHandler directly, so launching a connection costs one
// interface value instead of a closure per callback.
type activeConn struct {
	gen      *Generator
	conn     *netsim.ClientConn
	started  core.Time
	received int
	resolved bool
	rtt      core.Duration

	// Retry state (Profile.Retry): the attempt number, incremented when a
	// failure is absorbed into a retry. Timers and late callbacks armed for
	// an earlier attempt compare their stamp against it and stand down.
	attempt int

	// Keep-alive state: requests sent and replies recognised so far, the
	// in-flight request's dispatch time (the latency anchor) and the last
	// instant of progress (the rolling watchdog's anchor).
	sent         int
	replied      int
	reqStart     core.Time
	lastProgress core.Time

	// onTimeoutFn is onTimeout bound once for the record's whole life.
	onTimeoutFn func(now core.Time)
}

// Connected implements netsim.ConnHandler.
func (a *activeConn) Connected(now core.Time) {
	if a.resolved {
		return
	}
	if a.gen.reqsPerConn <= 1 {
		a.conn.Send(now, a.gen.request)
		return
	}
	a.reqStart, a.lastProgress = now, now
	burst := a.gen.pipeDepth
	if burst > a.gen.reqsPerConn {
		burst = a.gen.reqsPerConn
	}
	for i := 0; i < burst; i++ {
		a.sendNext(now)
	}
}

// sendNext issues the connection's next request; the last one carries
// Connection: close.
func (a *activeConn) sendNext(now core.Time) {
	a.sent++
	if a.sent == a.gen.reqsPerConn {
		a.conn.Send(now, a.gen.kaFinal)
		return
	}
	a.conn.Send(now, a.gen.kaRequest)
}

// Refused implements netsim.ConnHandler.
func (a *activeConn) Refused(now core.Time, reason netsim.RefuseReason) {
	if a.resolved {
		return
	}
	a.resolved = true
	switch reason {
	case netsim.RefusedPorts:
		a.failOrRetry(now, ErrPortSpace)
	case netsim.RefusedReset:
		a.failOrRetry(now, ErrReset)
	default:
		a.failOrRetry(now, ErrRefused)
	}
}

// Data implements netsim.ConnHandler.
func (a *activeConn) Data(now core.Time, n int) {
	a.received += n
	if a.gen.reqsPerConn <= 1 || a.resolved {
		return
	}
	// Recognise completed replies by cumulative size, book each one, and keep
	// the pipeline primed (or, serially, dispatch the next request).
	for a.replied < a.sent && a.received >= a.gen.expectAfter(a.replied+1) {
		a.replied++
		a.gen.recordReply(a.conn.Q(), a.reqStart, now)
		a.reqStart, a.lastProgress = now, now
		if a.replied == a.gen.reqsPerConn {
			a.resolved = true
			a.conn.Close(now)
			a.gen.resolveKeepAlive(a.conn.Q(), now)
			return
		}
		if a.sent < a.gen.reqsPerConn {
			a.sendNext(now)
		}
	}
}

// PeerClosed implements netsim.ConnHandler.
func (a *activeConn) PeerClosed(now core.Time) {
	if a.resolved {
		return
	}
	a.resolved = true
	if a.gen.reqsPerConn <= 1 && a.received >= a.gen.expectedSize {
		a.gen.recordCompletion(a.conn.Q(), a.started, now)
		return
	}
	// The server closed the connection before delivering the full response —
	// bad request path, shutdown, idle timeout, or (keep-alive) a close before
	// the final reply; Data has already booked whatever replies did complete.
	// Count it like httperf's connection-reset errors.
	a.failOrRetry(now, ErrReset)
}

// failOrRetry books a terminal connection failure — unless retry is enabled
// and attempts remain, in which case the failure is absorbed and the
// connection relaunches after a capped exponential backoff with seeded
// jitter. The jitter is keyed by the failed attempt's connection id; every
// connection is launched from the driver lane, so the id — and with it the
// whole retry schedule — is thread-count invariant. Called with a.resolved
// already set, which keeps any late callbacks against the failed attempt
// inert during the backoff.
func (a *activeConn) failOrRetry(now core.Time, reason ErrorReason) {
	g := a.gen
	if !g.cfg.Profile.Retry || a.attempt >= RetryMax {
		g.recordError(a.conn.Q(), reason, now)
		return
	}
	a.attempt++
	backoff := RetryBase << uint(a.attempt-1)
	if lim := RetryBase << 5; backoff > lim {
		backoff = lim
	}
	backoff = core.Duration(float64(backoff) * faults.RetryJitter(uint64(g.cfg.Seed), a.conn.ID(), a.attempt))
	// Connection launch state (ports, conn ids) lives on the driver lane;
	// hop there, the same way the inactive population reopens itself.
	a.conn.Q().Post(g.driverQ, now.Add(backoff), a.relaunch)
}

// relaunch opens the retried connection on the driver lane, resetting the
// exchange state but keeping the original start time: the connection's
// latency, if it completes, is the full client-perceived wait.
func (a *activeConn) relaunch(now core.Time) {
	g := a.gen
	g.retries++
	a.resolved = false
	a.received = 0
	a.sent, a.replied = 0, 0
	a.reqStart, a.lastProgress = now, now
	a.conn = g.net.ConnectWith(now, netsim.ConnectOptions{RTT: a.rtt}, a)
	attempt := a.attempt
	g.driverQ.Post(a.conn.Q(), now.Add(g.cfg.Profile.Timeout), func(t core.Time) { a.timeout(attempt, t) })
}

// onTimeout is the first attempt's watchdog. An attempt-0 connection has
// exactly one watchdog pending at any time (armed at launch, re-armed only by
// its own firing), so a firing that does not re-arm is the last event that
// can reach the record: the connection has resolved and closed, and no retry
// is pending. It releases the connection to the network and the record to its
// lane's free list there. A retried connection's records are left to the
// collector — its watchdogs are spread over several attempts and lanes.
func (a *activeConn) onTimeout(now core.Time) {
	if a.timeout(0, now) || !a.resolved || a.attempt != 0 {
		return
	}
	ln := &a.gen.lanes[a.conn.Q().LaneIndex()]
	a.conn.Release()
	a.conn = nil
	ln.free = append(ln.free, a)
}

// timeout is the client-patience watchdog, stamped with the attempt it was
// armed for: a watchdog armed for an attempt that has since failed and been
// retried must not kill the retry's fresh connection early. It reports whether
// it re-armed itself.
func (a *activeConn) timeout(attempt int, now core.Time) (rearmed bool) {
	if a.resolved || attempt != a.attempt {
		return false
	}
	if a.gen.reqsPerConn > 1 {
		// A keep-alive connection legitimately outlives one Timeout; the
		// watchdog instead requires a reply every Timeout window, re-arming
		// itself from the last instant of progress.
		if deadline := a.lastProgress.Add(a.gen.cfg.Profile.Timeout); deadline > now {
			if attempt == 0 {
				a.conn.Q().At(deadline, a.onTimeoutFn)
			} else {
				a.conn.Q().At(deadline, func(t core.Time) { a.timeout(attempt, t) })
			}
			return true
		}
	}
	a.resolved = true
	a.conn.Close(now)
	a.failOrRetry(now, ErrTimeout)
	return false
}

// inactiveClient keeps one perpetually unserviceable connection open against
// the server, reopening it whenever it is refused or timed out, so the
// adversarial population stays constant. Its behavior after connecting
// depends on the workload's BackgroundKind: stay silent with a partial
// request (the paper's inactive load), trickle request bytes forever
// (slow-loris), or request the document and never drain the response
// (stalled reader).
type inactiveClient struct {
	gen  *Generator
	kind BackgroundKind
	conn *netsim.ClientConn
}

func (ic *inactiveClient) open(now core.Time) {
	if ic.gen.done {
		return
	}
	opts := netsim.ConnectOptions{RTT: ic.gen.cfg.Profile.InactiveRTT}
	if ic.kind == BackgroundStalledReader {
		window := ic.gen.cfg.Workload.StallWindow
		if window <= 0 {
			window = 512
		}
		opts.RecvWindow = window
		opts.StallReads = true
	}
	ic.conn = ic.gen.net.ConnectWith(now, opts, ic)
}

// Connected implements netsim.ConnHandler.
func (ic *inactiveClient) Connected(now core.Time) {
	switch ic.kind {
	case BackgroundSlowLoris:
		// Open with the incomplete request, then keep dribbling bytes so the
		// idle sweep never reclaims the connection.
		ic.conn.Send(now, ic.gen.partialRequest)
		ic.scheduleTrickle(now, ic.conn)
	case BackgroundStalledReader:
		// A complete request: the server does the full parse-and-serve work,
		// then its response jams against the never-draining window.
		ic.conn.Send(now, ic.gen.request)
	default:
		// Send a deliberately incomplete request so the server parks the
		// connection in its interest set.
		ic.conn.Send(now, ic.gen.partialRequest)
	}
}

// Data implements netsim.ConnHandler.
func (ic *inactiveClient) Data(core.Time, int) {}

// Refused implements netsim.ConnHandler.
func (ic *inactiveClient) Refused(now core.Time, reason netsim.RefuseReason) {
	ic.onClosedOrRefused(now, reason)
}

// PeerClosed implements netsim.ConnHandler.
func (ic *inactiveClient) PeerClosed(now core.Time) {
	ic.onClosedOrRefused(now, netsim.RefusedReset)
}

// scheduleTrickle arms the next slow-loris byte for the given connection on
// the connection's own lane. The loop is bound to one connection instance: a
// connection never returns to the established state once it leaves it, so
// after a refusal or close the stale loop dies and Connected starts a new one
// for the replacement connection.
func (ic *inactiveClient) scheduleTrickle(now core.Time, conn *netsim.ClientConn) {
	interval := ic.gen.cfg.Workload.TrickleInterval
	if interval <= 0 {
		interval = 250 * core.Millisecond
	}
	conn.Q().At(now.Add(interval), func(t core.Time) {
		if ic.gen.done || conn.State() != netsim.StateEstablished {
			return
		}
		conn.Send(t, trickleByte)
		ic.scheduleTrickle(t, conn)
	})
}

// trickleByte is the one-byte payload a slow-loris client dribbles: header
// filler that never completes the request (the parser only gives up at its
// request-size cap, which takes tens of virtual minutes at trickle pace).
var trickleByte = []byte("a")

func (ic *inactiveClient) onClosedOrRefused(now core.Time, _ netsim.RefuseReason) {
	if ic.gen.done {
		return
	}
	// Reopen after a short pause, keeping the inactive population constant.
	// The refusal/close callback executes on the dead connection's lane;
	// open must run on the driver, where connection launch state lives.
	q := ic.gen.driverQ
	if ic.conn != nil {
		q = ic.conn.Q()
	}
	q.Post(ic.gen.driverQ, now.Add(250*core.Millisecond), ic.open)
}
