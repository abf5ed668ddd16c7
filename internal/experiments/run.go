// Package experiments ties the substrate together into the paper's
// evaluation: it builds a simulated testbed (kernel, network, one of the
// servers, the httperf-like load generator), runs one benchmark point, and
// provides the figure definitions and the one sweep driver that regenerates
// every figure of the paper, the extensions and the ablation studies
// described in DESIGN.md (figures whose curves are the variants).
package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/compio"
	"repro/internal/core"
	"repro/internal/devpoll"
	"repro/internal/eventlib"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/servers/dhtnode"
	"repro/internal/servers/httpcore"
	"repro/internal/servers/hybrid"
	"repro/internal/servers/phhttpd"
	"repro/internal/servers/pushcore"
	"repro/internal/servers/thttpd"
	"repro/internal/simkernel"
)

// ServerKind selects the server under test: a server family, optionally
// parameterised by an eventlib backend name ("thttpd-epoll-et",
// "hybrid-epoll"). The set of valid kinds derives from the backend registry —
// see ServerKinds — rather than a hard-coded enumeration.
type ServerKind string

// The paper's four servers plus the backend-parameterised extensions.
const (
	ServerThttpdPoll    ServerKind = "thttpd-poll"     // stock thttpd on stock poll()
	ServerThttpdDevPoll ServerKind = "thttpd-devpoll"  // thttpd modified to use /dev/poll
	ServerPhhttpd       ServerKind = "phhttpd"         // RT-signal phhttpd
	ServerHybrid        ServerKind = "hybrid"          // the paper's hypothetical hybrid
	ServerThttpdEpoll   ServerKind = "thttpd-epoll"    // thttpd on level-triggered epoll
	ServerThttpdEpollET ServerKind = "thttpd-epoll-et" // thttpd on edge-triggered epoll
	ServerHybridEpoll   ServerKind = "hybrid-epoll"    // hybrid with epoll as the bulk poller
	ServerThttpdCompio  ServerKind = "thttpd-compio"   // thttpd on the completion rings
)

// PreforkKind names the N-worker prefork server: "prefork-N" runs N workers
// on epoll, "prefork-N-<backend>" on the named eventlib backend. Any N >= 1
// resolves; ServerKinds lists the power-of-two sizes.
func PreforkKind(workers int) ServerKind {
	return ServerKind(fmt.Sprintf("prefork-%d", workers))
}

// bulkCapable lists backends able to serve as the hybrid's bulk poller: the
// mechanisms that keep a kernel-resident interest set the server can maintain
// concurrently with RT signal activity (§6's requirement for a cheap switch).
func bulkCapable(name string) bool {
	switch name {
	case "devpoll", "epoll", "epoll-et", "compio":
		return true
	}
	return false
}

// ServerKinds lists all selectable servers: the paper's four first, then the
// extensions generated from the backend registry.
func ServerKinds() []ServerKind {
	kinds := []ServerKind{ServerThttpdPoll, ServerThttpdDevPoll, ServerPhhttpd, ServerHybrid}
	for _, b := range eventlib.Backends() {
		if b.Name == "poll" || b.Name == "devpoll" {
			continue // already listed as the paper's thttpd configurations
		}
		kinds = append(kinds, ServerKind("thttpd-"+b.Name))
	}
	for _, b := range eventlib.Backends() {
		if b.Name == "devpoll" || !bulkCapable(b.Name) {
			continue // plain "hybrid" is the devpoll-bulk configuration
		}
		kinds = append(kinds, ServerKind("hybrid-"+b.Name))
	}
	for _, n := range []int{1, 2, 4, 8} {
		kinds = append(kinds, PreforkKind(n))
	}
	// The millions-mostly-idle families: the server-push daemon and the
	// datagram rendezvous node, each on any registered backend.
	for _, b := range eventlib.Backends() {
		kinds = append(kinds, ServerKind("push-"+b.Name))
	}
	for _, b := range eventlib.Backends() {
		kinds = append(kinds, ServerKind("dht-"+b.Name))
	}
	return kinds
}

// resolvedKind is a parsed ServerKind: the family plus the backend that
// parameterises it (the event backend for thttpd, the bulk poller for hybrid,
// the per-worker backend for prefork) and, for prefork, the worker count.
type resolvedKind struct {
	family  string
	backend string
	workers int
}

// resolveKind parses and validates kind against the family set and the
// eventlib backend registry. The empty kind selects the paper's baseline,
// thttpd on stock poll().
func resolveKind(kind ServerKind) (resolvedKind, error) {
	s := string(kind)
	if s == "" {
		s = string(ServerThttpdPoll)
	}
	switch {
	case s == "phhttpd":
		return resolvedKind{family: "phhttpd"}, nil
	case s == "hybrid":
		return resolvedKind{family: "hybrid", backend: "devpoll"}, nil
	case strings.HasPrefix(s, "thttpd-"):
		name := strings.TrimPrefix(s, "thttpd-")
		if _, ok := eventlib.Lookup(name); ok {
			return resolvedKind{family: "thttpd", backend: name}, nil
		}
	case strings.HasPrefix(s, "hybrid-"):
		name := strings.TrimPrefix(s, "hybrid-")
		if _, ok := eventlib.Lookup(name); ok && bulkCapable(name) {
			return resolvedKind{family: "hybrid", backend: name}, nil
		}
	case strings.HasPrefix(s, "push-"):
		name := strings.TrimPrefix(s, "push-")
		if _, ok := eventlib.Lookup(name); ok {
			return resolvedKind{family: "push", backend: name}, nil
		}
	case strings.HasPrefix(s, "dht-"):
		name := strings.TrimPrefix(s, "dht-")
		if _, ok := eventlib.Lookup(name); ok {
			return resolvedKind{family: "dht", backend: name}, nil
		}
	case strings.HasPrefix(s, "prefork-"):
		rest := strings.TrimPrefix(s, "prefork-")
		count, backend := rest, "epoll"
		if i := strings.IndexByte(rest, '-'); i >= 0 {
			count, backend = rest[:i], rest[i+1:]
		}
		n, err := strconv.Atoi(count)
		if err != nil || n < 1 || n > 64 {
			break
		}
		if _, ok := eventlib.Lookup(backend); ok {
			return resolvedKind{family: "prefork", backend: backend, workers: n}, nil
		}
	}
	return resolvedKind{}, unknownServerKindError(kind)
}

// unknownServerKindError is the single source of the listed-choices error for
// server kinds, mirroring eventlib's for backends.
func unknownServerKindError(kind ServerKind) error {
	names := make([]string, 0, len(ServerKinds()))
	for _, k := range ServerKinds() {
		names = append(names, string(k))
	}
	return fmt.Errorf("experiments: unknown server kind %q (choices: %s)",
		kind, strings.Join(names, ", "))
}

// RetargetKind re-parameterises kind onto the named eventlib backend: thttpd
// kinds switch their event backend, hybrid kinds switch their bulk poller
// when the backend is bulk-capable, and other kinds (phhttpd, a hybrid asked
// for a non-bulk backend) are returned unchanged. Unknown backend names
// produce the registry's listed-choices error.
func RetargetKind(kind ServerKind, backend string) (ServerKind, error) {
	if _, ok := eventlib.Lookup(backend); !ok {
		return kind, eventlib.UnknownBackendError(backend)
	}
	rk, err := resolveKind(kind)
	if err != nil {
		return kind, err
	}
	switch rk.family {
	case "thttpd":
		return ServerKind("thttpd-" + backend), nil
	case "push":
		return ServerKind("push-" + backend), nil
	case "dht":
		return ServerKind("dht-" + backend), nil
	case "hybrid":
		if backend == "devpoll" {
			return ServerHybrid, nil
		}
		if bulkCapable(backend) {
			return ServerKind("hybrid-" + backend), nil
		}
	case "prefork":
		return preforkKind(rk.workers, backend), nil
	}
	return kind, nil
}

// preforkKind names the N-worker prefork server on the named backend.
func preforkKind(workers int, backend string) ServerKind {
	if backend == "epoll" {
		return PreforkKind(workers)
	}
	return ServerKind(fmt.Sprintf("prefork-%d-%s", workers, backend))
}

// RunSpec describes one benchmark point: one server, one offered rate, one
// inactive-connection load.
type RunSpec struct {
	Server      ServerKind
	RequestRate float64
	Inactive    int
	// Connections is the number of benchmark connections (the paper uses
	// 35000; the test and bench defaults scale this down, which preserves the
	// curve shapes because the run is long enough to reach steady state).
	// When Client.RequestsPerConn > 1 it counts offered requests instead: the
	// run launches Connections/RequestsPerConn persistent connections, so the
	// total work and issue window match an HTTP/1.0 run of the same spec.
	Connections int
	Seed        int64
	// Workload names the loadgen workload scenario (arrival process,
	// background-population behavior, RTT distribution); empty selects the
	// paper's constant workload. See loadgen.Workloads.
	Workload string

	// HTTP selects the server's persistent-connection features (keep-alive,
	// pipelining budget, response cache, write path) for every family; the
	// zero value is the historical one-request HTTP/1.0 server.
	HTTP httpcore.Options
	// Client carries the per-client knobs (requests per connection, pipeline
	// depth, patience, RTTs, jitter, retry) to loadgen.Config.Profile; its
	// zero fields keep the generator's defaults. Client.RequestsPerConn > 1
	// makes each connection issue that many HTTP/1.1 requests while
	// RequestRate remains the request rate — connections launch at rate/N.
	Client loadgen.ClientProfile

	// FanoutSize overrides the push workload's per-tick fan-out (push-* server
	// kinds); zero keeps the workload's own value. The push server's tick
	// interval derives from it: FanoutSize pushes per tick at RequestRate
	// deliveries per second overall.
	FanoutSize int
	// ChurnRate overrides the churn workload's peer join rate in peers/second
	// (dht-* server kinds); zero keeps the workload's own value.
	ChurnRate float64

	// Faults configures the deterministic fault-injection plane (EINTR storms,
	// spurious EAGAIN, a descriptor limit, connection resets, vanishing
	// peers). The zero value injects nothing and charges nothing, leaving
	// every fault-free figure byte-identical.
	Faults faults.Config

	// Network optionally overrides the testbed configuration.
	Network *netsim.Config
	// DevPollOptions overrides /dev/poll options and CompioOptions the
	// completion-ring options (SQ batch size, registered buffers) for the
	// thttpd family on that backend, at any worker count; RunE rejects them
	// on any other kind (see droppedOption).
	DevPollOptions *devpoll.Options
	CompioOptions  *compio.Options
	// PhhttpdBatchDequeue enables the sigtimedwait4 extension in phhttpd.
	PhhttpdBatchDequeue bool
	// HybridConfig optionally overrides the hybrid server configuration.
	HybridConfig *hybrid.Config
	// PreforkMode selects the thttpd family's accept-distribution
	// architecture (reuseport by default; handoff for the single-acceptor
	// comparison).
	PreforkMode thttpd.Mode
	// RTQueueLimit overrides the RT signal queue limit (phhttpd, hybrid).
	RTQueueLimit int

	// Threads is the number of OS threads driving the simulation. 1 (or 0)
	// selects the sequential engine; N >= 2 shards the event kernel into one
	// lane per simulated CPU plus a driver lane, synchronised by RTT
	// lookahead, and runs it on N goroutines. Figures are byte-identical
	// across thread counts. Configurations the sharded engine cannot host
	// (round-robin listener sharding, prefork handoff mode, multi-worker
	// prefork on a backend that charges wakeups to CPU 0, a TIME-WAIT
	// shorter than the lookahead window) run sequentially instead, and
	// RunResult.Fallback says why.
	Threads int

	// MaxVirtualTime caps the simulated run as a safety net; zero selects a
	// generous default derived from the workload.
	MaxVirtualTime core.Duration
}

// DefaultSpec returns a spec for the given server, rate and inactive load with
// a reduced connection count suitable for tests and benchmarks.
func DefaultSpec(server ServerKind, rate float64, inactive int) RunSpec {
	return RunSpec{
		Server:      server,
		RequestRate: rate,
		Inactive:    inactive,
		Connections: 4000,
		Seed:        1,
	}
}

// RunResult is the outcome of one benchmark point.
type RunResult struct {
	Spec RunSpec

	Load   loadgen.Result
	Server httpcore.Stats

	// Mechanism statistics: Primary is the mechanism the server used most
	// (poll, devpoll or rtsig); Secondary is populated for the two-mechanism
	// servers (phhttpd's recovery poll set, hybrid's RT queue).
	Primary   core.Stats
	Secondary core.Stats

	// Mode/switching information for phhttpd and hybrid.
	FinalMode        string
	Overflows        int64
	Handoffs         int64
	SwitchesToPoll   int64
	SwitchesToSignal int64

	// The push server's tick books: fan-out ticks fired, pushes skipped
	// because the member's previous push was still draining, and pushes
	// that jammed against the peer's window (Server.Pushed counts the
	// pushes made).
	Ticks      int64
	PushBusy   int64
	WriteBlock int64

	// Latency is the client-observed connection-latency percentile summary
	// (identical to Load.Latency, surfaced here so figure and gate tooling
	// need not reach into the loadgen result); ServiceLatency is the
	// server-side accept-to-response-written distribution measured inside
	// the dispatch path, merged across prefork workers.
	Latency        metrics.LatencyPercentiles
	ServiceLatency metrics.LatencyPercentiles

	// CPUUtilization is the mean per-CPU utilisation over each CPU's work
	// window — identical to the single CPU's utilisation on a uniprocessor
	// run. PerCPUUtilization holds the per-core values; Workers the prefork
	// worker count (1 for the single-process servers); PerWorkerServed the
	// served-request balance the accept sharding achieved.
	CPUUtilization    float64
	PerCPUUtilization []float64
	Workers           int
	PerWorkerServed   []int64
	VirtualTime       core.Duration
	EventLoops        int64
	// Events is the number of simulated events the run executed: with wall
	// time it splits a speed change into "more events" and "slower events".
	Events int64

	// Threads is the number of OS threads that actually drove the run: the
	// spec's request, downgraded to 1 when the configuration was ineligible
	// for the sharded engine.
	Threads int
	// Fallback names why the sharded engine refused the spec's Threads
	// request (round-robin listener sharding, prefork handoff, SMP wakeup
	// interrupts charged to CPU 0, or a TIME-WAIT below the lookahead); empty
	// when the run used the threads it asked for.
	Fallback string
}

// benchServer is the control surface a family builder returns: server
// lifecycle plus the family-specific result extraction.
type benchServer interface {
	Start()
	Stop()
	Stats() httpcore.Stats
	fill(res *RunResult)
}

// thttpdRun adapts the thttpd family. FinalMode follows the kind's
// spelling: the poller's name for thttpd-*, "prefork-N/<backend>/<mode>" for
// prefork-*.
type thttpdRun struct {
	*thttpd.Server
	prefork bool
}

func (r thttpdRun) fill(res *RunResult) {
	cfg := r.Config()
	res.Primary = r.MechanismStats()
	res.EventLoops = r.Loops()
	res.FinalMode = r.Workers()[0].Poller().Name()
	if r.prefork {
		res.FinalMode = fmt.Sprintf("prefork-%d/%s/%s", cfg.Workers, cfg.Backend, cfg.Mode)
	}
	res.Workers = cfg.Workers
	res.PerWorkerServed = r.PerWorkerServed()
	res.Handoffs = r.Handoffs
	merged := r.ServiceLatency()
	res.ServiceLatency = merged.Percentiles()
}

type phhttpdRun struct{ *phhttpd.Server }

func (r phhttpdRun) fill(res *RunResult) {
	res.Primary = r.SignalQueue().MechanismStats()
	res.Secondary = r.PollSet().MechanismStats()
	res.EventLoops = r.Loops()
	res.FinalMode = r.Mode().String()
	res.Overflows = r.Overflows
	res.Handoffs = r.Handoffs
	res.ServiceLatency = r.Handler().ServiceLatency.Percentiles()
}

type hybridRun struct{ *hybrid.Server }

func (r hybridRun) fill(res *RunResult) {
	if src, ok := r.DevPollSet().(core.StatsSource); ok {
		res.Primary = src.MechanismStats()
	}
	res.Secondary = r.SignalQueue().MechanismStats()
	res.EventLoops = r.Loops()
	res.FinalMode = r.ModeName()
	res.SwitchesToPoll = r.SwitchesToPoll
	res.SwitchesToSignal = r.SwitchesToSignal
	res.ServiceLatency = r.Handler().ServiceLatency.Percentiles()
}

// pushRun adapts the server-push daemon to the benchServer surface. Its
// application counters map onto the HTTP stats shape so figure and gate
// tooling read every family uniformly: Served counts subscribed members,
// Pushed the server-originated deliveries.
type pushRun struct{ *pushcore.Server }

func (r pushRun) Stats() httpcore.Stats {
	st := r.Server.Stats()
	return httpcore.Stats{
		Accepted:  st.Accepted,
		Served:    st.Subscribed,
		Pushed:    st.Pushed,
		BytesSent: st.BytesSent,
		Closed:    st.Closed,
	}
}

func (r pushRun) fill(res *RunResult) {
	if src, ok := r.Poller().(core.StatsSource); ok {
		res.Primary = src.MechanismStats()
	}
	res.EventLoops = r.Loops()
	res.FinalMode = r.Poller().Name()
	st := r.Server.Stats()
	res.Ticks, res.PushBusy, res.WriteBlock = st.Ticks, st.PushBusy, st.WriteBlock
}

// dhtRun adapts the datagram rendezvous node: Accepted counts peer joins,
// Served the pongs sent, IdleCloses the sessions the sweep expired.
type dhtRun struct{ *dhtnode.Server }

func (r dhtRun) Stats() httpcore.Stats {
	st := r.Server.Stats()
	return httpcore.Stats{
		Accepted:   st.Joins,
		Served:     st.Pongs,
		IdleCloses: st.Expired,
		Closed:     st.Expired,
	}
}

func (r dhtRun) fill(res *RunResult) {
	if src, ok := r.Poller().(core.StatsSource); ok {
		res.Primary = src.MechanismStats()
	}
	res.EventLoops = r.Loops()
	res.FinalMode = r.Poller().Name()
}

// buildServer constructs the server a resolved kind names. The workload
// carries the push/churn-family knobs the non-HTTP servers derive their
// configuration from.
func buildServer(spec RunSpec, wl loadgen.Workload, rk resolvedKind, k *simkernel.Kernel, net *netsim.Network) benchServer {
	switch rk.family {
	case "push":
		cfg := pushcore.DefaultConfig()
		cfg.Backend = rk.backend
		if wl.FanoutSize > 0 {
			cfg.FanoutSize = wl.FanoutSize
		}
		if wl.PushPayload > 0 {
			cfg.Payload = wl.PushPayload
		}
		cfg.Seed = uint64(spec.Seed)
		// RequestRate is the offered delivery rate: one tick pushes
		// FanoutSize payloads, so the tick period is FanoutSize/rate.
		cfg.TickInterval = core.Duration(float64(cfg.FanoutSize) / spec.RequestRate * float64(core.Second))
		return pushRun{pushcore.New(k, net, cfg)}
	case "dht":
		cfg := dhtnode.DefaultConfig()
		cfg.Backend = rk.backend
		if wl.PingSize > 0 {
			cfg.PongSize = wl.PingSize
		}
		if wl.PeerTimeout > 0 {
			cfg.PeerTimeout = wl.PeerTimeout
		}
		return dhtRun{dhtnode.New(k, net, cfg)}
	case "phhttpd":
		cfg := phhttpd.DefaultConfig()
		cfg.BatchDequeue = spec.PhhttpdBatchDequeue
		if spec.RTQueueLimit > 0 {
			cfg.QueueLimit = spec.RTQueueLimit
		}
		applyHTTP(&cfg.HTTP, spec)
		return phhttpdRun{phhttpd.New(k, net, cfg)}
	case "hybrid":
		cfg := hybrid.DefaultConfig()
		if spec.HybridConfig != nil {
			cfg = *spec.HybridConfig
		}
		if rk.backend != "devpoll" {
			cfg.BulkBackend = rk.backend
		}
		if spec.RTQueueLimit > 0 {
			cfg.QueueLimit = spec.RTQueueLimit
		}
		applyHTTP(&cfg.HTTP, spec)
		return hybridRun{hybrid.New(k, net, cfg)}
	default: // the thttpd family: thttpd-* and prefork-*
		cfg := thttpd.DefaultConfig()
		cfg.Workers = rk.workers
		cfg.Mode = spec.PreforkMode
		cfg.Backend = rk.backend
		// RunE has rejected mechanism options the backend would drop.
		switch {
		case spec.DevPollOptions != nil:
			opts := *spec.DevPollOptions
			cfg.OpenPoller = func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
				return devpoll.Open(k, p, opts)
			}
		case spec.CompioOptions != nil:
			opts := *spec.CompioOptions
			cfg.OpenPoller = func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
				return compio.Open(k, p, opts)
			}
		}
		applyHTTP(&cfg.HTTP, spec)
		return thttpdRun{thttpd.New(k, net, cfg), rk.family == "prefork"}
	}
}

// thttpdFamily reports whether the kind runs the thttpd server: thttpd-* or
// prefork-*.
func (rk resolvedKind) thttpdFamily() bool {
	return rk.family == "thttpd" || rk.family == "prefork"
}

// droppedOption names the first of the spec's mechanism options that the
// kind would not apply, or returns "". Only the thttpd family honours them,
// on their own backend and at any worker count: DevPollOptions on devpoll,
// CompioOptions on compio.
func droppedOption(spec RunSpec, rk resolvedKind) string {
	switch {
	case spec.DevPollOptions != nil && !(rk.thttpdFamily() && rk.backend == "devpoll"):
		return "DevPollOptions"
	case spec.CompioOptions != nil && !(rk.thttpdFamily() && rk.backend == "compio"):
		return "CompioOptions"
	}
	return ""
}

// validRate reports whether r is a usable offered rate: finite and positive.
func validRate(r float64) bool { return r > 0 && !math.IsInf(r, 1) }

// applyHTTP copies the spec's persistent-connection options into a server
// configuration. A zero spec.HTTP leaves the configuration's own value alone,
// so a wholesale HybridConfig override keeps its own.
func applyHTTP(dst *httpcore.Options, spec RunSpec) {
	if spec.HTTP != (httpcore.Options{}) {
		*dst = spec.HTTP
	}
}

// Run executes one benchmark point to completion and returns its results. It
// panics on the error RunE returns (an unknown ServerKind, a spec it cannot
// run as asked); callers handling user input use RunE.
func Run(spec RunSpec) RunResult {
	res, err := RunE(spec)
	if err != nil {
		panic(err)
	}
	return res
}

// RunE executes one benchmark point. It returns the registry's listed-choices
// error for an unknown ServerKind, and an error naming the value for a spec
// it cannot run as asked: a rate that is not finite or is negative, a
// negative connection or inactive count, or mechanism options the kind
// would drop. A zero rate or connection count selects the default.
func RunE(spec RunSpec) (RunResult, error) {
	rk, workload, err := resolvePairing(spec)
	if err != nil {
		return RunResult{}, err
	}
	if opt := droppedOption(spec, rk); opt != "" {
		return RunResult{}, fmt.Errorf("experiments: server kind %q does not apply RunSpec.%s (only the thttpd family on that mechanism's backend does)", spec.Server, opt)
	}
	if spec.RequestRate != 0 && !validRate(spec.RequestRate) {
		return RunResult{}, fmt.Errorf("experiments: bad request rate %g (want a finite rate > 0, or 0 for the default)", spec.RequestRate)
	}
	if spec.Connections < 0 {
		return RunResult{}, fmt.Errorf("experiments: bad connection count %d (want > 0, or 0 for the default)", spec.Connections)
	}
	if spec.Inactive < 0 {
		return RunResult{}, fmt.Errorf("experiments: bad inactive count %d (want >= 0)", spec.Inactive)
	}
	if spec.FanoutSize > 0 {
		workload.FanoutSize = spec.FanoutSize
	}
	if spec.ChurnRate > 0 {
		workload.ChurnRate = spec.ChurnRate
	}
	if spec.Connections == 0 {
		spec.Connections = 4000
	}
	if spec.RequestRate == 0 {
		spec.RequestRate = 500
	}
	// Keep-alive runs hold the request budget constant: Connections counts
	// offered requests, so N requests per connection means 1/N as many
	// connections, launched at 1/N the rate by the generator. Offered load,
	// total work and issue window all match the HTTP/1.0 curve of the same
	// figure — the comparison isolates the per-connection costs (accept,
	// interest-set registration, teardown) that persistence amortises. The
	// non-request families have no request budget to normalise.
	requests := spec.Connections
	if rpc := spec.Client.RequestsPerConn; workload.Kind == loadgen.KindRequest && rpc > 1 {
		spec.Connections = (spec.Connections + rpc - 1) / rpc
	}
	ncpu := rk.workers
	if ncpu < 1 {
		ncpu = 1
	}
	k := simkernel.NewKernelSMP(nil, ncpu)
	k.Faults = spec.Faults
	netCfg := netsim.DefaultConfig()
	if spec.Network != nil {
		netCfg = *spec.Network
	}
	if workload.Kind == loadgen.KindPush && netCfg.ListenBacklog < spec.Connections {
		// The push workload front-loads its entire population: members connect
		// at MemberRate (tens of thousands per second) before measurement
		// starts, which is not the arrival process under test — the fan-out
		// is. Let the whole population queue rather than refuse the ramp.
		netCfg.ListenBacklog = spec.Connections
	}

	lcfg := loadgen.DefaultConfig(spec.RequestRate, spec.Inactive)
	lcfg.Connections = spec.Connections
	lcfg.Seed = spec.Seed
	lcfg.Workload = workload
	// The work window is how long the run's traffic takes to offer: the issue
	// window for the request family, the member ramp plus the delivery budget
	// for push, the join window plus one peer's ping lifetime for churn. It
	// paces the sampling interval and bounds the virtual-time safety net.
	work := workWindow(spec, workload, requests)
	// Scaled-down runs (fewer than the paper's 35000 connections) shrink the
	// sampling interval and the client timeout proportionally, so that the
	// ratio of queue-buildup time to client patience — which is what turns an
	// overloaded server into the paper's error percentages — is preserved.
	if requests < 20000 {
		si := work / 8
		if si < 500*core.Millisecond {
			si = 500 * core.Millisecond
		}
		if si > 5*core.Second {
			si = 5 * core.Second
		}
		lcfg.SampleInterval = si
		to := core.Duration(float64(5*core.Second) * float64(requests) / 35000.0)
		if to < core.Second {
			to = core.Second
		}
		lcfg.Profile.Timeout = to
	}
	// The spec's client knobs win; its zero fields keep the defaults above.
	client := spec.Client
	if client.Timeout == 0 {
		client.Timeout = lcfg.Profile.Timeout
	}
	if client.InactiveRTT == 0 {
		client.InactiveRTT = lcfg.Profile.InactiveRTT
	}
	if client.Jitter == 0 {
		client.Jitter = lcfg.Profile.Jitter
	}
	lcfg.Profile = client

	threads, fallback := parallelThreads(spec, rk, netCfg, lcfg)
	if threads > 1 {
		// One lane per simulated CPU plus a driver lane for the load
		// generator, the rng and the port/TIME-WAIT accounting; cross-lane
		// traffic (SYNs, port releases) is covered by half the shortest RTT.
		k.EnableParallel(ncpu+1, threads, minRTT(lcfg)/2)
	}
	net := netsim.New(k, netCfg)
	if threads > 1 {
		net.Parallelize()
	}

	srv := buildServer(spec, workload, rk, k, net)
	gen := loadgen.New(k, net, lcfg)
	if pr, ok := srv.(pushRun); ok {
		// The generator anchors delivery latency at push initiation.
		pr.OnDeliver = gen.PushDeliver
	}
	gen.OnDone(func(loadgen.Result) {
		srv.Stop()
		k.Sim.Stop()
	})

	srv.Start()
	gen.Start(k.Now())

	deadline := spec.MaxVirtualTime
	if deadline <= 0 {
		// Work window plus a generous drain allowance.
		deadline = (work + 30*core.Second) * 2
	}
	k.Sim.RunUntil(core.Time(deadline))

	res := RunResult{
		Spec:              spec,
		Load:              gen.Result(),
		Server:            srv.Stats(),
		VirtualTime:       k.Now().Sub(0),
		Events:            k.Sim.Executed,
		PerCPUUtilization: k.Sched.Utilizations(k.Now()),
		Workers:           1,
		Threads:           threads,
		Fallback:          fallback,
	}
	for _, u := range res.PerCPUUtilization {
		// CPU.Utilization no longer clamps, so a ratio above 1 over the work
		// window can only mean a batch was charged twice — fail loudly rather
		// than report corrupted utilisation alongside otherwise-plausible
		// throughput numbers.
		if u > 1 {
			panic(fmt.Sprintf("experiments: CPU utilisation %.6f > 1 — a batch was double-charged", u))
		}
		res.CPUUtilization += u
	}
	res.CPUUtilization /= float64(len(res.PerCPUUtilization))
	res.Latency = res.Load.Latency
	srv.fill(&res)
	return res, nil
}

// resolvePairing resolves a spec's server kind and workload and checks that
// the two pair (checkFamilyPairing): what RunE and Figure.Points both reject
// before anything runs.
func resolvePairing(spec RunSpec) (resolvedKind, loadgen.Workload, error) {
	rk, err := resolveKind(spec.Server)
	if err != nil {
		return rk, loadgen.Workload{}, err
	}
	wl, ok := loadgen.LookupWorkload(spec.Workload)
	if !ok {
		return rk, wl, loadgen.UnknownWorkloadError(spec.Workload)
	}
	return rk, wl, checkFamilyPairing(rk, wl)
}

// checkFamilyPairing rejects a server kind driven by the wrong traffic
// family: the push daemon cannot parse HTTP requests, the HTTP servers
// cannot answer datagram pings, and silently running the mismatch would
// produce all-error results that look like a mechanism collapse.
func checkFamilyPairing(rk resolvedKind, wl loadgen.Workload) error {
	want := loadgen.KindRequest
	switch rk.family {
	case "push":
		want = loadgen.KindPush
	case "dht":
		want = loadgen.KindDHTChurn
	}
	if wl.Kind != want {
		return fmt.Errorf("experiments: server family %q serves %q traffic, but workload %q drives %q (pair push-* kinds with the push workload, dht-* kinds with dhtchurn, HTTP kinds with the request workloads)",
			rk.family, want, wl.Name, wl.Kind)
	}
	return nil
}

// workWindow is the virtual-time span the spec's traffic takes to offer.
// The request family issues requests/rate seconds of connections; push ramps
// the member population at MemberRate and then spends its delivery budget at
// RequestRate; churn joins peers at ChurnRate and the last peer still pings
// through its quota afterwards.
func workWindow(spec RunSpec, wl loadgen.Workload, requests int) core.Duration {
	switch wl.Kind {
	case loadgen.KindPush:
		mr := wl.MemberRate
		if mr <= 0 {
			mr = 50000
		}
		ramp := core.Duration(float64(requests)/mr*float64(core.Second)) + 400*core.Millisecond
		return ramp + core.Duration(float64(requests)/spec.RequestRate*float64(core.Second))
	case loadgen.KindDHTChurn:
		churn := wl.ChurnRate
		if churn <= 0 {
			churn = 100
		}
		interval := wl.PingInterval
		if interval <= 0 {
			interval = 500 * core.Millisecond
		}
		quota := spec.RequestRate / churn
		if quota < 1 {
			quota = 1
		}
		join := core.Duration(float64(requests) / churn * float64(core.Second))
		return join + core.Duration(quota*float64(interval))
	default:
		return core.Duration(float64(requests) / spec.RequestRate * float64(core.Second))
	}
}

// minRTT returns the shortest round-trip time any connection in the run can
// be configured with: the bound on how early a SYN launched on the driver
// lane can reach a server lane, and therefore the basis of the sharded
// engine's lookahead window.
func minRTT(lcfg loadgen.Config) core.Duration {
	min := netsim.DefaultRTT
	consider := func(d core.Duration) {
		if d > 0 && d < min {
			min = d
		}
	}
	consider(lcfg.Profile.InactiveRTT)
	for _, band := range lcfg.Workload.RTTMix {
		consider(band.RTT)
	}
	return min
}

// parallelThreads resolves the spec's thread request against the sharded
// engine's eligibility rules. It returns 1 (sequential) and the reason when
// the configuration cannot be parallelised: round-robin listener sharding
// mutates shared state per connection, prefork handoff adopts connections
// across workers, a multi-worker prefork on epoll, devpoll or rtsig charges
// wakeup interrupts to CPU 0 from the other CPUs' lanes, and a TIME-WAIT
// shorter than the lookahead window cannot defer port releases.
func parallelThreads(spec RunSpec, rk resolvedKind, netCfg netsim.Config, lcfg loadgen.Config) (threads int, fallback string) {
	if spec.Threads < 2 {
		return 1, ""
	}
	if netCfg.Shard == netsim.ShardRoundRobin {
		return 1, "round-robin listener sharding"
	}
	if rk.thttpdFamily() {
		if spec.PreforkMode == thttpd.ModeHandoff {
			return 1, "prefork handoff"
		}
		if rk.workers > 1 && !steersInterrupts(rk.backend) {
			return 1, "SMP wakeup interrupts charged to CPU 0"
		}
	}
	tw := netCfg.TimeWait
	if tw <= 0 {
		tw = netsim.DefaultConfig().TimeWait
	}
	if tw < minRTT(lcfg)/2 {
		return 1, "TIME-WAIT below the lookahead"
	}
	return spec.Threads, ""
}

// steersInterrupts reports whether a backend's interrupt-context work stays on
// the waiting process's own CPU. Stock poll charges none and compio posts
// completions on the ring owner's CPU; epoll, devpoll and rtsig charge their
// wakeup interrupts to CPU 0, which on a sharded SMP run is another lane's
// CPU written from a worker's lane.
func steersInterrupts(backend string) bool {
	return backend == "poll" || backend == "compio"
}

// Describe renders a short human-readable summary of one run, ending with the
// reason for a sequential fallback when the sharded engine refused it.
func Describe(r RunResult) string {
	s := fmt.Sprintf("%-15s %s cpu=%4.0f%% loops=%d events=%d mode=%s",
		r.Spec.Server, r.Load.String(), 100*r.CPUUtilization, r.EventLoops, r.Events, r.FinalMode)
	if r.Fallback != "" {
		s += " sequential: " + r.Fallback
	}
	return s
}
