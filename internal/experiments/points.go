package experiments

import (
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/servers/httpcore"
)

// BenchPoint is one gated benchmark point: a stable id and the spec that
// runs it, run size included.
type BenchPoint struct {
	ID   string
	Spec RunSpec
}

// benchEntry is one row of the gated table: a point some figure draws, named
// by figure id, curve label and x, or an explicit spec for a point no figure
// draws.
type benchEntry struct {
	id    string
	fig   string // empty for an explicit spec
	curve string
	x     float64
	spec  RunSpec
}

// drawn names the point figure fig draws on curve at x.
func drawn(id, fig, curve string, x float64) benchEntry {
	return benchEntry{id: id, fig: fig, curve: curve, x: x}
}

// explicit is a point no figure draws.
func explicit(id string, spec RunSpec) benchEntry {
	return benchEntry{id: id, spec: spec}
}

// resolve returns the entry's spec: its explicit one, or the spec its figure
// runs at (curve, x) under the figure's own configuration (Figure.Point).
func (e benchEntry) resolve() (RunSpec, error) {
	if e.fig == "" {
		return e.spec, nil
	}
	fig, err := FigureByID(e.fig)
	if err != nil {
		return RunSpec{}, err
	}
	p, err := fig.Point(SweepOptions{}, e.curve, e.x)
	return p.Spec, err
}

// benchTable is the gated set: each mechanism at the paper's heaviest
// inactive load past mid-sweep (the knee region is where regressions show),
// the scale anchors, one overload point per request workload, the
// mostly-idle anchors, the persistent-connection hot path and one chaos
// point per fault class.
func benchTable() []benchEntry {
	ka := httpcore.Options{KeepAlive: true}
	pipelined := loadgen.ClientProfile{RequestsPerConn: KeepAliveRequests, PipelineDepth: KeepAliveRequests}
	massive := portSpace(2*100000 + 100000)
	epoll := func(rate float64, inactive int) RunSpec {
		return RunSpec{Server: ServerThttpdEpoll, RequestRate: rate, Inactive: inactive}
	}
	chaos := func(server ServerKind, fc faults.Config) RunSpec {
		fc.Seed = 3
		return RunSpec{Server: server, RequestRate: 1000, Inactive: 251, Faults: fc}
	}
	scaleKA := func(conns int) RunSpec {
		s := epoll(1000, 251)
		s.Connections, s.HTTP, s.Client = conns, ka, pipelined
		return s
	}
	scaleKA100k := scaleKA(100000)
	scaleKA100k.Network = massive

	return []benchEntry{
		drawn("fig08-poll-load501-rate1000", "fig08", "thttpd-poll", 1000),
		drawn("fig09-devpoll-load501-rate1000", "fig09", "thttpd-devpoll", 1000),
		drawn("fig13-phhttpd-load501-rate1000", "fig13", "phhttpd", 1000),
		// No figure draws the hybrid at 501 inactive on constant
		// arrivals; its ablations run under slowloris.
		explicit("ext-hybrid-load501-rate1000", RunSpec{Server: ServerHybrid, RequestRate: 1000, Inactive: 501}),
		drawn("ext-epoll-load501-rate1000", "fig15", "thttpd-epoll", 1000),
		drawn("ext-epoll-et-load501-rate1000", "fig16", "epoll-et", 1000),
		// No figure runs compio at 501 inactive below 1300 req/s.
		explicit("ext-compio-load501-rate1000", RunSpec{Server: ServerThttpdCompio, RequestRate: 1000, Inactive: 501}),

		drawn("ext-prefork1-load1500-rate3000", "fig17", "reuseport-hash", 1),
		drawn("ext-prefork2-load1500-rate3000", "fig17", "reuseport-hash", 2),
		drawn("ext-prefork4-load1500-rate3000", "fig17", "reuseport-hash", 4),

		drawn("scale-10000-epoll-rate1000", "fig26", "epoll", 1000),
		drawn("scale-20000-epoll-rate1000", "fig27", "epoll", 1000),
		drawn("scale-30000-epoll-rate1000", "fig28", "epoll", 1000),
		drawn("scale-10000-poll-rate1000", "fig26", "normal poll", 1000),
		drawn("scale-10000-compio-rate1000", "fig26", "compio", 1000),
		drawn("scale-100000-epoll-rate1000", "fig29", "epoll", 1000),
		// The massive-scale figures have no compio curve.
		explicit("scale-100000-compio-rate1000", RunSpec{
			Server: ServerThttpdCompio, RequestRate: 1000, Inactive: 251, Connections: 100000, Network: massive,
		}),

		// Past the knee, where the latency distribution carries the signal.
		// The stalled-reader point runs on poll(), which rescans the
		// write-parked background entries every loop; on devpoll the jammed
		// connections are invisible after their one pre-benchmark serve.
		drawn("overload-constant-thttpd-devpoll-rate1300", "fig19", "devpoll", 1300),
		drawn("overload-flashcrowd-thttpd-devpoll-rate1300", "fig20", "devpoll", 1300),
		drawn("overload-pareto-thttpd-devpoll-rate1300", "fig21", "devpoll", 1300),
		drawn("overload-slowloris-thttpd-devpoll-rate1300", "fig22", "devpoll", 1300),
		drawn("overload-stalled-thttpd-poll-rate1300", "fig23", "normal poll", 1300),
		drawn("overload-wan-thttpd-devpoll-rate1300", "fig24", "devpoll", 1300),

		drawn("push-100k-idle-epoll-rate1000", "fig37", "epoll", 1000),
		drawn("dhtchurn-knee-epoll-rate2000", "fig38", "epoll", 2000),

		drawn("ext-keepalive-epoll-load501-rate1300", "keepalive", "keepalive-8", 0),
		drawn("ext-pipelined-epoll-load501-rate1300", "keepalive", "pipelined-8", 0),
		drawn("ext-sendfile-epoll-load251-rate1300", "fig35", "sendfile", 1300),
		// No figure runs keep-alive at the scale anchors.
		explicit("scale-10000-epoll-keepalive-rate1000", scaleKA(10000)),
		explicit("scale-100000-epoll-keepalive-rate1000", scaleKA100k),

		// The chaos figures sweep one fault knob at 900 req/s; these run one
		// fault class each at 1000 with fault seed 3, on the mechanism whose
		// degradation path the class exercises.
		explicit("chaos-reset-epoll-rate1000", chaos(ServerThttpdEpoll, faults.Config{ResetRate: 0.1, VanishRate: 0.02})),
		explicit("chaos-emfile-poll-rate1000", chaos(ServerThttpdPoll, faults.Config{FDLimit: 280})),
		explicit("chaos-eintr-devpoll-rate1000", chaos(ServerThttpdDevPoll, faults.Config{EINTRRate: 0.4})),
		explicit("chaos-overflow-compio-rate1000", chaos(ServerThttpdCompio, faults.Config{OverflowStormRate: 0.1})),
	}
}

// benchConnections sizes a gated point that pins no run size of its own.
const benchConnections = 1500

// BenchPoints returns the gated benchmark set in table order. A point some
// figure draws is resolved through that figure, so it cannot drift from
// what the figure runs. It panics on a reference that does not resolve;
// TestBenchPoints pins that every one does.
func BenchPoints() []BenchPoint {
	table := benchTable()
	out := make([]BenchPoint, len(table))
	for i, e := range table {
		spec, err := e.resolve()
		if err != nil {
			panic(err)
		}
		if spec.Connections == 0 {
			spec.Connections = benchConnections
		}
		out[i] = BenchPoint{ID: e.id, Spec: spec}
	}
	return out
}
