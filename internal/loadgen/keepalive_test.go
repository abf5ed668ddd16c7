package loadgen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/servers/httpcore"
	"repro/internal/servers/thttpd"
	"repro/internal/simkernel"
)

// testbedHTTP starts a devpoll thttpd with the given persistent-connection
// options for keep-alive client tests.
func testbedHTTP(t *testing.T, opts httpcore.Options) (*simkernel.Kernel, *netsim.Network, *thttpd.Server) {
	t.Helper()
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	cfg := thttpd.DefaultConfig()
	cfg.Backend = "devpoll"
	cfg.IdleTimeout = 10 * core.Second
	cfg.WaitTimeout = core.Second
	cfg.HTTP = opts
	s := thttpd.New(k, n, cfg)
	s.Start()
	return k, n, s
}

// TestKeepAliveClientServesAllRequests: serial keep-alive clients issue N
// requests per connection; every reply is booked individually while issued and
// completed stay connection-scoped.
func TestKeepAliveClientServesAllRequests(t *testing.T) {
	k, n, s := testbedHTTP(t, httpcore.Options{KeepAlive: true})
	cfg := DefaultConfig(400, 0)
	cfg.Connections = 50
	cfg.Profile.RequestsPerConn = 4
	cfg.SampleInterval = 200 * core.Millisecond
	gen := New(k, n, cfg)
	gen.OnDone(func(Result) { s.Stop(); k.Sim.Stop() })
	gen.Start(0)
	k.Sim.RunUntil(core.Time(30 * core.Second))

	res := gen.Result()
	if res.Issued != 50 || res.Completed != 50 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Replies != 200 {
		t.Fatalf("replies = %d, want 200", res.Replies)
	}
	st := s.Stats()
	if st.Served != 200 || st.KeptAlive != 150 {
		t.Fatalf("server stats = %+v", st)
	}
	// One latency observation per reply.
	if res.Latency.Count != 200 || res.Latency.P50 <= 0 {
		t.Fatalf("latency = %+v, want 200 observations above 0 ms", res.Latency)
	}
}

// TestPipelinedClientKeepsDepthOutstanding: the pipelined client bursts its
// depth up front and refills as replies land; the server sees the same total
// request count, and every reply's latency runs from its own request's send.
func TestPipelinedClientKeepsDepthOutstanding(t *testing.T) {
	k, n, s := testbedHTTP(t, httpcore.Options{KeepAlive: true})
	cfg := DefaultConfig(400, 0)
	cfg.Connections = 30
	cfg.Profile.RequestsPerConn = 8
	cfg.Profile.PipelineDepth = 4
	cfg.SampleInterval = 200 * core.Millisecond
	gen := New(k, n, cfg)
	gen.OnDone(func(Result) { s.Stop(); k.Sim.Stop() })
	gen.Start(0)
	k.Sim.RunUntil(core.Time(30 * core.Second))

	res := gen.Result()
	if res.Completed != 30 || res.Errors != 0 || res.Replies != 240 {
		t.Fatalf("result = %+v", res)
	}
	if st := s.Stats(); st.Served != 240 {
		t.Fatalf("server stats = %+v", st)
	}
	// Each reply is measured from its own request's send, so none of the
	// replies that arrive together records 0 ms.
	if h := &gen.lanes[0].hist; h.Count() != 240 || h.MinMs() <= 0 {
		t.Fatalf("%d latencies, the least %v ms; want 240, each above 0", h.Count(), h.MinMs())
	}
}

// TestKeepAliveWatchdogRollsWithProgress: a connection whose total lifetime
// exceeds Timeout does not error as long as every reply arrives within one
// Timeout window of the last.
func TestKeepAliveWatchdogRollsWithProgress(t *testing.T) {
	k, n, s := testbedHTTP(t, httpcore.Options{KeepAlive: true})
	cfg := DefaultConfig(100, 0)
	cfg.Connections = 5
	cfg.Profile.RequestsPerConn = 6
	cfg.Profile.Timeout = 100 * core.Millisecond
	// Each serial round trip ≈60 ms; six exceed Timeout.
	cfg.Workload.RTTMix = []netsim.RTTBand{{Weight: 1, RTT: 60 * core.Millisecond}}
	cfg.SampleInterval = 100 * core.Millisecond
	gen := New(k, n, cfg)
	gen.OnDone(func(Result) { s.Stop(); k.Sim.Stop() })
	gen.Start(0)
	k.Sim.RunUntil(core.Time(30 * core.Second))

	res := gen.Result()
	if res.Completed != 5 || res.Errors != 0 || res.Replies != 30 {
		t.Fatalf("result = %+v (errors by %v)", res, res.ErrorsBy)
	}
}

// TestKeepAliveClientAgainstHTTP10Server: a server without keep-alive closes
// after the first reply; the client books that reply's absence (the close head
// is shorter than the keep-alive head it awaits) as a reset error.
func TestKeepAliveClientAgainstHTTP10Server(t *testing.T) {
	k, n, s := testbedHTTP(t, httpcore.Options{})
	cfg := DefaultConfig(200, 0)
	cfg.Connections = 20
	cfg.Profile.RequestsPerConn = 4
	cfg.SampleInterval = 200 * core.Millisecond
	gen := New(k, n, cfg)
	gen.OnDone(func(Result) { s.Stop(); k.Sim.Stop() })
	gen.Start(0)
	k.Sim.RunUntil(core.Time(30 * core.Second))

	res := gen.Result()
	if res.Errors != 20 || res.ErrorsBy[ErrReset] != 20 || res.Completed != 0 {
		t.Fatalf("result = %+v (errors by %v)", res, res.ErrorsBy)
	}
}

// TestKeepAliveLaunchRateSpreadsRequests: with N requests per connection the
// connection-launch interval stretches by N so the offered request rate is
// unchanged.
func TestKeepAliveLaunchRateSpreadsRequests(t *testing.T) {
	k, n, _ := testbedHTTP(t, httpcore.Options{KeepAlive: true})
	cfg := DefaultConfig(400, 0)
	cfg.Connections = 40
	cfg.Profile.RequestsPerConn = 4
	gen := New(k, n, cfg)
	if got := gen.connRate(); got != 100 {
		t.Fatalf("connRate = %v, want 100", got)
	}
	_ = k
}
