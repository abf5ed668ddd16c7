package loadgen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/servers/thttpd"
	"repro/internal/simkernel"
)

// testbed starts a devpoll thttpd (plenty of capacity) and returns everything
// needed to run a generator against it.
func testbed(t *testing.T) (*simkernel.Kernel, *netsim.Network, *thttpd.Server) {
	t.Helper()
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	cfg := thttpd.DefaultConfig()
	cfg.Backend = "devpoll"
	cfg.IdleTimeout = 10 * core.Second
	cfg.WaitTimeout = core.Second
	s := thttpd.New(k, n, cfg)
	s.Start()
	return k, n, s
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(700, 251)
	if cfg.RequestRate != 700 || cfg.InactiveConnections != 251 || cfg.Connections != 35000 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.SampleInterval != 5*core.Second || cfg.Profile.Timeout != 5*core.Second {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestGeneratorCompletesAgainstHealthyServer(t *testing.T) {
	k, n, s := testbed(t)
	cfg := DefaultConfig(400, 0)
	cfg.Connections = 300
	cfg.SampleInterval = 200 * core.Millisecond
	gen := New(k, n, cfg)
	var final Result
	doneCalled := 0
	gen.OnDone(func(r Result) { final = r; doneCalled++; s.Stop(); k.Sim.Stop() })
	gen.Start(0)
	k.Sim.RunUntil(core.Time(30 * core.Second))

	if !gen.Done() || doneCalled != 1 {
		t.Fatalf("done=%v calls=%d", gen.Done(), doneCalled)
	}
	if final.Issued != 300 || final.Completed != 300 || final.Errors != 0 {
		t.Fatalf("result = %+v", final)
	}
	if final.ErrorPercent != 0 {
		t.Fatalf("error percent = %v", final.ErrorPercent)
	}
	if final.ReplyRate.Mean < 300 || final.ReplyRate.Mean > 500 {
		t.Fatalf("reply rate mean = %v, want ≈400", final.ReplyRate.Mean)
	}
	if l := final.Latency; l.P50 <= 0 || l.P50 > 50 {
		t.Fatalf("median latency = %v ms", l.P50)
	}
	if l := final.Latency; l.Count != int64(final.Replies) || l.P90 < l.P50 || l.P99 < l.P90 || l.Max < l.P999 {
		t.Fatalf("latency summary inconsistent: %+v", final)
	}
	if final.OfferedRate < 300 || final.OfferedRate > 500 {
		t.Fatalf("offered rate = %v", final.OfferedRate)
	}
	if final.String() == "" {
		t.Fatal("empty String")
	}
	if final.Issued != 300 || final.Completed+final.Errors != 300 {
		t.Fatalf("progress = %d issued, %d completed, %d failed", final.Issued, final.Completed, final.Errors)
	}
}

func TestInactiveConnectionsOccupyServerInterestSet(t *testing.T) {
	k, n, s := testbed(t)
	cfg := DefaultConfig(200, 40)
	cfg.Connections = 100
	cfg.SampleInterval = 200 * core.Millisecond
	gen := New(k, n, cfg)
	gen.OnDone(func(Result) { k.Sim.Stop() })
	gen.Start(0)
	k.Sim.RunUntil(core.Time(30 * core.Second))
	// All 40 inactive connections are parked on the server (plus the listener
	// interest); benchmark connections came and went.
	if got := s.OpenConnections(); got != 40 {
		t.Fatalf("server open connections = %d, want 40 inactive", got)
	}
	if s.Workers()[0].Poller().Len() != 41 {
		t.Fatalf("poller interests = %d, want 41", s.Workers()[0].Poller().Len())
	}
	res := gen.Result()
	if res.Completed != 100 {
		t.Fatalf("completed = %d", res.Completed)
	}
	s.Stop()
}

func TestInactiveClientsReopenAfterServerTimeout(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	cfg := thttpd.DefaultConfig()
	cfg.Backend = "devpoll"
	cfg.IdleTimeout = 2 * core.Second // aggressive idle timeout
	cfg.WaitTimeout = 500 * core.Millisecond
	s := thttpd.New(k, n, cfg)
	s.Start()

	lcfg := DefaultConfig(100, 10)
	lcfg.Connections = 400 // run long enough for at least one idle sweep
	lcfg.SampleInterval = core.Second
	gen := New(k, n, lcfg)
	gen.OnDone(func(Result) { s.Stop(); k.Sim.Stop() })
	gen.Start(0)
	k.Sim.RunUntil(core.Time(60 * core.Second))

	if !gen.Done() {
		t.Fatal("run did not finish")
	}
	if n.Stats().ConnAttempts <= int64(lcfg.Connections+lcfg.InactiveConnections) {
		t.Fatal("inactive clients never reopened despite server idle timeouts")
	}
	if s.Stats().IdleCloses == 0 {
		t.Fatal("server never timed out an idle connection")
	}
}

func TestErrorsRecordedWithoutAnyServer(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	cfg := DefaultConfig(500, 0)
	cfg.Connections = 50
	gen := New(k, n, cfg)
	gen.OnDone(func(Result) { k.Sim.Stop() })
	gen.Start(0)
	k.Sim.RunUntil(core.Time(20 * core.Second))
	res := gen.Result()
	if res.Errors != 50 || res.Completed != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.ErrorsBy[ErrRefused] != 50 {
		t.Fatalf("errors by reason = %+v", res.ErrorsBy)
	}
	if res.ErrorPercent != 100 {
		t.Fatalf("error percent = %v", res.ErrorPercent)
	}
}

func TestClientTimeoutAgainstStalledServer(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	// A listener exists but nothing ever accepts or serves: connections that
	// land in the backlog must be failed by the client-side timeout.
	p := k.NewProc("stalled")
	api := netsim.NewSockAPI(k, p, n)
	p.Batch(0, func() { api.Listen() }, nil)

	cfg := DefaultConfig(200, 0)
	cfg.Connections = 30
	cfg.Profile.Timeout = 2 * core.Second
	gen := New(k, n, cfg)
	gen.OnDone(func(Result) { k.Sim.Stop() })
	gen.Start(0)
	k.Sim.RunUntil(core.Time(30 * core.Second))
	res := gen.Result()
	if res.Completed != 0 || res.Errors != 30 {
		t.Fatalf("result = %+v", res)
	}
	if res.ErrorsBy[ErrTimeout] == 0 {
		t.Fatalf("expected client timeouts, got %+v", res.ErrorsBy)
	}
}

func TestConservationInvariant(t *testing.T) {
	// DESIGN.md §6: replies + errors == connections issued, for a mix of
	// successes and failures (tiny backlog forces refusals).
	k := simkernel.NewKernel(nil)
	netCfg := netsim.DefaultConfig()
	netCfg.ListenBacklog = 4
	n := netsim.New(k, netCfg)
	cfg := thttpd.DefaultConfig()
	cfg.Backend = "poll"
	s := thttpd.New(k, n, cfg)
	s.Start()

	lcfg := DefaultConfig(900, 20)
	lcfg.Connections = 500
	lcfg.SampleInterval = 500 * core.Millisecond
	lcfg.Profile.Timeout = core.Second
	gen := New(k, n, lcfg)
	gen.OnDone(func(Result) { s.Stop(); k.Sim.Stop() })
	gen.Start(0)
	k.Sim.RunUntil(core.Time(60 * core.Second))

	res := gen.Result()
	if !gen.Done() {
		t.Fatal("run did not finish")
	}
	if res.Completed+res.Errors != res.Issued || res.Issued != 500 {
		t.Fatalf("conservation violated: %+v", res)
	}
	total := 0
	for _, v := range res.ErrorsBy {
		total += v
	}
	if total != res.Errors {
		t.Fatalf("error breakdown (%d) does not sum to errors (%d)", total, res.Errors)
	}
}

func TestConfigSanitisation(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	gen := New(k, n, Config{Profile: ClientProfile{Jitter: 5}, RequestRate: -1, Connections: -1})
	if gen.cfg.Profile.Jitter > 1 || gen.cfg.RequestRate <= 0 || gen.cfg.Connections <= 0 {
		t.Fatalf("config not sanitised: %+v", gen.cfg)
	}
	if gen.cfg.Profile.Timeout <= 0 || gen.cfg.SampleInterval <= 0 {
		t.Fatalf("config not defaulted: %+v", gen.cfg)
	}
	// Start twice is harmless.
	gen.Start(0)
	gen.Start(0)
}
