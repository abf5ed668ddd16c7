package phhttpd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

func start(t *testing.T, cfg Config) (*simkernel.Kernel, *netsim.Network, *Server) {
	t.Helper()
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	s := New(k, n, cfg)
	s.Start()
	k.Sim.RunUntil(core.Time(10 * core.Millisecond))
	return k, n, s
}

type probe struct {
	bytes  int
	closed bool
}

func get(k *simkernel.Kernel, n *netsim.Network, path string) *probe {
	p := &probe{}
	cc := n.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{
		OnData:       func(_ core.Time, b int) { p.bytes += b },
		OnPeerClosed: func(core.Time) { p.closed = true },
	})
	k.Sim.After(core.Millisecond, func(now core.Time) {
		cc.Send(now, httpsim.FormatRequest(path))
	})
	return p
}

func TestModeStringAndDefaults(t *testing.T) {
	if ModeSignal.String() != "signal" || ModePolling.String() != "polling" {
		t.Fatal("mode strings wrong")
	}
	cfg := DefaultConfig()
	if cfg.QueueLimit != 1024 || cfg.BatchDequeue {
		t.Fatalf("defaults = %+v", cfg)
	}
	// Zero-value config gets sensible fallbacks.
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	s := New(k, n, Config{})
	if s.cfg.QueueLimit <= 0 || s.cfg.WaitTimeout <= 0 {
		t.Fatalf("fallbacks = %+v", s.cfg)
	}
}

func TestServesRequestsViaRTSignals(t *testing.T) {
	k, n, s := start(t, DefaultConfig())
	probes := []*probe{get(k, n, "/index.html"), get(k, n, "/index.html")}
	k.Sim.RunUntil(core.Time(2 * core.Second))
	s.Stop()

	if s.Stats().Served != 2 {
		t.Fatalf("served = %d", s.Stats().Served)
	}
	for i, p := range probes {
		if !p.closed || p.bytes != httpsim.ResponseSize(httpsim.StatusOK, httpsim.DefaultDocumentSize) {
			t.Fatalf("probe %d = %+v", i, p)
		}
	}
	if s.Mode() != ModeSignal {
		t.Fatalf("mode = %v", s.Mode())
	}
	qstats := s.SignalQueue().MechanismStats()
	if qstats.Enqueued == 0 || qstats.EventsReturned == 0 {
		t.Fatalf("queue stats = %+v", qstats)
	}
	if s.OpenConnections() != 0 {
		t.Fatalf("open connections = %d", s.OpenConnections())
	}
}

func TestQueueOverflowSwitchesToPollingAndStillServes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLimit = 8 // tiny queue so a burst overflows it
	k, n, s := start(t, cfg)

	// A burst of simultaneous connections: each enqueues a listener transition
	// and a readable completion; with limit 8 the queue overflows while the
	// server is still working through the backlog.
	const burst = 60
	probes := make([]*probe, burst)
	for i := range probes {
		probes[i] = get(k, n, "/index.html")
	}
	k.Sim.RunUntil(core.Time(10 * core.Second))

	if s.Overflows == 0 {
		t.Fatal("queue never overflowed")
	}
	if s.Mode() != ModePolling {
		t.Fatalf("mode after overflow = %v", s.Mode())
	}
	if s.Handoffs == 0 {
		t.Fatal("no connections were handed to the poll sibling")
	}
	// The poll sibling owns the listener and keeps serving: a new request after
	// recovery still completes.
	late := get(k, n, "/index.html")
	k.Sim.RunUntil(core.Time(20 * core.Second))
	s.Stop()
	if !late.closed {
		t.Fatal("request after overflow recovery was not served")
	}
	if s.PollSet().Len() == 0 {
		t.Fatal("poll sibling interest set is empty")
	}
	// The paper notes phhttpd never switches back to signal mode.
	if s.Mode() != ModePolling {
		t.Fatal("server switched back to signal mode, which phhttpd never did")
	}
	if st := s.Stats(); st.Served < burst/2 {
		t.Fatalf("served only %d of %d despite recovery", st.Served, burst)
	}
}

func TestBatchDequeueConfigurationServes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchDequeue = true
	k, n, s := start(t, cfg)
	const conns = 50
	probes := make([]*probe, conns)
	for i := range probes {
		probes[i] = get(k, n, "/index.html")
	}
	k.Sim.RunUntil(core.Time(5 * core.Second))
	s.Stop()
	if s.Stats().Served != conns {
		t.Fatalf("served = %d", s.Stats().Served)
	}
	if s.SignalQueue().Options().BatchDequeue != true {
		t.Fatal("batch dequeue not propagated")
	}
}

func TestIdleTimeoutSweepsInactiveConnections(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleTimeout = 2 * core.Second
	cfg.WaitTimeout = 500 * core.Millisecond
	k, n, s := start(t, cfg)
	cc := n.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{})
	k.Sim.After(core.Millisecond, func(now core.Time) {
		cc.Send(now, httpsim.FormatPartialRequest("/index.html"))
	})
	k.Sim.RunUntil(core.Time(core.Second))
	if s.OpenConnections() != 1 {
		t.Fatalf("open = %d", s.OpenConnections())
	}
	k.Sim.RunUntil(core.Time(6 * core.Second))
	s.Stop()
	if s.OpenConnections() != 0 || s.Stats().IdleCloses != 1 {
		t.Fatalf("idle sweep failed: open=%d stats=%+v", s.OpenConnections(), s.Stats())
	}
}
