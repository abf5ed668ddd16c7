package hybrid

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

func TestDefaultsAndModeString(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.HighWater <= 0 || cfg.BulkBackend != "devpoll" {
		t.Fatalf("defaults = %+v", cfg)
	}
	if ModeSignal.String() != "signal" || ModePolling.String() != "devpoll" {
		t.Fatal("mode strings wrong")
	}
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	s := New(k, n, Config{})
	if s.cfg.HighWater <= 0 || s.cfg.QueueLimit <= 0 {
		t.Fatalf("fallbacks = %+v", s.cfg)
	}
	if s.DevPollSet().Name() != "devpoll" {
		t.Fatalf("bulk poller = %q, want devpoll by default", s.DevPollSet().Name())
	}
}

// In polling mode the server names its mode after the bulk poller, so a
// hybrid built on epoll reports "epoll".
func TestModeNameNamesTheBulkBackend(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BulkBackend = "epoll"
	k := simkernel.NewKernel(nil)
	s := New(k, netsim.New(k, netsim.DefaultConfig()), cfg)
	if s.ModeName() != "signal" {
		t.Fatalf("mode name = %q before any switch", s.ModeName())
	}
	s.switchMode(0, ModePolling)
	if s.ModeName() != "epoll" {
		t.Fatalf("mode name = %q, want the epoll bulk poller by name", s.ModeName())
	}
}

func TestServesInSignalModeAtLowLoad(t *testing.T) {
	k, n, s := start(t, DefaultConfig())
	probes := []*probe{get(k, n, "/index.html"), get(k, n, "/index.html"), get(k, n, "/index.html")}
	k.Sim.RunUntil(core.Time(2 * core.Second))
	s.Stop()
	if s.Stats().Served != 3 {
		t.Fatalf("served = %d", s.Stats().Served)
	}
	for i, p := range probes {
		if !p.closed {
			t.Fatalf("probe %d incomplete", i)
		}
	}
	if s.Mode() != ModeSignal {
		t.Fatalf("mode = %v (low load should stay on RT signals)", s.Mode())
	}
	if s.SwitchesToPoll != 0 {
		t.Fatalf("unnecessary switches: %d", s.SwitchesToPoll)
	}
}

func TestBothInterestSetsMaintainedConcurrently(t *testing.T) {
	k, n, s := start(t, DefaultConfig())
	// An inactive connection parks itself in both interest sets.
	cc := n.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{})
	k.Sim.After(core.Millisecond, func(now core.Time) {
		cc.Send(now, httpsim.FormatPartialRequest("/index.html"))
	})
	k.Sim.RunUntil(core.Time(core.Second))
	s.Stop()
	if s.OpenConnections() != 1 {
		t.Fatalf("open = %d", s.OpenConnections())
	}
	// listener + 1 connection in each mechanism.
	if s.SignalQueue().Len() != 2 || s.DevPollSet().Len() != 2 {
		t.Fatalf("interest sets: rtq=%d devpoll=%d", s.SignalQueue().Len(), s.DevPollSet().Len())
	}
}

func TestSwitchesToPollingUnderBurstAndBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLimit = 64
	cfg.HighWater = 8
	k, n, s := start(t, cfg)

	const burst = 80
	probes := make([]*probe, burst)
	for i := range probes {
		probes[i] = get(k, n, "/index.html")
	}
	k.Sim.RunUntil(core.Time(10 * core.Second))

	if s.SwitchesToPoll == 0 {
		t.Fatal("hybrid never switched to /dev/poll under the burst")
	}
	if s.SwitchesToSignal == 0 {
		t.Fatal("hybrid never switched back to signals after the burst drained")
	}
	if s.Mode() != ModeSignal {
		t.Fatalf("final mode = %v, want signal once load subsided", s.Mode())
	}
	served := s.Stats().Served
	if served != burst {
		t.Fatalf("served = %d, want %d (no requests may be lost across switches)", served, burst)
	}
	for i, p := range probes {
		if !p.closed {
			t.Fatalf("probe %d incomplete", i)
		}
	}
	s.Stop()
	if s.ModeTime[ModeSignal] <= 0 || s.ModeTime[ModePolling] <= 0 {
		t.Fatalf("mode time accounting: %+v", s.ModeTime)
	}
}

func TestOverflowSentinelTriggersCheapRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLimit = 4
	cfg.HighWater = 1000 // never triggers on length; only overflow forces the switch
	k, n, s := start(t, cfg)
	const burst = 40
	probes := make([]*probe, burst)
	for i := range probes {
		probes[i] = get(k, n, "/index.html")
	}
	k.Sim.RunUntil(core.Time(10 * core.Second))
	s.Stop()
	if s.SwitchesToPoll == 0 {
		t.Fatal("overflow did not switch the hybrid to /dev/poll")
	}
	if s.Stats().Served != burst {
		t.Fatalf("served = %d, want %d", s.Stats().Served, burst)
	}
}

// With idle sweeping disabled there is no sweep timer, but the mode-switch
// policy still needs the loop to wake every WaitTimeout (the hand-rolled loop
// bounded every wait unconditionally): the policy tick keeps iterations
// coming, so a server stuck in polling mode with no traffic can still count
// consecutive quiet scans and switch back to signals.
func TestPolicyTickRunsWithoutIdleSweeping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleTimeout = 0
	cfg.WaitTimeout = 100 * core.Millisecond
	k, _, s := start(t, cfg)

	// Force polling mode with no pending work, then go completely quiet.
	k.Sim.At(k.Now().Add(20*core.Millisecond), func(now core.Time) {
		s.rtq.Recover()
		s.switchMode(now, ModePolling)
	})
	k.Sim.RunUntil(core.Time(2 * core.Second))
	s.Stop()

	if s.Mode() != ModeSignal {
		t.Fatalf("mode = %v, want the policy to have switched back to signals with no load", s.Mode())
	}
	if s.SwitchesToSignal == 0 {
		t.Fatal("no switch back recorded")
	}
	if s.Loops() < 5 {
		t.Fatalf("loop iterations = %d; the policy tick should keep the loop waking", s.Loops())
	}
}
