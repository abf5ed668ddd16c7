package thttpd

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/rtsig"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

// start builds a kernel, network and running thttpd on the given backend.
func start(t *testing.T, backend string, idle core.Duration) (*simkernel.Kernel, *netsim.Network, *Server) {
	t.Helper()
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Backend = backend
	cfg.IdleTimeout = idle
	s := New(k, n, cfg)
	s.Start()
	k.Sim.RunUntil(core.Time(10 * core.Millisecond))
	return k, n, s
}

// get issues one client GET and reports bytes received and completion.
type probe struct {
	bytes  int
	closed bool
}

func get(k *simkernel.Kernel, n *netsim.Network, path string) *probe {
	p := &probe{}
	cc := n.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{
		OnConnected:  func(now core.Time) {},
		OnData:       func(_ core.Time, b int) { p.bytes += b },
		OnPeerClosed: func(core.Time) { p.closed = true },
	})
	k.Sim.After(core.Millisecond, func(now core.Time) {
		cc.Send(now, httpsim.FormatRequest(path))
	})
	return p
}

func TestServesRequestsOnStockPoll(t *testing.T) {
	k, n, s := start(t, "poll", 0)
	probes := []*probe{get(k, n, "/index.html"), get(k, n, "/small.html"), get(k, n, "/index.html")}
	k.Sim.RunUntil(core.Time(2 * core.Second))
	s.Stop()

	if s.Stats().Served != 3 {
		t.Fatalf("served = %d", s.Stats().Served)
	}
	want6k := httpsim.ResponseSize(httpsim.StatusOK, httpsim.DefaultDocumentSize)
	if probes[0].bytes != want6k || !probes[0].closed {
		t.Fatalf("probe0 = %+v", probes[0])
	}
	if probes[1].bytes != httpsim.ResponseSize(httpsim.StatusOK, 512) {
		t.Fatalf("probe1 = %+v", probes[1])
	}
	if s.Workers()[0].Poller().Name() != "poll" {
		t.Fatalf("poller = %s", s.Workers()[0].Poller().Name())
	}
	if s.OpenConnections() != 0 {
		t.Fatalf("open connections = %d", s.OpenConnections())
	}
	// The listener stays registered; served connections were removed.
	if s.Workers()[0].Poller().Len() != 1 {
		t.Fatalf("poller interests = %d", s.Workers()[0].Poller().Len())
	}
}

func TestServesRequestsOnDevPoll(t *testing.T) {
	k, n, s := start(t, "devpoll", 0)
	p := get(k, n, "/index.html")
	k.Sim.RunUntil(core.Time(2 * core.Second))
	s.Stop()
	if s.Stats().Served != 1 || !p.closed {
		t.Fatalf("served=%d probe=%+v", s.Stats().Served, p)
	}
	if s.Workers()[0].Poller().Name() != "devpoll" {
		t.Fatalf("poller = %s", s.Workers()[0].Poller().Name())
	}
	st := s.Workers()[0].Poller().(core.StatsSource).MechanismStats()
	if st.Waits == 0 || st.EventsReturned == 0 {
		t.Fatalf("mechanism stats = %+v", st)
	}
}

func TestDefaultConfigFallbacks(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	s := New(k, n, Config{})
	if s.cfg.WaitTimeout <= 0 {
		t.Fatalf("config fallbacks not applied: %+v", s.cfg)
	}
	if s.Workers()[0].Poller().Name() != "poll" {
		t.Fatalf("default mechanism = %s", s.Workers()[0].Poller().Name())
	}
	// Start is idempotent.
	s.Start()
	s.Start()
	k.Sim.RunUntil(core.Time(10 * core.Millisecond))
	s.Stop()
}

func TestIdleTimeoutClosesInactiveConnections(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	cfg := DefaultConfig()
	cfg.IdleTimeout = 2 * core.Second
	cfg.WaitTimeout = 500 * core.Millisecond
	s := New(k, n, cfg)
	s.Start()

	peerClosed := false
	cc := n.ConnectWith(0, netsim.ConnectOptions{}, &simtest.ConnHooks{
		OnPeerClosed: func(core.Time) { peerClosed = true },
	})
	k.Sim.After(core.Millisecond, func(now core.Time) {
		cc.Send(now, httpsim.FormatPartialRequest("/index.html"))
	})
	k.Sim.RunUntil(core.Time(core.Second))
	if s.OpenConnections() != 1 {
		t.Fatalf("open connections = %d", s.OpenConnections())
	}
	k.Sim.RunUntil(core.Time(5 * core.Second))
	s.Stop()
	if s.OpenConnections() != 0 {
		t.Fatalf("idle connection not closed: %d", s.OpenConnections())
	}
	if s.Stats().IdleCloses != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	if !peerClosed {
		t.Fatal("client never saw the idle-timeout close")
	}
}

func TestStopHaltsTheLoop(t *testing.T) {
	k, _, s := start(t, "poll", core.Second)
	s.Stop()
	loopsAtStop := s.Loops()
	// With the loop stopped the simulation drains (pending timers fire once and
	// no new waits are scheduled).
	k.Sim.RunUntil(core.Time(30 * core.Second))
	if s.Loops() > loopsAtStop+2 {
		t.Fatalf("loop kept running after Stop: %d -> %d", loopsAtStop, s.Loops())
	}
}

func TestManyConcurrentConnections(t *testing.T) {
	k, n, s := start(t, "devpoll", 0)
	const conns = 200
	probes := make([]*probe, conns)
	for i := range probes {
		i := i
		// Stagger arrivals so the listener backlog (128) is never exceeded —
		// backlog overflow behaviour has its own tests in netsim and loadgen.
		k.Sim.At(k.Now().Add(core.Duration(i)*2*core.Millisecond), func(core.Time) {
			probes[i] = get(k, n, "/index.html")
		})
	}
	k.Sim.RunUntil(core.Time(10 * core.Second))
	s.Stop()
	if got := s.Stats().Served; got != conns {
		t.Fatalf("served = %d, want %d", got, conns)
	}
	for i, p := range probes {
		if !p.closed {
			t.Fatalf("probe %d incomplete", i)
		}
	}
}

// thttpd on the RT-signal backend must survive a signal-queue overflow: the
// overflow sentinel triggers a queue flush plus a full rescan (accept drain +
// one read per open connection), because the dropped signals will never be
// re-delivered. Without that recovery the server wedges and serves nothing
// after the first overflow. Each worker recovers its own queue; the custom
// poller's edge-style delivery comes from its registry name.
func TestRtsigBackendRecoversFromOverflow(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			k := simkernel.NewKernelSMP(nil, workers)
			n := netsim.New(k, netsim.DefaultConfig())
			cfg := DefaultConfig()
			cfg.Workers = workers
			cfg.OpenPoller = func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
				return rtsig.New(k, p, rtsig.Options{QueueLimit: 4})
			}
			s := New(k, n, cfg)
			s.Start()
			k.Sim.RunUntil(core.Time(10 * core.Millisecond))

			const conns = 30
			probes := make([]*probe, conns)
			for i := range probes {
				probes[i] = get(k, n, "/index.html")
			}
			k.Sim.RunUntil(core.Time(20 * core.Second))
			s.Stop()

			for _, w := range s.Workers() {
				if !w.edgeStyle {
					t.Fatalf("worker %d did not read its rtsig poller as edge-style", w.Index)
				}
				if w.Poller().(*rtsig.Queue).MechanismStats().Overflows == 0 {
					t.Fatalf("burst never overflowed worker %d's 4-entry queue; the test exercises nothing", w.Index)
				}
			}
			if got := s.Stats().Served; got != conns {
				t.Fatalf("served = %d, want %d despite queue overflows", got, conns)
			}
			for i, p := range probes {
				if !p.closed {
					t.Fatalf("probe %d incomplete after overflow recovery", i)
				}
			}
		})
	}
}
