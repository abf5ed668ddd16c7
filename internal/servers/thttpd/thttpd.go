// Package thttpd simulates the paper's thttpd: a simple single-process,
// event-driven static web server. The event backend is pluggable through the
// eventlib registry — the stock poll() baseline, the modified /dev/poll build
// (the two configurations measured in Figures 4 through 10), epoll in either
// trigger mode, the RT signal queue or the completion rings.
//
// The server owns no dispatch loop of its own: it registers callbacks on an
// eventlib.Base (accept on the listener, read per connection, a periodic
// idle-sweep timer) and lets the base compute poll timeouts and iterate
// readiness.
//
// The same shape scales across processors: Config.Workers identical
// single-threaded workers, each with its own process (descriptor table,
// eventlib.Base, kernel-resident interest set) pinned to its own CPU — the
// prefork architecture the descendants of this paper's work (nginx,
// libevent-based servers) converged on once multiprocessor hosts became the
// norm. The paper measures a uniprocessor only, which is the one-worker
// server. Two accept-distribution modes are provided, because how connections
// reach workers is the interesting design choice:
//
//   - ModeReuseport: every worker opens its own listening socket on the shared
//     port (SO_REUSEPORT) and the simulated stack shards new connections
//     across the accept queues (netsim.Config.Shard: four-tuple hash or
//     idealised round-robin). No worker ever touches another's connections.
//   - ModeHandoff: worker 0 alone listens and accepts, then deals connections
//     to workers in rotation, passing each descriptor over a UNIX-domain
//     socket (netsim.SockAPI.AcceptDetach / Adopt). This is the classic
//     pre-SO_REUSEPORT architecture; its single accept path and per-connection
//     handoff cost are what the reuseport comparison quantifies.
package thttpd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rtsig"
	"repro/internal/servers/httpcore"
	"repro/internal/simkernel"
)

// Mode selects how connections are distributed to workers.
type Mode int

// Accept-distribution modes.
const (
	// ModeReuseport shards connections across per-worker listeners in the
	// stack (SO_REUSEPORT).
	ModeReuseport Mode = iota
	// ModeHandoff funnels all accepts through worker 0, which passes
	// connections to workers round-robin over a UNIX-domain socket.
	ModeHandoff
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeHandoff {
		return "handoff"
	}
	return "reuseport"
}

// Config parameterises a thttpd instance.
type Config struct {
	// Workers is the number of worker processes (and the number of CPUs the
	// kernel should have been built with); zero or one is the paper's single
	// process.
	Workers int
	// Mode selects the accept-distribution architecture.
	Mode Mode
	// Backend names the eventlib backend each worker runs on ("poll",
	// "devpoll", "epoll", "epoll-et", "rtsig", "compio"); empty selects stock
	// poll(), the paper's baseline configuration.
	Backend string
	// OpenPoller, when non-nil, overrides Backend with a custom-configured
	// poller, opened once per worker (the ablations disable individual
	// /dev/poll or completion-ring optimisations this way). The poller's
	// Name() keys its delivery semantics in the eventlib registry.
	OpenPoller func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller
	// IdleTimeout closes connections with no activity for this long (thttpd's
	// connection timeout). Zero disables idle sweeping.
	IdleTimeout core.Duration
	// WaitTimeout is the per-worker idle-sweep timer period, mirroring
	// thttpd's one-second timer granularity.
	WaitTimeout core.Duration
	// HTTP selects the persistent-connection features (keep-alive,
	// pipelining, response cache, write path) each worker runs with; the
	// zero value is the historical one-request HTTP/1.0 behaviour.
	HTTP httpcore.Options
}

// DefaultConfig returns the configuration used in the paper's runs: one
// process on stock poll(), the 6 KB document, a 60-second connection timeout.
func DefaultConfig() Config {
	return Config{
		Workers:     1,
		Backend:     "poll",
		IdleTimeout: 60 * core.Second,
		WaitTimeout: core.Second,
	}
}

// Worker is one of the server's identical single-threaded processes.
type Worker struct {
	Index int
	P     *simkernel.Proc

	api       *netsim.SockAPI
	base      *eventlib.Base
	edgeStyle bool
	handler   *httpcore.Handler
	loop      *httpcore.EventLoop
	lfd       *simkernel.FD
}

// Poller exposes the worker's event mechanism (for tests and experiments).
func (w *Worker) Poller() core.Poller { return w.base.Poller() }

// Handler exposes the worker's HTTP engine (for tests and experiments).
func (w *Worker) Handler() *httpcore.Handler { return w.handler }

// Server is a running thttpd instance inside the simulation.
type Server struct {
	K *simkernel.Kernel

	cfg     Config
	workers []*Worker
	rrNext  int
	started bool

	// Handoffs counts connections passed from worker 0 to a worker in
	// ModeHandoff.
	Handoffs int64
}

// New creates a thttpd instance bound to the kernel and network. Workers are
// pinned to CPUs round-robin (worker i to CPU i mod NumCPU), so a kernel built
// with NewKernelSMP(cost, workers) gives each worker its own core, and a
// uniprocessor kernel serialises them all. An unknown Backend name panics with
// the registry's listed-choices error; callers that take backend names from
// user input validate them through the registry (or the experiments kind
// resolver) first.
func New(k *simkernel.Kernel, net *netsim.Network, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Backend == "" {
		cfg.Backend = "poll"
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = core.Second
	}
	s := &Server{K: k, cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		// The process name salts the fault plane's per-process draws, so a
		// lone worker keeps the paper's process name.
		name := "thttpd"
		if cfg.Workers > 1 {
			name = fmt.Sprintf("worker%d", i)
		}
		p := k.NewProcOn(name, k.Sched.CPU(i%k.Sched.NumCPU()))
		w := &Worker{Index: i, P: p, api: netsim.NewSockAPI(k, p, net)}
		var poller core.Poller
		if cfg.OpenPoller != nil {
			poller = cfg.OpenPoller(k, p)
		} else {
			var err error
			if poller, _, err = eventlib.OpenBackend(k, p, cfg.Backend); err != nil {
				panic("thttpd: " + err.Error())
			}
		}
		w.base = eventlib.NewWithPoller(k, p, poller, eventlib.Config{
			// thttpd's per-iteration bookkeeping: timer list scan,
			// connection table management, fdwatch setup.
			LoopCost: k.Cost.ServerLoopOverhead,
		})
		backend, _ := eventlib.Lookup(poller.Name())
		w.edgeStyle = backend.EdgeStyle
		w.handler = httpcore.NewHandler(k, p, w.api)
		w.handler.IdleTimeout = cfg.IdleTimeout
		w.handler.SetOptions(cfg.HTTP)
		s.workers = append(s.workers, w)
	}
	return s
}

// Config returns the active configuration.
func (s *Server) Config() Config { return s.cfg }

// Workers returns the worker processes in index order.
func (s *Server) Workers() []*Worker { return s.workers }

// Start opens the listening socket(s), wires each worker's handler onto its
// event base and starts all dispatch loops. It may be called once.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	for _, w := range s.workers {
		listens := s.cfg.Mode == ModeReuseport || w.Index == 0
		w.P.Batch(s.K.Now(), func() {
			serveCfg := httpcore.ServeConfig{SweepInterval: s.cfg.WaitTimeout}
			if w.edgeStyle {
				// Transition-driven delivery never reports data that arrived
				// before registration: read freshly accepted connections once.
				serveCfg.AfterAccept = func(now core.Time, fds []int) {
					for _, fd := range fds {
						w.handler.HandleReadable(now, fd)
					}
				}
			}
			if s.cfg.Mode == ModeHandoff && w.Index == 0 {
				serveCfg.Accept = func(now core.Time) { s.acceptAndDeal(w, now) }
			}
			if listens {
				w.lfd, _ = w.api.Listen()
			}
			// Non-listening handoff workers attach with a nil listener: the
			// same per-connection events, idle sweep and Rescan recovery,
			// minus the accept event.
			w.loop = w.handler.Attach(w.base, w.lfd, serveCfg)
			if q, ok := w.base.Poller().(*rtsig.Queue); ok {
				armOverflowRecovery(w, q)
			}
		}, func(core.Time) {
			w.base.Dispatch()
		})
	}
}

// armOverflowRecovery handles RT-signal queue overflow on one worker. Dropped
// signals are gone for good (delivery is transition-driven), so the worker
// must do what the paper says applications must: flush the queue and re-scan
// every descriptor it watches for activity the lost signals would have
// announced (for a non-listening worker, Rescan skips the accept drain).
func armOverflowRecovery(w *Worker, q *rtsig.Queue) {
	ovf := w.base.NewEvent(rtsig.OverflowFD, eventlib.EvSignal|eventlib.EvPersist,
		func(_ int, _ eventlib.What, now core.Time) {
			q.Recover()
			w.loop.Rescan(now)
		})
	if err := ovf.Add(0); err != nil {
		panic("thttpd: arming the overflow event: " + err.Error())
	}
}

// acceptAndDeal is worker 0's listener callback in ModeHandoff: drain the
// accept queue with AcceptDetach and deal each connection to a worker in
// rotation. The adoption runs in the receiving worker's own batch — the
// recvmsg side of descriptor passing happens in that process — and is
// deferred to the instant the acceptor's batch completes: the passed
// descriptor only becomes visible to the sibling once the CPU has actually
// finished the accept and sendmsg work that produced it.
func (s *Server) acceptAndDeal(w0 *Worker, now core.Time) {
	for {
		conn, ok := w0.api.AcceptDetach(w0.lfd)
		if !ok {
			return
		}
		target := s.workers[s.rrNext]
		s.rrNext = (s.rrNext + 1) % len(s.workers)
		s.Handoffs++
		w0.P.Defer(func(done core.Time) {
			target.P.Batch(done, func() {
				fd := target.api.Adopt(conn)
				target.handler.AdoptConn(done, fd, conn)
				// Request data may have arrived before the registration
				// existed; one unprompted read covers it, exactly like the
				// edge-style post-accept read.
				target.handler.HandleReadable(done, fd.Num)
			}, nil)
		})
	}
}

// Stop halts every worker's event loop after its current iteration.
func (s *Server) Stop() {
	for _, w := range s.workers {
		w.base.Stop()
	}
}

// Stats returns the application-level counters summed across workers.
func (s *Server) Stats() httpcore.Stats {
	var total httpcore.Stats
	for _, w := range s.workers {
		total.Add(w.handler.Stats)
	}
	return total
}

// MechanismStats sums the workers' poller statistics.
func (s *Server) MechanismStats() core.Stats {
	var total core.Stats
	for _, w := range s.workers {
		if src, ok := w.base.Poller().(core.StatsSource); ok {
			total.Add(src.MechanismStats())
		}
	}
	return total
}

// ServiceLatency merges the workers' request-latency histograms into one
// server-wide distribution, in worker order (the fixed bucket layout makes
// the merge an exact bucket-wise sum).
func (s *Server) ServiceLatency() metrics.LatencyHist {
	var merged metrics.LatencyHist
	for _, w := range s.workers {
		merged.Merge(&w.handler.ServiceLatency)
	}
	return merged
}

// Loops counts completed event-loop iterations across all workers.
func (s *Server) Loops() int64 {
	var total int64
	for _, w := range s.workers {
		total += w.base.Iterations()
	}
	return total
}

// OpenConnections reports how many connections the server currently holds
// across all workers.
func (s *Server) OpenConnections() int {
	total := 0
	for _, w := range s.workers {
		total += w.handler.Open()
	}
	return total
}

// PerWorkerServed reports each worker's served-request count, in worker
// order: the balance the sharding policy achieved.
func (s *Server) PerWorkerServed() []int64 {
	out := make([]int64, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.handler.Stats.Served
	}
	return out
}

var _ core.StatsSource = (*Server)(nil)
