// Package phhttpd simulates Zach Brown's phhttpd as the paper benchmarks it
// (§2, §5.2, §6): a static-content server driven by POSIX RT signals. Each
// accepted descriptor is registered with fcntl(F_SETSIG); the server keeps the
// signals masked and collects completions one at a time with sigwaitinfo().
//
// The overflow-recovery path reproduces the behaviour the paper criticises in
// §6: when the RT signal queue overflows, the server flushes pending signals,
// hands every open connection — one at a time, over a UNIX-domain socket — to
// a poll sibling, rebuilds the pollfd array from scratch, and then runs in
// polling mode for the rest of its life ("the current phhttpd server does not
// switch from polling mode back to RT signal queue mode").
//
// The server runs on an eventlib.Base whose wait target starts as the RT
// signal queue; overflow recovery re-registers every pending event on the
// poll sibling and activates it. The overflow sentinel itself arrives through
// an eventlib signal event on rtsig.OverflowFD.
package phhttpd

import (
	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/netsim"
	"repro/internal/rtsig"
	"repro/internal/servers/httpcore"
	"repro/internal/simkernel"
	"repro/internal/stockpoll"
)

// Mode is the server's current event-delivery mode.
type Mode int

// Modes.
const (
	ModeSignal  Mode = iota // normal operation: RT signals, one event per syscall
	ModePolling             // after queue overflow: stock poll() over all descriptors
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeSignal {
		return "signal"
	}
	return "polling"
}

// Config parameterises a phhttpd instance.
type Config struct {
	// IdleTimeout closes connections with no activity for this long.
	IdleTimeout core.Duration
	// HTTP selects the persistent-connection features (keep-alive,
	// pipelining, response cache, write path); the zero value is the
	// historical one-request HTTP/1.0 behaviour.
	HTTP httpcore.Options
	// QueueLimit is the RT signal queue maximum (default 1024).
	QueueLimit int
	// BatchDequeue enables the sigtimedwait4() extension (§6 future work); the
	// faithful phhttpd configuration leaves it off.
	BatchDequeue bool
	// WaitTimeout is the idle-sweep timer period bounding each
	// sigwaitinfo()/poll() wait.
	WaitTimeout core.Duration
}

// PerConnOverhead is phhttpd's per-event bookkeeping cost per open
// connection: the experimental server walks its per-thread connection
// structures on every completion it handles. This is the term behind the
// paper's unexpected observation that "inactive connections appear to
// increase the overhead of handling active connections" (Figures 12, 13);
// it is calibrated to reproduce those figures' shapes.
const PerConnOverhead = 600 * core.Nanosecond

// DefaultConfig matches the single-threaded phhttpd configuration of the
// paper's Figures 11-13.
func DefaultConfig() Config {
	return Config{
		IdleTimeout:  60 * core.Second,
		QueueLimit:   rtsig.DefaultQueueLimit,
		BatchDequeue: false,
		WaitTimeout:  core.Second,
	}
}

// Server is a running phhttpd instance inside the simulation.
type Server struct {
	K *simkernel.Kernel
	P *simkernel.Proc

	cfg     Config
	api     *netsim.SockAPI
	rtq     *rtsig.Queue
	pollset *stockpoll.Poller
	base    *eventlib.Base
	handler *httpcore.Handler
	lfd     *simkernel.FD

	mode    Mode
	started bool

	// Overflows counts queue overflows; Handoffs counts connections
	// transferred to the poll sibling during overflow recovery.
	Overflows int64
	Handoffs  int64
}

// New creates a phhttpd instance bound to the kernel and network.
func New(k *simkernel.Kernel, net *netsim.Network, cfg Config) *Server {
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = rtsig.DefaultQueueLimit
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = core.Second
	}
	p := k.NewProc("phhttpd")
	api := netsim.NewSockAPI(k, p, net)
	s := &Server{K: k, P: p, cfg: cfg, api: api, mode: ModeSignal}
	s.rtq = rtsig.New(k, p, rtsig.Options{
		QueueLimit:   cfg.QueueLimit,
		BatchDequeue: cfg.BatchDequeue,
	})
	s.pollset = stockpoll.New(k, p)
	// The base waits on the RT queue; the poll sibling is attached but
	// receives no interests until overflow recovery re-registers everything
	// (phhttpd does not maintain the pollfd array concurrently — the
	// weakness §6 calls out).
	s.base = eventlib.NewWithPoller(k, p, s.rtq, eventlib.Config{})
	s.base.AttachPoller(s.pollset)
	s.handler = httpcore.NewHandler(k, p, api)
	s.handler.IdleTimeout = cfg.IdleTimeout
	s.handler.SetOptions(cfg.HTTP)
	return s
}

// Start opens the listening socket, wires the handler onto the event base and
// starts dispatching.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	s.P.Batch(s.K.Now(), func() {
		s.lfd, _ = s.api.Listen()
		s.handler.Attach(s.base, s.lfd, httpcore.ServeConfig{
			Read:          s.handleReadable,
			SweepInterval: s.cfg.WaitTimeout,
			// Request data that arrived before F_SETSIG was issued never
			// generates a completion signal, so the signal-driven server must
			// read each freshly accepted connection once. In polling mode the
			// poll sibling reports it instead.
			AfterAccept: func(now core.Time, fds []int) {
				if s.mode != ModeSignal {
					return
				}
				for _, fd := range fds {
					s.handleReadable(now, fd)
				}
			},
		})
		// The queue-overflow sentinel (SIGIO) arrives as an event on the
		// reserved OverflowFD descriptor; a signal event routes it to the
		// recovery path without registering any poller interest.
		ovf := s.base.NewEvent(rtsig.OverflowFD, eventlib.EvSignal|eventlib.EvPersist,
			func(_ int, _ eventlib.What, now core.Time) { s.recoverFromOverflow(now) })
		if err := ovf.Add(0); err != nil {
			panic("phhttpd: arming the overflow event: " + err.Error())
		}
	}, func(core.Time) {
		s.base.Dispatch()
	})
}

// Stop halts the event loop after the current iteration.
func (s *Server) Stop() { s.base.Stop() }

// Mode reports the current event-delivery mode.
func (s *Server) Mode() Mode { return s.mode }

// Stats returns the application-level counters.
func (s *Server) Stats() httpcore.Stats { return s.handler.Stats }

// Handler exposes the shared HTTP engine (service-latency histogram, tests).
func (s *Server) Handler() *httpcore.Handler { return s.handler }

// SignalQueue exposes the RT signal queue (for experiments and tests).
func (s *Server) SignalQueue() *rtsig.Queue { return s.rtq }

// PollSet exposes the overflow sibling's poll set (for tests).
func (s *Server) PollSet() *stockpoll.Poller { return s.pollset }

// OpenConnections reports how many connections the server currently holds.
func (s *Server) OpenConnections() int { return s.handler.Open() }

// Loops counts event-loop iterations.
func (s *Server) Loops() int64 { return s.base.Iterations() }

// handleReadable wraps the shared HTTP engine with phhttpd's per-connection
// bookkeeping cost: the experimental server walks structures proportional to
// its open connection count whenever it handles activity on a descriptor (see
// PerConnOverhead and the paper's Figures 12-13 discussion).
func (s *Server) handleReadable(now core.Time, fd int) {
	s.P.Charge(PerConnOverhead.Scale(float64(s.handler.Open())))
	s.handler.HandleReadable(now, fd)
}

// recoverFromOverflow implements phhttpd's expensive overflow recovery. It
// runs inside the dispatch batch.
func (s *Server) recoverFromOverflow(now core.Time) {
	if s.mode == ModePolling {
		// Already recovered; a stale SIGIO indication needs no further work.
		return
	}
	s.Overflows++
	// Flush pending signals (handler set to SIG_DFL).
	s.rtq.Recover()

	// Hand every connection, plus the listener, to the poll sibling one at a
	// time over a UNIX-domain socket — precisely the work §6 identifies as
	// likely to melt the server down under the very load that caused the
	// overflow. Activate then rebuilds the pollfd array from scratch by
	// re-registering every pending event.
	cost := s.K.Cost
	if s.lfd != nil {
		s.P.Charge(cost.ConnHandoff)
		s.Handoffs++
	}
	for range s.handler.Open() {
		s.P.Charge(cost.ConnHandoff)
		s.Handoffs++
	}
	_ = s.base.Activate(s.pollset, true)
	s.mode = ModePolling
}
