// Package hybrid implements the server the paper imagines but never builds
// (§4, §6): a static-content server that uses POSIX RT signals for low-latency
// event delivery while lightly loaded and switches to /dev/poll once the RT
// signal queue length signals heavy load, switching back when load subsides.
//
// Following §6's prescription, the /dev/poll interest set is maintained
// concurrently with RT signal activity, so a mode switch costs almost nothing:
// no per-connection handoff and no rebuilding of interest state — the
// weaknesses that doom phhttpd's overflow recovery. On the eventlib.Base this
// is the MirrorInterest configuration: every Add and Del applies to both
// mechanisms, and a mode switch merely activates the other wait target.
package hybrid

import (
	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/netsim"
	"repro/internal/rtsig"
	"repro/internal/servers/httpcore"
	"repro/internal/simkernel"
)

// Mode is the server's current event-delivery mode.
type Mode int

// Modes.
const (
	ModeSignal  Mode = iota // RT signals: lowest latency per event
	ModePolling             // /dev/poll: highest throughput under load
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeSignal {
		return "signal"
	}
	return "devpoll"
}

// Config parameterises the hybrid server.
type Config struct {
	// IdleTimeout closes connections with no activity for this long.
	IdleTimeout core.Duration
	// HTTP selects the persistent-connection features (keep-alive,
	// pipelining, response cache, write path); the zero value is the
	// historical one-request HTTP/1.0 behaviour.
	HTTP httpcore.Options
	// QueueLimit is the RT signal queue maximum.
	QueueLimit int
	// HighWater is the queue length that triggers the switch to /dev/poll; the
	// paper suggests using the queue maximum itself, since overflow already
	// forces a poll. Zero selects QueueLimit/2, a slightly earlier, safer
	// crossover.
	HighWater int
	// BatchDequeue enables sigtimedwait4-style batch dequeue in signal mode.
	BatchDequeue bool
	// BulkBackend names the eventlib backend used as the bulk poller in
	// polling mode ("devpoll", "epoll", "epoll-et", "compio"); empty selects
	// "devpoll".
	BulkBackend string
	// WaitTimeout is the idle-sweep timer period bounding each wait.
	WaitTimeout core.Duration
}

// The hysteresis on the way back to signal mode: ConsecutiveLow bulk scans in
// a row must each deliver fewer than LowWater events, with fewer than
// LowWater signals queued, before the server switches back; the last of them
// must also find the queue empty. It keeps the mode from oscillating.
const (
	LowWater       = 8
	ConsecutiveLow = 4
)

// DefaultConfig returns a hybrid configuration with the crossover at half the
// RT queue limit.
func DefaultConfig() Config {
	return Config{
		IdleTimeout:  60 * core.Second,
		QueueLimit:   rtsig.DefaultQueueLimit,
		HighWater:    rtsig.DefaultQueueLimit / 2,
		BatchDequeue: false,
		BulkBackend:  "devpoll",
		WaitTimeout:  core.Second,
	}
}

// Server is a running hybrid instance inside the simulation.
type Server struct {
	P *simkernel.Proc

	cfg     Config
	api     *netsim.SockAPI
	rtq     *rtsig.Queue
	dp      core.Poller
	base    *eventlib.Base
	handler *httpcore.Handler
	lfd     *simkernel.FD

	mode    Mode
	lowRuns int
	started bool
	stopped bool

	// SwitchesToPoll and SwitchesToSignal count mode transitions; ModeTime
	// accumulates virtual time per mode.
	SwitchesToPoll   int64
	SwitchesToSignal int64
	lastModeChange   core.Time
	ModeTime         [2]core.Duration
}

// New creates a hybrid server bound to the kernel and network.
func New(k *simkernel.Kernel, net *netsim.Network, cfg Config) *Server {
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = rtsig.DefaultQueueLimit
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = cfg.QueueLimit / 2
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = core.Second
	}
	if cfg.BulkBackend == "" {
		cfg.BulkBackend = "devpoll"
	}
	p := k.NewProc("hybrid")
	api := netsim.NewSockAPI(k, p, net)
	s := &Server{P: p, cfg: cfg, api: api, mode: ModeSignal}
	s.rtq = rtsig.New(k, p, rtsig.Options{QueueLimit: cfg.QueueLimit, BatchDequeue: cfg.BatchDequeue})
	poller, _, err := eventlib.OpenBackend(k, p, cfg.BulkBackend)
	if err != nil {
		panic("hybrid: " + err.Error())
	}
	s.dp = poller
	// Both interest sets are kept up to date on every connection open/close
	// (MirrorInterest), which is what makes switching modes nearly free.
	s.base = eventlib.NewWithPoller(k, p, s.rtq, eventlib.Config{
		MirrorInterest: true,
		AfterDispatch:  s.evaluateSwitch,
	})
	s.base.AttachPoller(s.dp)
	s.handler = httpcore.NewHandler(k, p, api)
	s.handler.IdleTimeout = cfg.IdleTimeout
	s.handler.SetOptions(cfg.HTTP)
	return s
}

// Start opens the listening socket, registers it with both mechanisms and
// starts dispatching.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	s.P.Batch(s.P.Now(), func() {
		s.lfd, _ = s.api.Listen()
		s.handler.Attach(s.base, s.lfd, httpcore.ServeConfig{
			SweepInterval: s.cfg.WaitTimeout,
			// As in phhttpd: data that arrived before registration never
			// raises a signal, so read freshly accepted connections once
			// while in signal mode.
			AfterAccept: func(now core.Time, fds []int) {
				if s.mode != ModeSignal {
					return
				}
				for _, fd := range fds {
					s.handler.HandleReadable(now, fd)
				}
			},
		})
		// Overflow is simply an early, emphatic load signal; the devpoll
		// interest set is already current, so recovery is one Recover plus
		// the next devpoll scan.
		ovf := s.base.NewEvent(rtsig.OverflowFD, eventlib.EvSignal|eventlib.EvPersist,
			func(_ int, _ eventlib.What, now core.Time) {
				s.rtq.Recover()
				s.switchMode(now, ModePolling)
			})
		if err := ovf.Add(0); err != nil {
			panic("hybrid: arming the overflow event: " + err.Error())
		}
		if s.cfg.IdleTimeout <= 0 {
			// The switch policy (AfterDispatch) needs the loop to wake at
			// least every WaitTimeout even with no I/O, as the hand-rolled
			// loop's bounded waits guaranteed; without idle sweeping there is
			// no sweep timer to drive that, so arm a policy tick.
			tick := s.base.NewTimer(eventlib.EvPersist, func(int, eventlib.What, core.Time) {})
			if err := tick.Add(s.cfg.WaitTimeout); err != nil {
				panic("hybrid: arming the policy tick: " + err.Error())
			}
		}
	}, func(done core.Time) {
		s.lastModeChange = done
		s.base.Dispatch()
	})
}

// Stop halts the event loop after the current iteration.
func (s *Server) Stop() {
	if !s.stopped {
		s.stopped = true
		s.ModeTime[s.mode] += s.P.Now().Sub(s.lastModeChange)
		s.lastModeChange = s.P.Now()
	}
	s.base.Stop()
}

// Mode reports the current event-delivery mode.
func (s *Server) Mode() Mode { return s.mode }

// ModeName names the current mode using the bulk poller's own name, so a
// hybrid built on epoll reports "epoll" rather than "devpoll".
func (s *Server) ModeName() string {
	if s.mode == ModeSignal {
		return ModeSignal.String()
	}
	return s.dp.Name()
}

// Stats returns the application-level counters.
func (s *Server) Stats() httpcore.Stats { return s.handler.Stats }

// Handler exposes the shared HTTP engine (service-latency histogram, tests).
func (s *Server) Handler() *httpcore.Handler { return s.handler }

// SignalQueue exposes the RT signal queue (for tests and experiments).
func (s *Server) SignalQueue() *rtsig.Queue { return s.rtq }

// DevPollSet exposes the bulk poller Config.BulkBackend selected, /dev/poll
// by default (for tests and experiments).
func (s *Server) DevPollSet() core.Poller { return s.dp }

// OpenConnections reports how many connections the server currently holds.
func (s *Server) OpenConnections() int { return s.handler.Open() }

// Loops counts event-loop iterations.
func (s *Server) Loops() int64 { return s.base.Iterations() }

// evaluateSwitch applies the crossover policy of §4 after every dispatch
// batch: the RT signal queue length is the load indicator, the number of
// events the bulk scan delivered the sign that load has subsided.
func (s *Server) evaluateSwitch(delivered int, now core.Time) {
	if s.stopped {
		return
	}
	switch s.mode {
	case ModeSignal:
		if s.rtq.QueueLength() >= s.cfg.HighWater || s.rtq.Overflowed() {
			// The queue is deep: one-at-a-time dequeueing is falling behind.
			// Flush it (the devpoll scan will rediscover everything pending)
			// and switch.
			s.rtq.Recover()
			s.switchMode(now, ModePolling)
		}
	case ModePolling:
		if delivered < LowWater && s.rtq.QueueLength() < LowWater {
			s.lowRuns++
			if s.lowRuns >= ConsecutiveLow && s.rtq.QueueLength() == 0 {
				// Load has subsided and no signals are pending; clear the
				// overflow flags and return to low-latency delivery. The
				// empty-queue requirement makes the switch lossless: Recover
				// flushes the queue, and a flushed signal whose readiness
				// edge already fired (a listener whose backlog is non-empty)
				// would never announce itself again.
				s.rtq.Recover()
				s.switchMode(now, ModeSignal)
			}
		} else {
			s.lowRuns = 0
		}
	}
}

// switchMode records a mode transition and activates the corresponding wait
// target; both interest sets are already current, so nothing is re-registered.
func (s *Server) switchMode(now core.Time, to Mode) {
	if s.mode == to {
		return
	}
	s.ModeTime[s.mode] += now.Sub(s.lastModeChange)
	s.lastModeChange = now
	s.lowRuns = 0
	if to == ModePolling {
		s.SwitchesToPoll++
		_ = s.base.Activate(s.dp, false)
	} else {
		s.SwitchesToSignal++
		_ = s.base.Activate(s.rtq, false)
	}
	s.mode = to
}
