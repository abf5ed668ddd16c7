// Package dhtnode simulates a DHT/P2P rendezvous daemon over the datagram
// transport — the churn shape of the millions-mostly-idle regime. Peers ping
// a well-known address to join; the node opens a dedicated datagram socket
// per live peer (the NAT-keepalive/session shape of real DHT nodes), pongs
// every ping from it, and expires peers that go quiet past the peer timeout,
// closing their sockets. The interest set is therefore one descriptor per
// live peer, joining and leaving at the churn rate — which is exactly the
// workload that re-stresses the fd-generation machinery: descriptor numbers
// recycle constantly while pings for the dead sessions are still in flight.
//
// Like every other server the node owns no dispatch loop: the eventlib
// backend registry supplies the mechanism (poll, /dev/poll, RT signals,
// epoll, completion ring) and the node only consumes readiness callbacks.
package dhtnode

import (
	"sort"

	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/netsim"
	"repro/internal/rtsig"
	"repro/internal/simkernel"
)

// WellKnownAddr is the rendezvous address peers ping to join.
const WellKnownAddr netsim.Addr = 1

// Config parameterises a dhtnode instance.
type Config struct {
	// Backend names the eventlib backend; empty selects stock poll().
	Backend string
	// PongSize is the reply datagram size in bytes.
	PongSize int
	// PeerTimeout expires a peer whose last ping is older than this.
	PeerTimeout core.Duration
	// SweepInterval is the period of the expiry sweep timer.
	SweepInterval core.Duration
}

// DefaultConfig returns a small-DHT shape: 64-byte pongs, 30-second peer
// timeout swept every second, on stock poll.
func DefaultConfig() Config {
	return Config{
		Backend:       "poll",
		PongSize:      64,
		PeerTimeout:   30 * core.Second,
		SweepInterval: core.Second,
	}
}

// Stats tallies the node's application events.
type Stats struct {
	Joins   int64 // new peers admitted
	Pongs   int64 // replies sent
	Expired int64 // peers expired by the sweep
}

// session is one live peer: its dedicated socket and liveness state.
type session struct {
	peer     netsim.Addr
	fd       *simkernel.FD
	ev       *eventlib.Event
	lastSeen core.Time
}

// Server is a running dhtnode instance inside the simulation.
type Server struct {
	K *simkernel.Kernel
	P *simkernel.Proc

	cfg  Config
	api  *netsim.SockAPI
	base *eventlib.Base

	mainFD *simkernel.FD

	sessions map[netsim.Addr]*session
	byFD     core.Paged[*session] // fd-indexed; nil = not a session socket
	free     []*session

	stats   Stats
	started bool
}

// New creates a dhtnode bound to the kernel and network.
func New(k *simkernel.Kernel, net *netsim.Network, cfg Config) *Server {
	if cfg.Backend == "" {
		cfg.Backend = "poll"
	}
	if cfg.PongSize <= 0 {
		cfg.PongSize = 64
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 30 * core.Second
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = core.Second
	}
	p := k.NewProc("dhtnode")
	api := netsim.NewSockAPI(k, p, net)
	s := &Server{K: k, P: p, cfg: cfg, api: api, sessions: make(map[netsim.Addr]*session)}

	poller, _, err := eventlib.OpenBackend(k, p, cfg.Backend)
	if err != nil {
		panic("dhtnode: " + err.Error())
	}
	s.base = eventlib.NewWithPoller(k, p, poller, eventlib.Config{
		LoopCost: k.Cost.ServerLoopOverhead,
	})
	return s
}

// Start binds the well-known socket, arms the expiry sweep and starts
// dispatching. It may be called once.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	s.P.Batch(s.K.Now(), func() {
		s.mainFD, _ = s.api.OpenDatagram(WellKnownAddr)
		main := s.base.NewEvent(s.mainFD.Num, eventlib.EvRead|eventlib.EvPersist, s.onReadable)
		if err := main.Add(0); err != nil {
			panic("dhtnode: registering the well-known socket: " + err.Error())
		}
		sweep := s.base.NewTimer(eventlib.EvPersist, s.onSweep)
		if err := sweep.Add(s.cfg.SweepInterval); err != nil {
			panic("dhtnode: arming the sweep timer: " + err.Error())
		}
		if q, ok := s.base.Poller().(*rtsig.Queue); ok {
			ovf := s.base.NewEvent(rtsig.OverflowFD, eventlib.EvSignal|eventlib.EvPersist,
				func(_ int, _ eventlib.What, now core.Time) {
					q.Recover()
					s.rescan(now)
				})
			if err := ovf.Add(0); err != nil {
				panic("dhtnode: arming the overflow event: " + err.Error())
			}
		}
	}, func(core.Time) {
		s.base.Dispatch()
	})
}

// Stop halts the event loop after the current iteration.
func (s *Server) Stop() { s.base.Stop() }

// Stats returns the application-level counters.
func (s *Server) Stats() Stats { return s.stats }

// LivePeers reports the current session count (the interest set minus the
// well-known socket).
func (s *Server) LivePeers() int { return len(s.sessions) }

// Poller exposes the event mechanism (for experiment statistics).
func (s *Server) Poller() core.Poller { return s.base.Poller() }

// Loops counts completed event-loop iterations.
func (s *Server) Loops() int64 { return s.base.Iterations() }

// onReadable drains whichever socket reported readable — the well-known
// rendezvous socket admits unknown senders, a session socket refreshes its
// peer.
func (s *Server) onReadable(fd int, _ eventlib.What, now core.Time) {
	if fd == s.mainFD.Num {
		s.drainMain(now)
		return
	}
	sess := s.byFD.Get(fd)
	if sess == nil {
		return // stale event: the session expired before the callback ran
	}
	for {
		from, _, ok := s.api.RecvFrom(sess.fd)
		if !ok {
			return
		}
		sess.lastSeen = now
		s.pong(sess, from)
	}
}

// drainMain empties the well-known socket: known peers are refreshed (a
// re-ping that raced its session's pong), unknown ones join.
func (s *Server) drainMain(now core.Time) {
	for {
		from, _, ok := s.api.RecvFrom(s.mainFD)
		if !ok {
			return
		}
		if sess, known := s.sessions[from]; known {
			sess.lastSeen = now
			s.pong(sess, from)
			continue
		}
		s.join(now, from)
	}
}

// join admits a new peer: a dedicated datagram socket, its read event, a
// session record and the first pong (sent from the new socket, which is how
// the peer learns its session address).
func (s *Server) join(now core.Time, peer netsim.Addr) {
	var sess *session
	if n := len(s.free); n > 0 {
		sess = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		sess = &session{}
	}
	fd, _ := s.api.OpenDatagram(0)
	sess.peer, sess.fd, sess.lastSeen = peer, fd, now
	sess.ev = s.base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist, s.onReadable)
	s.sessions[peer] = sess
	s.byFD.Set(fd.Num, sess)
	if err := sess.ev.Add(0); err != nil {
		panic("dhtnode: registering a session socket: " + err.Error())
	}
	s.stats.Joins++
	s.pong(sess, peer)
}

// pong replies from the session's dedicated socket.
func (s *Server) pong(sess *session, to netsim.Addr) {
	if s.api.SendTo(sess.fd, to, s.cfg.PongSize) {
		s.stats.Pongs++
	}
}

// onSweep expires peers whose last ping is older than PeerTimeout, closing
// their sockets — the descriptor churn the fd-generation machinery absorbs.
// Victims close in ascending descriptor order so runs are deterministic.
func (s *Server) onSweep(_ int, _ eventlib.What, now core.Time) {
	var victims []*session
	for _, sess := range s.sessions {
		if now.Sub(sess.lastSeen) >= s.cfg.PeerTimeout {
			victims = append(victims, sess)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].fd.Num < victims[j].fd.Num })
	for _, sess := range victims {
		s.expire(sess)
	}
}

// expire tears one session down.
func (s *Server) expire(sess *session) {
	delete(s.sessions, sess.peer)
	s.byFD.Set(sess.fd.Num, nil)
	_ = sess.ev.Del()
	s.api.Close(sess.fd)
	s.stats.Expired++
	sess.fd, sess.ev = nil, nil
	s.free = append(s.free, sess)
}

// rescan recovers from a lost-notification condition (RT-signal queue
// overflow): read every socket once, well-known first, sessions in
// descriptor order.
func (s *Server) rescan(now core.Time) {
	s.drainMain(now)
	for fd := 0; fd < s.byFD.Len(); fd++ {
		if s.byFD.Get(fd) != nil {
			s.onReadable(fd, 0, now)
		}
	}
}
