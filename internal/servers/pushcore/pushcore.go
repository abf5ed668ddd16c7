// Package pushcore is a lightweight server-push daemon — the WebSocket/chat
// shape of the millions-mostly-idle regime. Clients connect once, send a
// small subscribe message and then go silent for the whole run; the *server*
// originates all subsequent traffic, fanning a payload out to a random member
// set on every virtual-time tick. At any instant almost every connection is
// idle, so what the run measures is pure interest-set bookkeeping: the event
// mechanism holds every member readable-registered (plus write interest for
// the occasional jammed push), and the paper's mechanisms separate on how
// much that registration costs per tick, not on request throughput.
//
// The server reuses the eventlib backend registry, so it runs unchanged on
// stock poll, /dev/poll, RT signals, epoll (either trigger mode) and the
// completion ring. It deliberately does not reuse httpcore: the subscribe
// exchange is not HTTP, and the per-connection state is three words: the
// descriptor, its registered event, and two 32-bit counters.
package pushcore

import (
	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/netsim"
	"repro/internal/rtsig"
	"repro/internal/simkernel"
)

// SubscribeSize is the size of the client's one subscribe message in bytes.
const SubscribeSize = 16

// Config parameterises a pushcore instance.
type Config struct {
	// Backend names the eventlib backend ("poll", "devpoll", "epoll",
	// "epoll-et", "rtsig", "compio"); empty selects stock poll().
	Backend string
	// FanoutSize is how many members one tick pushes to (sampled with
	// replacement from the member set).
	FanoutSize int
	// Payload is the pushed message size in bytes.
	Payload int
	// TickInterval is the virtual-time period of the fan-out tick.
	TickInterval core.Duration
	// Seed drives the deterministic member sampling.
	Seed uint64
}

// DefaultConfig returns a small-chat shape: 6 KB-free 512-byte payloads to 32
// members every 10 ms on stock poll.
func DefaultConfig() Config {
	return Config{
		Backend:      "poll",
		FanoutSize:   32,
		Payload:      512,
		TickInterval: 10 * core.Millisecond,
	}
}

// Stats tallies the push server's application events.
type Stats struct {
	Accepted   int64 // connections accepted
	Subscribed int64 // members registered (subscribe message seen)
	Ticks      int64 // fan-out ticks fired
	Pushed     int64 // pushes initiated (deliveries owed to clients)
	PushBusy   int64 // pushes skipped: the member's previous push still draining
	WriteBlock int64 // pushes that jammed against the peer window
	BytesSent  int64
	Closed     int64
}

// conn is the per-connection state: a descriptor (whose file is the
// connection's netsim.ServerConn), its registered event and the draining
// state of an in-flight push.
type conn struct {
	fd  *simkernel.FD
	ev  *eventlib.Event
	idx int32 // index in members, -1 before the subscribe
	// pending is how many push bytes the socket has not yet accepted; while
	// positive the descriptor holds read+write interest.
	pending int32
}

// tickSlot is one sampled member of a tick, resolved before any push: its
// conn (nil when the descriptor is gone) and the conn's netsim.ServerConn.
type tickSlot struct {
	c  *conn
	sc *netsim.ServerConn
}

// Server is a running pushcore instance inside the simulation.
type Server struct {
	K *simkernel.Kernel
	P *simkernel.Proc

	cfg       Config
	api       *netsim.SockAPI
	base      *eventlib.Base
	edgeStyle bool
	lfd       *simkernel.FD

	conns    core.Paged[*conn] // fd-indexed; nil = closed
	members  core.Paged[int32] // fd numbers of subscribed members, [0, nmembers)
	nmembers int
	free     []*conn
	slab     core.Slab[conn] // fresh conns: members are held for the whole run

	tick   *eventlib.Event
	tickNo uint64
	// slots is the tick's scratch, FanoutSize long and reused every tick:
	// the resolve pass fills it, the push pass reads it.
	slots []tickSlot

	// connReadyFn is connReady bound once, so registering a connection's
	// event does not build a fresh method value per connection.
	connReadyFn eventlib.Callback

	stats Stats

	// OnDeliver, when non-nil, is called (inside the batch) for every push
	// initiated: the member's connection and the tick instant the payload
	// belongs to. The load generator anchors delivery latency here.
	OnDeliver func(now core.Time, sc *netsim.ServerConn)

	started bool
}

// New creates a pushcore instance bound to the kernel and network.
func New(k *simkernel.Kernel, net *netsim.Network, cfg Config) *Server {
	if cfg.Backend == "" {
		cfg.Backend = "poll"
	}
	if cfg.FanoutSize <= 0 {
		cfg.FanoutSize = 32
	}
	if cfg.Payload <= 0 {
		cfg.Payload = 512
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 10 * core.Millisecond
	}
	p := k.NewProc("pushcore")
	api := netsim.NewSockAPI(k, p, net)
	s := &Server{K: k, P: p, cfg: cfg, api: api, slots: make([]tickSlot, cfg.FanoutSize)}

	poller, backend, err := eventlib.OpenBackend(k, p, cfg.Backend)
	if err != nil {
		panic("pushcore: " + err.Error())
	}
	s.base = eventlib.NewWithPoller(k, p, poller, eventlib.Config{
		LoopCost: k.Cost.ServerLoopOverhead,
	})
	s.edgeStyle = backend.EdgeStyle
	s.connReadyFn = s.connReady
	return s
}

// Start opens the listening socket, arms the fan-out tick and starts
// dispatching. It may be called once.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	s.P.Batch(s.K.Now(), func() {
		s.lfd, _ = s.api.Listen()
		acc := s.base.NewEvent(s.lfd.Num, eventlib.EvRead|eventlib.EvPersist, s.onAcceptable)
		if err := acc.Add(0); err != nil {
			panic("pushcore: registering the listener: " + err.Error())
		}
		s.tick = s.base.NewTimer(eventlib.EvPersist, s.onTick)
		if err := s.tick.Add(s.cfg.TickInterval); err != nil {
			panic("pushcore: arming the tick: " + err.Error())
		}
		if q, ok := s.base.Poller().(*rtsig.Queue); ok {
			ovf := s.base.NewEvent(rtsig.OverflowFD, eventlib.EvSignal|eventlib.EvPersist,
				func(_ int, _ eventlib.What, now core.Time) {
					q.Recover()
					s.rescan(now)
				})
			if err := ovf.Add(0); err != nil {
				panic("pushcore: arming the overflow event: " + err.Error())
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

// Members reports the current member count (the interest-set size).
func (s *Server) Members() int { return s.nmembers }

// Poller exposes the event mechanism (for experiment statistics).
func (s *Server) Poller() core.Poller { return s.base.Poller() }

// Loops counts completed event-loop iterations.
func (s *Server) Loops() int64 { return s.base.Iterations() }

// onAcceptable drains the accept queue, registering a persistent read event
// per new connection. Edge-style backends read each freshly accepted
// connection once: a subscribe that arrived before registration produces no
// further transition.
func (s *Server) onAcceptable(_ int, _ eventlib.What, now core.Time) {
	for {
		fd, _, err := s.api.Accept(s.lfd)
		if err != nil {
			return
		}
		s.stats.Accepted++
		var c *conn
		if n := len(s.free); n > 0 {
			c = s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
		} else {
			c = s.slab.New()
		}
		c.fd, c.idx, c.pending = fd, -1, 0
		c.ev = s.base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist, s.connReadyFn)
		s.conns.Set(fd.Num, c)
		_ = c.ev.Add(0)
		if s.edgeStyle {
			s.readConn(now, c)
		}
	}
}

// connReady is the shared per-connection callback; write readiness first, as
// draining a jammed push may close the connection.
func (s *Server) connReady(fd int, what eventlib.What, now core.Time) {
	c := s.conns.Get(fd) // nil when unknown (stale events)
	if c == nil {
		return
	}
	if what.Has(eventlib.EvWrite) {
		s.drain(now, c)
		if s.conns.Get(fd) != c {
			return
		}
	}
	if what.Has(eventlib.EvRead) {
		s.readConn(now, c)
	}
}

// readConn consumes whatever the member sent: the subscribe message on a
// fresh connection (anything after it is ignored — members are idle by
// protocol), and the FIN when the client leaves at the end of the run.
func (s *Server) readConn(now core.Time, c *conn) {
	data, eof := s.api.Read(c.fd, 0)
	if len(data) > 0 && c.idx < 0 {
		c.idx = int32(s.nmembers)
		s.members.Set(s.nmembers, int32(c.fd.Num))
		s.nmembers++
		s.stats.Subscribed++
	}
	if eof {
		s.closeConn(c)
	}
}

// onTick fans the payload out to FanoutSize members sampled with replacement
// from the member set. The sampling hashes (seed, tick, slot) through
// splitmix64, so it is a pure function of the configuration — identical runs
// push to identical members, on any thread count.
//
// The tick runs in two passes. The resolve pass only reads the member set:
// for every slot it loads the member's conn, the conn's descriptor and the
// descriptor's ServerConn, each of them likely a cache miss on a large member
// set, and with no push in between the CPU overlaps the misses of successive
// slots.
// The push pass then visits the slots in order. The busy test stays there:
// a member drawn twice in one tick is skipped the second time only if its
// first push jammed, which the resolve pass cannot know yet.
func (s *Server) onTick(_ int, _ eventlib.What, now core.Time) {
	s.stats.Ticks++
	m := s.nmembers
	if m == 0 {
		return
	}
	for i := range s.slots {
		h := Mix(s.cfg.Seed ^ (s.tickNo*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9))
		sl := &s.slots[i]
		sl.c = s.conns.Get(int(s.members.Get(int(h % uint64(m)))))
		if sl.c != nil {
			sl.sc = sl.c.fd.File().(*netsim.ServerConn)
		}
	}
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.c == nil {
			continue
		}
		if sl.c.pending > 0 {
			// The member's previous push is still draining: skip rather than
			// queue unboundedly behind a slow consumer.
			s.stats.PushBusy++
			continue
		}
		s.push(now, sl.c, sl.sc)
	}
	s.tickNo++
}

// push writes one payload to a member, whose ServerConn the tick has already
// resolved, parking the remainder on write interest when the peer's receive
// window jams it.
func (s *Server) push(now core.Time, c *conn, sc *netsim.ServerConn) {
	s.stats.Pushed++
	if s.OnDeliver != nil {
		s.OnDeliver(now, sc)
	}
	wrote := s.api.Write(c.fd, s.cfg.Payload)
	s.stats.BytesSent += int64(wrote)
	if wrote >= s.cfg.Payload {
		return
	}
	c.pending = int32(s.cfg.Payload - wrote)
	s.stats.WriteBlock++
	// Upgrade to read+write interest (one event per descriptor, so the read
	// event is replaced — epoll_ctl(MOD) in a real server).
	_ = c.ev.Del()
	c.ev.Release()
	c.ev = s.base.NewEvent(c.fd.Num, eventlib.EvRead|eventlib.EvWrite|eventlib.EvPersist, s.connReadyFn)
	_ = c.ev.Add(0)
}

// drain retries a jammed push; once it clears, the descriptor downgrades back
// to read-only interest.
func (s *Server) drain(now core.Time, c *conn) {
	if c.pending <= 0 {
		return
	}
	wrote := s.api.Write(c.fd, int(c.pending))
	s.stats.BytesSent += int64(wrote)
	c.pending -= int32(wrote)
	if c.pending > 0 {
		return
	}
	_ = c.ev.Del()
	c.ev.Release()
	c.ev = s.base.NewEvent(c.fd.Num, eventlib.EvRead|eventlib.EvPersist, s.connReadyFn)
	_ = c.ev.Add(0)
}

// closeConn tears down a connection, swap-removing it from the member set.
func (s *Server) closeConn(c *conn) {
	if s.conns.Get(c.fd.Num) != c {
		return
	}
	s.conns.Set(c.fd.Num, nil)
	_ = c.ev.Del()
	c.ev.Release()
	if c.idx >= 0 {
		s.nmembers--
		last := s.nmembers
		moved := s.members.Get(last)
		s.members.Set(int(c.idx), moved)
		if int(c.idx) <= last-1 {
			if mc := s.conns.Get(int(moved)); mc != nil {
				mc.idx = c.idx
			}
		}
		c.idx = -1
	}
	s.api.Close(c.fd)
	s.stats.Closed++
	c.fd, c.ev = nil, nil
	s.free = append(s.free, c)
}

// rescan recovers from a lost-notification condition (RT-signal queue
// overflow): drain the accept queue, retry every jammed push and read every
// open connection once.
func (s *Server) rescan(now core.Time) {
	s.onAcceptable(0, 0, now)
	for fd := 0; fd < s.conns.Len(); fd++ {
		c := s.conns.Get(fd)
		if c == nil {
			continue
		}
		s.drain(now, c)
		if s.conns.Get(fd) == c {
			s.readConn(now, c)
		}
	}
}

// Mix is the splitmix64 finalizer the tick sampling uses; exported so the
// load generator and tests can reproduce the sampling sequence.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
