package netsim

import (
	"unsafe"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simkernel"
)

// RefuseReason explains why a connection attempt failed.
type RefuseReason int

// Reasons a connection attempt can fail.
const (
	RefusedBacklog RefuseReason = iota // server accept queue full
	RefusedClosed                      // no listener / listener closed
	RefusedPorts                       // client ran out of ephemeral ports
	RefusedReset                       // connection reset before being served
)

// String names the refusal reason.
func (r RefuseReason) String() string {
	switch r {
	case RefusedBacklog:
		return "backlog-full"
	case RefusedClosed:
		return "listener-closed"
	case RefusedPorts:
		return "ports-exhausted"
	case RefusedReset:
		return "reset"
	default:
		return "unknown"
	}
}

// ConnState is the client's view of the connection lifecycle.
type ConnState uint8

// Client connection states.
const (
	StateConnecting ConnState = iota
	StateEstablished
	StateRefused
	StateClosed
)

// ConnHandler receives the client-side connection callbacks (Peer and
// DgramHandler are the datagram counterpart). The client host has unbounded CPU, so methods run exactly at
// the event's virtual time. Implementing the interface directly is the
// allocation-free path the load generator uses: one interface value per
// connection instead of a closure per callback; closure-based callers adapt
// with simtest.ConnHooks.
type ConnHandler interface {
	Connected(now core.Time)
	Refused(now core.Time, reason RefuseReason)
	Data(now core.Time, n int)
	PeerClosed(now core.Time)
}

// noopHandler stands in when a caller passes a nil handler.
type noopHandler struct{}

func (noopHandler) Connected(core.Time)             {}
func (noopHandler) Refused(core.Time, RefuseReason) {}
func (noopHandler) Data(core.Time, int)             {}
func (noopHandler) PeerClosed(core.Time)            {}

var sharedNoopHandler ConnHandler = noopHandler{}

// ConnectOptions parameterise one client connection.
type ConnectOptions struct {
	// RTT is the round-trip time between this client and the server; zero
	// selects the network's default (LAN) RTT. The paper's inactive clients
	// use a large RTT to model modem-attached users.
	RTT core.Duration
	// RecvWindow is the client's advertised receive window in bytes; zero
	// means unlimited (the paper's workload, where clients always drain).
	// With a finite window the server's writes only progress as fast as the
	// client application consumes: each delivered byte occupies the window
	// until the client reads it, and the window update travels half an RTT
	// back before the server sees POLLOUT again. It is held in 32 bits, so it
	// must stay below 2 GiB.
	RecvWindow int
	// StallReads makes the client application never consume delivered bytes:
	// the receive window, once filled, never reopens. Combined with a small
	// RecvWindow this is the classic stalled-reader (slow-read) adversary —
	// the server's response jams after RecvWindow bytes and the connection
	// occupies a descriptor, an interest-set entry and a blocked write until
	// the server's idle sweep gives up on it.
	StallReads bool
}

// ClientConn is the client-side endpoint of a simulated TCP connection. The
// facts both endpoints share — the network, the connection id, the RTT and
// the home lane — live once on the pair, which the endpoint is a field of.
type ClientConn struct {
	h ConnHandler

	recvWindow int32
	state      ConnState

	// fate is the fault plane's verdict for this connection, fixed at connect
	// time from the driver-assigned id (thread-count invariant); fateFired
	// records that the trigger has been pulled, vanished that the peer went
	// silent (its eventual Close releases the port without a FIN).
	fate      faults.ConnFate
	fateFired bool
	vanished  bool

	portHeld    bool
	peerClosed  bool
	closedLocal bool
	stallReads  bool
	// queued records that the SYN reached an accept queue: only then does
	// the pair's ServerConn half stand for a server endpoint.
	queued bool
	// released records the client owner's Release.
	released bool
}

// connPair holds both endpoints of one connection in a single allocation,
// the facts they share, and the bookkeeping that lets the pair be recycled
// for a later connection. Neither endpoint points at the pair: each finds it
// from its own address (see pair), so a held connection stores no word it
// can compute. A pair returns to its lane's free list once three
// things hold: both ends are closed (the server's descriptor closed, or the
// connection never reached an accept queue; the client closed, refused or saw
// the peer close), no scheduled connEvt still refers to it, and the client
// owner has called Release. Pairs never released — the inactive population,
// push members — are left to the collector.
type connPair struct {
	c  ClientConn
	sc ServerConn

	net *Network
	id  int64
	rtt core.Duration
	// q is the lane every event of this connection — client-side callbacks
	// included — executes on: the lane of the server process whose listener
	// the connection hashes to (the one lane of a sequential run).
	q simkernel.Q

	// inc is the incarnation: odd while the pair serves a connection, even
	// while it waits in a free list. Every connEvt is stamped with it when
	// scheduled and checked when it runs, so an event outliving its
	// connection panics instead of acting on the pair's next connection.
	inc uint32
	// pending counts the scheduled connEvts that refer to the pair.
	pending int32
}

// The endpoints' offsets within their pair.
const (
	cOffset  = unsafe.Offsetof(connPair{}.c)
	scOffset = unsafe.Offsetof(connPair{}.sc)
)

// pair returns the pair c is a field of: the address cOffset bytes before c,
// which lies in the same allocation. Every ClientConn lives in a connPair.
func (c *ClientConn) pair() *connPair {
	return (*connPair)(unsafe.Add(unsafe.Pointer(c), -int(cOffset)))
}

// pair returns the pair c is a field of: the address scOffset bytes before
// c, which lies in the same allocation. Every ServerConn lives in a connPair.
func (c *ServerConn) pair() *connPair {
	return (*connPair)(unsafe.Add(unsafe.Pointer(c), -int(scOffset)))
}

// newPair returns a recycled pair from the driver lane's free list, or a
// fresh one from the slab, stamped with a new (odd) incarnation.
func (n *Network) newPair() *connPair {
	var p *connPair
	free := n.pairs[0]
	if l := len(free); l > 0 {
		p = free[l-1]
		free[l-1] = nil
		n.pairs[0] = free[:l-1]
	} else {
		p = n.pairSlab.New()
	}
	p.inc++
	p.pending = 0
	return p
}

// live panics unless the pair is serving a connection: the incarnation check
// on a handle whose pair has gone back to a free list.
func (p *connPair) live() {
	if p.inc&1 == 0 {
		panic("netsim: connection used after its pair was recycled")
	}
}

// maybeRecycle returns the pair to the free list of its connection's lane
// once it is released, closed at both ends and referenced by no scheduled
// event.
func (p *connPair) maybeRecycle() {
	c := &p.c
	if p.inc&1 == 0 || !c.released || p.pending > 0 ||
		(c.state != StateClosed && c.state != StateRefused) ||
		(c.queued && !p.sc.closedLocal) {
		return
	}
	p.inc++
	lane := p.q.LaneIndex()
	p.net.pairs[lane] = append(p.net.pairs[lane], p)
}

// Release tells the network the owner is done with the connection and will
// make no further call on it. The owner must only release a connection that
// has closed on its side (Close, a refusal, or the peer's close), after which
// no callback reaches it. The endpoint pair is recycled for a later
// connection as soon as the server side is closed too and no delivery is in
// flight, so the handle must not be used again. Call it from code executing
// on the connection's own lane.
func (c *ClientConn) Release() {
	p := c.pair()
	p.live()
	c.released = true
	p.maybeRecycle()
}

// ConnectWith starts a connection attempt at virtual time now. The returned
// ClientConn reports progress through h (which may be nil for fire-and-forget
// connections). On a parallelized network it must be called from code
// executing on the driver lane: connection-id assignment and the port pool
// are driver-lane state.
func (n *Network) ConnectWith(now core.Time, opts ConnectOptions, h ConnHandler) *ClientConn {
	if h == nil {
		h = sharedNoopHandler
	}
	rtt := opts.RTT
	if rtt <= 0 {
		rtt = DefaultRTT
	}
	p := n.newPair()
	p.net, p.id, p.rtt, p.q = n, n.connID(), rtt, n.driverQ
	c := &p.c
	*c = ClientConn{
		h: h, state: StateConnecting,
		recvWindow: int32(opts.RecvWindow), stallReads: opts.StallReads,
	}
	if f := &n.K.Faults; f.ResetRate > 0 || f.VanishRate > 0 {
		c.fate = f.FateOf(p.id)
	}
	st := n.statsAt(n.driverQ)
	st.ConnAttempts++

	if !n.allocPort(now) {
		st.ConnPortFail++
		c.state = StateRefused
		// Port-refused connections stay homed on the driver lane: their one
		// and only callback fires right here, on the driver.
		n.driverQ.After(0, func(t core.Time) { h.Refused(t, RefusedPorts) })
		return c
	}
	c.portHeld = true

	// Home the connection: the listener choice is a pure function of the
	// connection id (Parallelize forbids round-robin sharding), so the home
	// lane can be resolved at launch, before the SYN travels.
	if n.parallel {
		if l := n.pickListener(p.id); l != nil && l.owner != nil {
			p.q = l.owner.Q()
		}
	}

	// SYN reaches the server half an RTT from now; the handshake completes (or
	// the refusal is learned) another half RTT later.
	n.schedule(n.driverQ, now.Add(rtt/2), evtSYN, p, 0, 0, nil)
	return c
}

// ID returns the connection's driver-assigned identifier.
func (c *ClientConn) ID() int64 { return c.pair().id }

// State reports the client's view of the connection.
func (c *ClientConn) State() ConnState { return c.state }

// Q returns the scheduling handle of the lane the connection is homed on (the
// one lane of a sequential run). Client-side callbacks execute
// on this lane; callers scheduling follow-up work against the connection
// (timeouts, think times) must target it.
func (c *ClientConn) Q() simkernel.Q { return c.pair().q }

// Handler returns the ConnHandler the connection reports to, so a client
// holding only the connection can reach its own per-connection state.
func (c *ClientConn) Handler() ConnHandler { return c.h }

// synArrive handles the SYN reaching the server host. It executes on the
// connection's home lane — the lane of the listener the id hashes to.
func (c *ClientConn) synArrive(t core.Time) {
	p := c.pair()
	n := p.net
	st := n.statsAt(p.q)
	// The sharding decision is made in the NIC/stack before the interrupt
	// is raised, so the SYN's interrupt cost lands on the CPU of the
	// worker whose accept queue receives the connection (IRQ steering).
	l := n.pickListener(p.id)
	var irq *simkernel.CPU
	if l != nil && l.owner != nil {
		irq = l.owner.CPU()
	}
	n.K.InterruptOn(irq, t, n.K.Cost.NetRxIRQ, nil)
	st.SegmentsRx++
	reason := RefusedClosed
	if l != nil {
		// The client's receive window is advertised in the handshake.
		sc := &p.sc
		*sc = ServerConn{owner: l.owner, sndWindow: c.recvWindow, sndAvail: c.recvWindow}
		if l.deliverSYN(t, sc) {
			c.queued = true
			st.ConnEstablished++
			n.schedule(p.q, t.Add(p.rtt/2), evtEstablished, p, 0, 0, nil)
			return
		}
		reason = RefusedBacklog
	}
	st.ConnRefused++
	n.schedule(p.q, t.Add(p.rtt/2), evtRefuse, p, 0, reason, nil)
}

// established completes the handshake on the client side.
func (c *ClientConn) established(t core.Time) {
	if c.state != StateConnecting {
		return
	}
	c.state = StateEstablished
	c.h.Connected(t)
}

// Send transmits request bytes toward the server at time now. Bytes arrive
// after half an RTT plus the link transmission delay and are buffered on the
// server connection until it reads them. The data slice is retained until
// the server has read it and must not be mutated by the caller in the
// meantime.
func (c *ClientConn) Send(now core.Time, data []byte) {
	p := c.pair()
	p.live()
	if c.state != StateEstablished && c.state != StateConnecting {
		return
	}
	if len(data) == 0 {
		return
	}
	switch c.fate {
	case faults.FateVanish:
		// The vanished peer's request never leaves its host: the server sees
		// an accepted connection that stays silent until the idle sweep.
		c.vanished = true
		return
	case faults.FateResetRequest:
		if !c.fateFired {
			c.fateFired = true
			// A deterministic fraction of the request escapes, then the RST
			// chases it down the same path so the server reads a truncated
			// request and then fails with ECONNRESET.
			cut := int(p.net.K.Faults.CutFraction(p.id) * float64(len(data)))
			if cut < 1 {
				cut = 1
			}
			if cut > len(data) {
				cut = len(data)
			}
			data = data[:cut:cut]
			arrival := now.Add(p.rtt / 2).Add(p.net.TransmitDelay(cut))
			p.net.schedule(p.q, arrival, evtDataToServer, p, 0, 0, data)
			c.abortWithReset(now, arrival)
		}
		return
	}
	arrival := now.Add(p.rtt / 2).Add(p.net.TransmitDelay(len(data)))
	p.net.schedule(p.q, arrival, evtDataToServer, p, 0, 0, data)
}

// abortWithReset tears the connection down from the client side with an RST
// that reaches the server at rstArrival, surfacing the abort to the client's
// handler as a reset. The ephemeral port is released immediately — a reset
// connection skips TIME-WAIT's FIN handshake bookkeeping on the sender.
func (c *ClientConn) abortWithReset(now core.Time, rstArrival core.Time) {
	if c.closedLocal {
		return
	}
	c.closedLocal = true
	c.state = StateClosed
	c.releasePort(now)
	if c.queued {
		p := c.pair()
		p.net.schedule(p.q, rstArrival, evtRSTToServer, p, 0, 0, nil)
	}
	c.h.Refused(now, RefusedReset)
}

// dataArriveServer delivers sent bytes to the server host.
func (c *ClientConn) dataArriveServer(t core.Time, data []byte) {
	if !c.queued {
		return
	}
	p := c.pair()
	sc, net := &p.sc, p.net
	st := net.statsAt(p.q)
	net.K.InterruptOn(sc.irqCPU(), t, net.K.Cost.NetRxIRQ, nil)
	st.SegmentsRx++
	st.BytesToServer += int64(len(data))
	sc.deliverData(t, data)
}

// Close closes the client end at time now; the FIN reaches the server half an
// RTT later. The client's ephemeral port enters TIME-WAIT.
func (c *ClientConn) Close(now core.Time) {
	p := c.pair()
	p.live()
	if c.closedLocal {
		return
	}
	c.closedLocal = true
	if c.state == StateEstablished || c.state == StateConnecting {
		c.state = StateClosed
	}
	p.net.statsAt(p.q).ClientCloses++
	c.releasePort(now)
	if !c.queued || c.vanished {
		// A vanished peer never announces the close: no FIN reaches the
		// server, which reclaims the connection only through its idle sweep.
		return
	}
	p.net.schedule(p.q, now.Add(p.rtt/2), evtFINToServer, p, 0, 0, nil)
}

// refuse finalises a failed connection attempt on the client side.
func (c *ClientConn) refuse(now core.Time, reason RefuseReason) {
	if c.state != StateConnecting {
		return
	}
	c.state = StateRefused
	c.releasePort(now)
	c.h.Refused(now, reason)
}

// dataArriveClient consumes delivered response bytes on the client host.
// A draining client (the normal case) consumes the bytes on arrival, and the
// window update announcing the freed space reaches the server half an RTT
// later; a stalled reader leaves the window occupied forever.
func (c *ClientConn) dataArriveClient(t core.Time, n int) {
	if c.closedLocal {
		return
	}
	p := c.pair()
	if c.fate == faults.FateResetResponse && !c.fateFired {
		// Mid-response reset: the first response bytes have arrived, more may
		// be in flight, and the client slams the connection shut. The server's
		// still-draining response fails with EPIPE when the RST lands.
		c.fateFired = true
		c.abortWithReset(t, t.Add(p.rtt/2))
		return
	}
	c.h.Data(t, n)
	if !c.stallReads && c.queued && p.sc.sndWindow > 0 {
		// The window update is an ACK segment: it costs the server an RX
		// interrupt like any other arriving segment.
		p.net.schedule(p.q, t.Add(p.rtt/2), evtWindowUpdate, p, n, 0, nil)
	}
}

// peerCloseArrive handles the server's FIN on the client host.
func (c *ClientConn) peerCloseArrive(t core.Time) {
	if c.peerClosed || c.closedLocal {
		return
	}
	c.peerClosed = true
	c.state = StateClosed
	c.releasePort(t)
	c.h.PeerClosed(t)
}

// scheduleReset aborts the connection from the server side (listener torn
// down, descriptor limit, ...), surfacing it to the client as a refusal. It
// executes on the server lane the connection is homed on.
func (c *ClientConn) scheduleReset(now core.Time) {
	p := c.pair()
	p.net.schedule(p.q, now.Add(p.rtt/2), evtReset, p, 0, 0, nil)
}

// resetArrive handles a server-side reset on the client host.
func (c *ClientConn) resetArrive(t core.Time) {
	if c.closedLocal || c.peerClosed {
		return
	}
	switch c.state {
	case StateConnecting:
		c.refuse(t, RefusedReset)
	case StateEstablished:
		c.state = StateClosed
		c.peerClosed = true
		c.releasePort(t)
		c.h.Refused(t, RefusedReset)
	}
}

// releasePort returns the client's ephemeral port to TIME-WAIT exactly once.
// On a parallelized network the port pool is driver-lane state, so the
// release travels to the driver as a cross-lane event deferred by the
// lookahead, carrying the absolute TIME-WAIT expiry computed from the true
// release instant. PortsAvailable is unaffected by the deferral: a port in
// flight still counts as in use, and in-use plus TIME-WAIT is exactly the sum
// a sequential run maintains (Parallelize refuses TimeWait below the
// lookahead, the one configuration where the expiry could precede delivery).
func (c *ClientConn) releasePort(now core.Time) {
	if !c.portHeld {
		return
	}
	c.portHeld = false
	q := c.pair().q
	n := c.pair().net
	if !n.parallel {
		n.releasePort(now)
		return
	}
	e := n.getEvt(q)
	e.kind, e.when, e.lane = evtPortRelease, now.Add(n.Cfg.TimeWait), 0
	q.Post(n.driverQ, now.Add(n.lookahead), e.fn)
}

// evtKind identifies what a pooled network event does when it fires.
type evtKind uint8

const (
	evtSYN          evtKind = iota // SYN reaches the server host
	evtEstablished                 // SYN-ACK reaches the client: handshake done
	evtRefuse                      // refusal reaches the client
	evtDataToServer                // request bytes reach the server host
	evtDataToClient                // response bytes reach the client host
	evtWindowUpdate                // window-update ACK reaches the server host
	evtPeerClose                   // server FIN reaches the client host
	evtFINToServer                 // client FIN reaches the server host
	evtReset                       // server reset reaches the client host
	evtRSTToServer                 // client RST reaches the server host (fault plane)
	evtXmit                        // server write leaves the host (batch completion)
	evtSrvClose                    // server close's FIN leaves the host (batch completion)
	evtPortRelease                 // deferred port release reaches the driver lane
)

// connEvt is one scheduled stream delivery. Records are pooled on the
// Network and each carries a callback bound once for its life, so the
// per-segment traffic of a run — the majority of all scheduled events —
// allocates nothing at steady state. The event's kind says which endpoint of
// pair it acts on. lane is the index of the lane the event executes on (its
// pool of recycle); when carries the absolute TIME-WAIT expiry of a deferred
// port release, the one kind without a pair. Datagram traffic has records of
// its own (dgramEvt).
type connEvt struct {
	net  *Network
	fn   func(now core.Time)
	pair *connPair // nil for a port release
	data []byte
	when core.Time

	inc    uint32 // pair's incarnation when the event was scheduled
	n      int32
	lane   int32
	kind   evtKind
	reason uint8 // a RefuseReason
}

// evtPool is one lane's free list of pooled event records in front of the
// slab that carves the records it lacks — the single home of the pool
// discipline. A record is taken from the scheduling lane's pool and returned
// to the executing lane's, so every pool and slab has exactly one touching
// goroutine per epoch.
type evtPool[T any] struct {
	free []*T
	slab core.Slab[T]
}

// get pops a recycled record, or carves a fresh one (fresh reports which, so
// the caller binds a fresh record's callback).
func (pl *evtPool[T]) get() (e *T, fresh bool) {
	if l := len(pl.free); l > 0 {
		e = pl.free[l-1]
		pl.free[l-1] = nil
		pl.free = pl.free[:l-1]
		return e, false
	}
	return pl.slab.New(), true
}

// put returns a record to the pool.
func (pl *evtPool[T]) put(e *T) { pl.free = append(pl.free, e) }

// getEvt pops a stream delivery record from the scheduling lane's pool.
func (n *Network) getEvt(src simkernel.Q) *connEvt {
	e, fresh := n.evts[src.LaneIndex()].get()
	if fresh {
		e.net = n
		e.fn = e.run
	}
	return e
}

// schedule books a pooled delivery event for the connection at the given
// instant, from code executing on src's lane, to execute on the connection's
// home lane. On a sequential run both are the one lane and this is a plain
// At.
func (n *Network) schedule(src simkernel.Q, at core.Time, kind evtKind, p *connPair, count int, reason RefuseReason, data []byte) {
	e := n.getEvt(src)
	e.kind, e.n, e.reason, e.data = kind, int32(count), uint8(reason), data
	e.lane = int32(p.q.LaneIndex())
	e.hold(p)
	src.Post(p.q, at, e.fn)
}

// hold stamps the event with its connection pair's incarnation and counts it
// against the pair, which cannot be recycled while the event is pending.
func (e *connEvt) hold(p *connPair) {
	p.live()
	p.pending++
	e.pair, e.inc = p, p.inc
}

// defer_ books a pooled delivery event as a deferred batch effect of the
// given process (the transmit side of server syscalls); it executes on the
// process's own lane at the batch's completion instant.
func (n *Network) defer_(proc *simkernel.Proc, kind evtKind, sc *ServerConn, count int) {
	e := n.getEvt(proc.Q())
	e.kind, e.n = kind, int32(count)
	e.lane = int32(proc.Q().LaneIndex())
	e.hold(sc.pair())
	proc.Defer(e.fn)
}

// run dispatches the event and recycles its record. The fields are extracted
// (and the record returned to the executing lane's pool) before the work
// runs, because the work itself may schedule and thus re-issue this very
// record. A connection event first checks its incarnation stamp, and keeps
// counting against its pair until the work is done, so a Release from inside
// a callback cannot recycle the pair under the code still running on it.
func (e *connEvt) run(t core.Time) {
	net, kind, p, n, reason, when, data := e.net, e.kind, e.pair, int(e.n), RefuseReason(e.reason), e.when, e.data
	if p != nil && p.inc != e.inc {
		panic("netsim: connection event outlived its connection: the pair was recycled")
	}
	e.data, e.pair = nil, nil
	net.evts[e.lane].put(e)
	if p == nil {
		// The one kind without a pair: a deferred port release on the
		// driver lane folds the port into TIME-WAIT at its original expiry.
		// Pushes stay monotonic because every release is deferred by the
		// same lookahead.
		if net.portsInUse > 0 {
			net.portsInUse--
			net.timewait.push(when)
		}
		return
	}
	c, sc := &p.c, &p.sc
	switch kind {
	case evtSYN:
		c.synArrive(t)
	case evtEstablished:
		c.established(t)
	case evtRefuse:
		c.refuse(t, reason)
	case evtDataToServer:
		c.dataArriveServer(t, data)
	case evtDataToClient:
		c.dataArriveClient(t, n)
	case evtWindowUpdate:
		net.K.InterruptOn(sc.irqCPU(), t, net.K.Cost.NetRxIRQ, nil)
		net.statsAt(p.q).SegmentsRx++
		sc.windowOpen(t, n)
	case evtPeerClose:
		c.peerCloseArrive(t)
	case evtFINToServer:
		net.K.InterruptOn(sc.irqCPU(), t, net.K.Cost.NetRxIRQ, nil)
		net.statsAt(p.q).SegmentsRx++
		sc.deliverFIN(t)
	case evtReset:
		c.resetArrive(t)
	case evtRSTToServer:
		net.K.InterruptOn(sc.irqCPU(), t, net.K.Cost.NetRxIRQ, nil)
		net.statsAt(p.q).SegmentsRx++
		sc.deliverRST(t)
	case evtXmit:
		arrival := t.Add(net.TransmitDelay(n)).Add(p.rtt / 2)
		if arrival < sc.lastDeliveryAt {
			arrival = sc.lastDeliveryAt
		}
		sc.lastDeliveryAt = arrival
		net.statsAt(p.q).BytesToClient += int64(n)
		net.schedule(p.q, arrival, evtDataToClient, p, n, 0, nil)
	case evtSrvClose:
		net.statsAt(p.q).ServerCloses++
		arrival := t.Add(p.rtt / 2)
		if arrival < sc.lastDeliveryAt {
			arrival = sc.lastDeliveryAt
		}
		sc.lastDeliveryAt = arrival
		net.schedule(p.q, arrival, evtPeerClose, p, 0, 0, nil)
	}
	p.pending--
	p.maybeRecycle()
}
