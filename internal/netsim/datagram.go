package netsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/simkernel"
)

// Transport distinguishes the socket families netsim simulates.
type Transport int

// The two transports.
const (
	// Stream is connection-oriented TCP: ConnectOptions/ConnHandler on the
	// client side, Listener/ServerConn behind accept() on the server side.
	Stream Transport = iota
	// Datagram is connectionless UDP: OpenDatagram/SendTo/RecvFrom on the
	// server side, Peer on the client side, loss and reorder on the wire.
	Datagram
)

// String names the transport.
func (t Transport) String() string {
	if t == Datagram {
		return "dgram"
	}
	return "stream"
}

// Socket is the transport-generic face of a netsim endpoint: everything the
// simulation hands a consumer — stream connections on either end, datagram
// sockets, datagram peers — reports which transport it speaks and which lane
// its events execute on. The stream-specific surfaces (ConnectOptions,
// ConnHandler, SockAPI's accept/read/write) and the datagram-specific ones
// (OpenDatagram/SendTo/RecvFrom, DgramHandler) are specializations over this
// common shape, which is what a future real-kernel backend implements behind
// the same interface.
type Socket interface {
	// Transport reports the socket family.
	Transport() Transport
	// Q returns the scheduling handle of the lane the socket's events
	// execute on (the one lane of a sequential run).
	Q() simkernel.Q
}

// Compile-time checks: every consumer-facing endpoint is a Socket.
var (
	_ Socket = (*ClientConn)(nil)
	_ Socket = (*ServerConn)(nil)
	_ Socket = (*DgramSock)(nil)
	_ Socket = (*Peer)(nil)
)

// Addr identifies a datagram endpoint: positive addresses are server-side
// bound sockets (well-known services bind low addresses explicitly,
// OpenDatagram(0) auto-allocates from dgramAutoAddrBase up), negative
// addresses are client-side peers (assigned by NewPeer).
type Addr int

// dgramAutoAddrBase is the first auto-allocated server socket address;
// explicit binds must stay below it.
const dgramAutoAddrBase Addr = 1024

// dgram is one queued datagram on a bound socket's receive queue.
type dgram struct {
	from Addr
	size int
}

// dgramBind is one entry of the network's address→socket binding table. The
// sender captures the whole entry — descriptor number and generation included
// — when it hands a datagram to the network; the delivery checks the capture
// against the live descriptor table, so a datagram in flight across a
// close/reopen of the same descriptor slot is discarded as stale instead of
// leaking into the unrelated socket that recycled the number (the PR 3
// fd-generation machinery, extended to connectionless traffic).
type dgramBind struct {
	sock *DgramSock
	fdn  int
	gen  uint64
}

// DgramSock is a server-side bound datagram socket. It implements
// simkernel.File so it lives in the owning process's descriptor table and is
// pollable by every event mechanism: readable while datagrams are queued,
// always writable (UDP never blocks on a peer window).
type DgramSock struct {
	net   *Network
	owner *simkernel.Proc
	addr  Addr
	q     simkernel.Q

	rcvQ   []dgram
	closed bool

	notifier simkernel.Notifier

	// Drops counts datagrams discarded because the socket buffer was full.
	Drops int64
}

// Transport implements Socket.
func (s *DgramSock) Transport() Transport { return Datagram }

// Q implements Socket.
func (s *DgramSock) Q() simkernel.Q { return s.q }

// Addr returns the bound address.
func (s *DgramSock) Addr() Addr { return s.addr }

// Queued reports how many datagrams are waiting to be read.
func (s *DgramSock) Queued() int { return len(s.rcvQ) }

// Poll implements simkernel.File.
func (s *DgramSock) Poll() core.EventMask {
	if s.closed {
		return core.POLLNVAL
	}
	m := core.EventMask(core.POLLOUT)
	if len(s.rcvQ) > 0 {
		m |= core.POLLIN
	}
	return m
}

// SetNotifier implements simkernel.File.
func (s *DgramSock) SetNotifier(n simkernel.Notifier) { s.notifier = n }

// Close implements simkernel.File: the binding is removed, so datagrams
// already in flight toward it are dropped on arrival (as stale if the
// descriptor slot was recycled, as unroutable otherwise).
func (s *DgramSock) Close(now core.Time) {
	if s.closed {
		return
	}
	s.closed = true
	s.rcvQ = nil
	delete(s.net.dgramBinds, s.addr)
}

func (s *DgramSock) notify(now core.Time, mask core.EventMask) {
	if s.notifier != nil {
		s.notifier.Notify(now, mask)
	}
}

// dgramRcvQMax bounds a socket's receive queue, as SO_RCVBUF does: datagrams
// arriving past it are dropped and counted, never delivered late.
const dgramRcvQMax = 4096

// deliver queues an arriving datagram, raising POLLIN on empty→non-empty.
func (s *DgramSock) deliver(now core.Time, from Addr, size int) {
	if s.closed {
		return
	}
	if len(s.rcvQ) >= dgramRcvQMax {
		s.Drops++
		s.net.statsAt(s.q).DgramsDropped++
		return
	}
	s.rcvQ = append(s.rcvQ, dgram{from: from, size: size})
	if len(s.rcvQ) == 1 {
		s.notify(now, core.POLLIN)
	}
}

// dgramHomeQ resolves the datagram home lane, claiming it for process p when
// no datagram socket exists yet. All datagram state — bindings, peers, the
// loss sequence — is single-writer on this lane; a second server process on a
// different lane cannot join (that would split the writer), which mirrors
// Parallelize's refusal of configurations whose semantics need global order.
func (n *Network) dgramHomeQ(p *simkernel.Proc) simkernel.Q {
	if !n.dgramHomeSet {
		n.dgramHome = p.Q()
		n.dgramHomeSet = true
		return n.dgramHome
	}
	if n.parallel && p.Q().LaneIndex() != n.dgramHome.LaneIndex() {
		panic("netsim: datagram sockets from a second lane would split the home lane's single writer")
	}
	return n.dgramHome
}

// OpenDatagram creates a bound datagram socket for the calling process and
// installs it in the descriptor table. addr 0 auto-allocates an address;
// a well-known service passes its own (below dgramAutoAddrBase). Binding an
// address twice panics — it is a programming error, like EADDRINUSE without
// SO_REUSEADDR.
func (a *SockAPI) OpenDatagram(addr Addr) (*simkernel.FD, *DgramSock) {
	a.P.ChargeSyscall(a.K.Cost.Accept) // socket+bind lumped together
	q := a.Net.dgramHomeQ(a.P)
	if addr == 0 {
		addr = a.Net.nextDgramAddr
		a.Net.nextDgramAddr++
	} else if addr >= dgramAutoAddrBase {
		panic(fmt.Sprintf("netsim: explicit datagram addr %d collides with the auto-allocated range", addr))
	}
	if _, taken := a.Net.dgramBinds[addr]; taken {
		panic(fmt.Sprintf("netsim: datagram addr %d already bound", addr))
	}
	s := &DgramSock{net: a.Net, owner: a.P, addr: addr, q: q}
	fd := a.P.Install(s)
	a.Net.dgramBinds[addr] = &dgramBind{sock: s, fdn: fd.Num, gen: fd.Gen}
	return fd, s
}

// SendTo queues one size-byte datagram toward the peer at to, charging the
// per-datagram syscall and copy cost. Like stream writes, the externally
// visible transmission is deferred to the current batch's completion instant;
// routing, loss and reordering are resolved there. The return value reports
// only that the local send succeeded — UDP gives no delivery feedback.
func (a *SockAPI) SendTo(fd *simkernel.FD, to Addr, size int) bool {
	a.P.ChargeSyscall(a.K.Cost.DgramSendCost(size))
	s, isDgram := fd.File().(*DgramSock)
	if !isDgram || fd.Closed() || s.closed || size <= 0 {
		return false
	}
	n := a.Net
	e := n.getEvt(a.P.Q())
	e.kind, e.ds, e.addr, e.n = evtDgramXmit, s, to, size
	e.lane = a.P.Q().LaneIndex()
	a.P.Defer(e.fn)
	return true
}

// RecvFrom dequeues the oldest datagram from the socket, charging the
// per-datagram receive cost. ok is false when the queue is empty (EAGAIN).
func (a *SockAPI) RecvFrom(fd *simkernel.FD) (from Addr, size int, ok bool) {
	a.P.ChargeSyscall(a.K.Cost.DgramRecv)
	s, isDgram := fd.File().(*DgramSock)
	if !isDgram || fd.Closed() || len(s.rcvQ) == 0 {
		return 0, 0, false
	}
	d := s.rcvQ[0]
	s.rcvQ = s.rcvQ[1:]
	if len(s.rcvQ) == 0 {
		s.rcvQ = nil
	}
	return d.from, d.size, true
}

// DgramHandler receives a Peer's callbacks. The client host has unbounded
// CPU, so methods run exactly at the event's virtual time, on the datagram
// home lane.
type DgramHandler interface {
	// Started fires once the peer is routable: its address is registered and
	// datagrams can flow both ways.
	Started(now core.Time)
	// Datagram delivers one arriving datagram.
	Datagram(now core.Time, from Addr, size int)
}

// PeerOptions parameterise one datagram peer.
type PeerOptions struct {
	// RTT is the round-trip time between this peer and the server; zero
	// selects the network's default (LAN) RTT.
	RTT core.Duration
}

// Peer is a client-host datagram endpoint — one DHT node, one NAT'd P2P
// client. It is the datagram counterpart of ClientConn: no kernel CPU is
// charged for its actions, and all its callbacks execute on the datagram home
// lane.
type Peer struct {
	net    *Network
	ID     int64
	addr   Addr
	rtt    core.Duration
	h      DgramHandler
	closed bool
}

// Transport implements Socket.
func (p *Peer) Transport() Transport { return Datagram }

// Q implements Socket: the datagram home lane, where every callback of every
// peer executes.
func (p *Peer) Q() simkernel.Q { return p.net.dgramHome }

// Addr returns the peer's address, the from seen by the server's RecvFrom.
func (p *Peer) Addr() Addr { return p.addr }

// RTT returns the peer's round-trip time.
func (p *Peer) RTT() core.Duration { return p.rtt }

// NewPeer creates a datagram peer at virtual time now. Like ConnectWith it
// must be called from driver-lane code on a parallelized network (peer-id
// assignment is driver state); the peer becomes routable — and h.Started
// fires, on the datagram home lane — half an RTT later, the one cross-lane
// hop a peer's lifetime needs.
func (n *Network) NewPeer(now core.Time, opts PeerOptions, h DgramHandler) *Peer {
	rtt := opts.RTT
	if rtt <= 0 {
		rtt = n.Cfg.DefaultRTT
	}
	p := &Peer{net: n, ID: n.connID(), rtt: rtt, h: h}
	p.addr = Addr(-p.ID)
	e := n.getEvt(n.driverQ)
	e.kind, e.peer = evtPeerStart, p
	e.lane = n.dgramHome.LaneIndex()
	n.driverQ.Post(n.dgramHome, now.Add(rtt/2), e.fn)
	return p
}

// peerStart registers the peer on the home lane and announces it.
func (p *Peer) peerStart(t core.Time) {
	if p.closed {
		return
	}
	p.net.peerAddrs[p.addr] = p
	p.h.Started(t)
}

// SendTo hands one size-byte datagram to the network, addressed to a bound
// server socket (or another peer). It must be called from code executing on
// the datagram home lane — a Started/Datagram callback or work scheduled on
// Q(). The destination binding, with its descriptor generation, is captured
// here: what the datagram arrives at is whatever that capture still resolves
// to, exactly like a real packet in flight.
func (p *Peer) SendTo(now core.Time, to Addr, size int) {
	if p.closed || size <= 0 {
		return
	}
	n := p.net
	st := n.statsAt(n.dgramHome)
	st.DgramsSent++
	delay, lost := n.dgramWire(size, p.rtt)
	if lost {
		st.DgramsDropped++
		return
	}
	if b, okB := n.dgramBinds[to]; okB {
		e := n.getEvt(n.dgramHome)
		e.kind, e.ds, e.addr, e.n = evtDgramToServer, b.sock, p.addr, size
		e.fdn, e.gen = b.fdn, b.gen
		e.lane = n.dgramHome.LaneIndex()
		n.dgramHome.Post(n.dgramHome, now.Add(delay), e.fn)
		return
	}
	if q, okP := n.peerAddrs[to]; okP {
		n.scheduleDgramToPeer(now.Add(delay), q, p.addr, size)
		return
	}
	st.DgramsDropped++ // unroutable: no ICMP in this network
}

// Close withdraws the peer: its address stops routing and in-flight datagrams
// toward it are dropped on arrival. Home-lane code only, like SendTo.
func (p *Peer) Close(now core.Time) {
	if p.closed {
		return
	}
	p.closed = true
	delete(p.net.peerAddrs, p.addr)
}

// scheduleDgramToPeer books a delivery to a peer endpoint (home lane).
func (n *Network) scheduleDgramToPeer(at core.Time, p *Peer, from Addr, size int) {
	e := n.getEvt(n.dgramHome)
	e.kind, e.peer, e.addr, e.n = evtDgramToPeer, p, from, size
	e.lane = n.dgramHome.LaneIndex()
	n.dgramHome.Post(n.dgramHome, at, e.fn)
}

// splitmix64 is the 64-bit finalizer the loss/reorder decisions hash the send
// sequence through: stateless, deterministic and independent of Go's RNG.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dgramWire decides one datagram's fate on the wire — loss, and otherwise its
// one-way delay (half an RTT plus serialisation, plus an extra half-RTT when
// the reorder knob fires). It consumes one step of the home-lane loss
// sequence, so the decisions are a pure function of send order.
func (n *Network) dgramWire(size int, rtt core.Duration) (delay core.Duration, lost bool) {
	delay = rtt/2 + n.TransmitDelay(size)
	seq := n.dgramSeq
	n.dgramSeq++
	if n.Cfg.DgramLossRate > 0 {
		u := float64(splitmix64(seq)>>11) / float64(1<<53)
		if u < n.Cfg.DgramLossRate {
			return 0, true
		}
	}
	if n.Cfg.DgramReorderRate > 0 {
		u := float64(splitmix64(seq^0xdeadbeefcafef00d)>>11) / float64(1<<53)
		if u < n.Cfg.DgramReorderRate {
			delay += rtt / 2
		}
	}
	return delay, false
}

// dispatchDgram routes a datagram-family pooled event (see connEvt.run).
func (e *connEvt) dispatchDgram(t core.Time) {
	switch e.kind {
	case evtDgramToServer:
		e.dgramArriveServer(t)
	case evtDgramToPeer:
		n := e.net
		st := n.statsAt(n.dgramHome)
		if e.peer.closed {
			st.DgramsDropped++
			return
		}
		st.DgramsDelivered++
		e.peer.h.Datagram(t, e.addr, e.n)
	case evtDgramXmit:
		e.dgramXmit(t)
	case evtPeerStart:
		e.peer.peerStart(t)
	}
}

// dgramArriveServer is the arrival half of a peer→server send: the IRQ and
// demux charge, then the fd-generation check before delivery. The check is
// the datagram mirror of the stream path's stale-readiness defence: the
// capture taken at send time must still resolve to the same descriptor
// generation and the same socket, or the datagram dies here as stale.
func (e *connEvt) dgramArriveServer(t core.Time) {
	n, s := e.net, e.ds
	st := n.statsAt(n.dgramHome)
	n.K.InterruptOn(s.owner.CPU(), t, n.K.Cost.NetRxIRQ+n.K.Cost.DgramDemux, nil)
	st.SegmentsRx++
	fd, ok := s.owner.Get(e.fdn)
	if !ok || fd.Gen != e.gen || fd.File() != simkernel.File(s) || s.closed {
		st.DgramsStale++
		return
	}
	st.DgramsDelivered++
	s.deliver(t, e.addr, e.n)
}

// dgramXmit is the deferred batch effect of a server SendTo: the datagram
// leaves the host at the batch's completion instant, and routing happens now,
// against the tables as they stand when the packet hits the wire.
func (e *connEvt) dgramXmit(t core.Time) {
	n, s := e.net, e.ds
	st := n.statsAt(n.dgramHome)
	st.DgramsSent++
	if p, okP := n.peerAddrs[e.addr]; okP {
		delay, lost := n.dgramWire(e.n, p.rtt)
		if lost {
			st.DgramsDropped++
			return
		}
		n.scheduleDgramToPeer(t.Add(delay), p, s.addr, e.n)
		return
	}
	if b, okB := n.dgramBinds[e.addr]; okB && b.sock != s {
		// Server→server loopback between two bound sockets (a DHT node
		// talking to a sibling service) travels the default LAN RTT.
		delay, lost := n.dgramWire(e.n, n.Cfg.DefaultRTT)
		if lost {
			st.DgramsDropped++
			return
		}
		e2 := n.getEvt(n.dgramHome)
		e2.kind, e2.ds, e2.addr, e2.n = evtDgramToServer, b.sock, s.addr, e.n
		e2.fdn, e2.gen = b.fdn, b.gen
		e2.lane = n.dgramHome.LaneIndex()
		n.dgramHome.Post(n.dgramHome, t.Add(delay), e2.fn)
		return
	}
	st.DgramsDropped++
}
