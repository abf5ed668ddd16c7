package loadgen

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/simkernel"
)

// This file holds the two non-request traffic families of the
// millions-mostly-idle regime: the server-push family (KindPush), where the
// server originates every measured byte, and the datagram churn family
// (KindDHTChurn), where a peer population joins and leaves a rendezvous node.
// Both reuse the generator's books (recordReply, recordError, the keep-alive
// resolution path), so their results read exactly like a request run's:
// Replies counts deliveries or pongs, Completed counts members or peer
// sessions, and the reply-rate samples feed the same figure machinery.

// pushSubscribe is the one message a push member sends: anything non-empty
// registers the connection in the server's member set.
var pushSubscribe = make([]byte, 16)

// dhtRendezvousAddr is the datagram address peers ping to join — the value of
// dhtnode.WellKnownAddr, restated here because the client deliberately does
// not import the server package (the generator tests pin the two against a
// real dhtnode).
const dhtRendezvousAddr netsim.Addr = 1

// startPush launches the member population for a server-push run. Members
// connect at Workload.MemberRate, subscribe and then go idle; measurement
// starts only once the full population is connected, so the delivery-rate
// samples and latency percentiles observe the steady interest-set size, not
// the ramp. The run ends after Config.Connections post-warmup deliveries.
func (g *Generator) startPush(now core.Time) {
	wl := g.cfg.Workload
	g.pushPayload = wl.PushPayload
	if g.pushPayload <= 0 {
		g.pushPayload = 512
	}
	memberRate := wl.MemberRate
	if memberRate <= 0 {
		memberRate = 50000
	}
	g.pushMembers = make([]*pushMember, 0, g.cfg.Connections)

	interval := core.Duration(float64(core.Second) / memberRate)
	g.driverQ.AtEach(g.steadyLaunches(now, now, interval), g.launchMember)
	// Measurement begins once the population is established (the paper's
	// procedure for its inactive load): deliveries the server initiates
	// during the ramp are delivered but not booked.
	g.started = now.Add(core.Duration(g.cfg.Connections) * interval).Add(400 * core.Millisecond)
}

// launchMember opens one member connection from the driver lane.
func (g *Generator) launchMember(now core.Time) {
	g.issued++
	m := g.memberSlab.New()
	m.gen = g
	m.conn = g.net.ConnectWith(now, netsim.ConnectOptions{}, m)
}

// PushDeliver books a server-initiated delivery: the push server's OnDeliver
// hook, called inside the server's batch at push initiation. The instant is
// queued against the member and becomes the latency anchor when the payload
// finishes arriving, so the measured latency spans eventlib arming, the write
// (including any window jam and drain) and the wire.
func (g *Generator) PushDeliver(now core.Time, sc *netsim.ServerConn) {
	if g.pushClosing {
		return
	}
	m, _ := sc.Peer().Handler().(*pushMember)
	if m == nil || m.resolved {
		return
	}
	switch {
	case !m.waiting:
		m.anchor, m.waiting = now, true
	case m.spill == nil:
		m.spill = &[]core.Time{now}
	default:
		*m.spill = append(*m.spill, now)
	}
}

// pushMember is one subscribed connection: it subscribes on connect, then
// only ever receives. It implements netsim.ConnHandler.
type pushMember struct {
	gen  *Generator
	conn *netsim.ClientConn
	// anchor is the initiation instant of the oldest delivery not yet
	// received, valid while waiting; spill holds the later ones in order.
	// Deliveries to one member seldom overlap (a few members in a run), so
	// nearly every member keeps a nil spill, and a pointer costs it 8 bytes
	// where a slice header would cost 24.
	anchor   core.Time
	spill    *[]core.Time
	received int32 // bytes received toward the oldest pending payload
	waiting  bool
	resolved bool
}

// Connected implements netsim.ConnHandler.
func (m *pushMember) Connected(now core.Time) {
	if m.resolved {
		return
	}
	g := m.gen
	if g.pushClosing {
		// The budget was reached while this member's SYN was in flight.
		m.resolved = true
		m.conn.Close(now)
		g.resolveKeepAlive(m.conn.Q(), now)
		return
	}
	g.pushMembers = append(g.pushMembers, m)
	m.conn.Send(now, pushSubscribe)
}

// Refused implements netsim.ConnHandler.
func (m *pushMember) Refused(now core.Time, reason netsim.RefuseReason) {
	if m.resolved {
		return
	}
	m.resolved = true
	switch reason {
	case netsim.RefusedPorts:
		m.gen.recordError(m.conn.Q(), ErrPortSpace, now)
	case netsim.RefusedReset:
		m.gen.recordError(m.conn.Q(), ErrReset, now)
	default:
		m.gen.recordError(m.conn.Q(), ErrRefused, now)
	}
}

// Data implements netsim.ConnHandler: payload boundaries are recognised by
// cumulative size, and each completed payload closes out the oldest pending
// delivery (the server skips a member whose previous push is still draining,
// so deliveries to one member seldom overlap).
func (m *pushMember) Data(now core.Time, n int) {
	g := m.gen
	if m.resolved || g.pushClosing {
		return
	}
	m.received += int32(n)
	for m.waiting && int(m.received) >= g.pushPayload {
		m.received -= int32(g.pushPayload)
		anchor := m.anchor
		if m.spill != nil && len(*m.spill) > 0 {
			// Shift within the backing array so the next overlap reuses it.
			q := *m.spill
			m.anchor = q[0]
			*m.spill = q[:copy(q, q[1:])]
		} else {
			m.waiting = false
		}
		if anchor < g.started {
			continue // warmup delivery: the population was still ramping
		}
		g.recordReply(m.conn.Q(), anchor, now)
		g.pushDone++
		if g.pushDone >= g.cfg.Connections {
			g.finishPush(m.conn.Q(), now)
			return
		}
	}
}

// PeerClosed implements netsim.ConnHandler: the server never closes a member
// mid-run, so an unexpected close is an error (server shutdown, reset).
func (m *pushMember) PeerClosed(now core.Time) {
	if m.resolved || m.gen.pushClosing {
		return
	}
	m.resolved = true
	m.gen.recordError(m.conn.Q(), ErrReset, now)
}

// finishPush ends the run once the delivery budget is spent. Every live
// member resolves as a completed connection at once: they all live on the
// executing lane q, so one update of that lane's books stands for the
// per-member resolutions. If that completes the run, nothing is torn down —
// once the generator is done it closes nothing, as with the inactive
// population, because the engine stops inside this event and no close could
// ever reach the server. Otherwise the run goes on (a member's SYN is still
// in flight, or a multi-lane run detects the end a barrier later), and every
// live member closes as a finished client would. Callbacks arriving after
// this point test pushClosing.
func (g *Generator) finishPush(q simkernel.Q, now core.Time) {
	g.pushClosing = true
	live := 0
	for _, m := range g.pushMembers {
		if !m.resolved {
			live++
		}
	}
	ln := &g.lanes[q.LaneIndex()]
	ln.completed += live
	ln.resolved += live
	ln.lastResolveAt = now
	g.resolvedOne()
	if g.done {
		return
	}
	for _, m := range g.pushMembers {
		if !m.resolved {
			m.conn.Close(now)
		}
	}
}

// startDHT launches the churning peer population. Peers join at
// Workload.ChurnRate; each pings the rendezvous address, then its dedicated
// session socket, every PingInterval until a quota of
// RequestRate/ChurnRate pongs is answered — so the steady-state ping rate is
// the configured request rate — and then leaves. Config.Connections counts
// peer sessions.
func (g *Generator) startDHT(now core.Time) {
	wl := g.cfg.Workload
	churn := wl.ChurnRate
	if churn <= 0 {
		churn = 100
	}
	g.dhtPingInterval = wl.PingInterval
	if g.dhtPingInterval <= 0 {
		g.dhtPingInterval = 500 * core.Millisecond
	}
	g.dhtPingSize = wl.PingSize
	if g.dhtPingSize <= 0 {
		g.dhtPingSize = 64
	}
	g.dhtQuota = int(g.cfg.RequestRate/churn + 0.5)
	if g.dhtQuota < 1 {
		g.dhtQuota = 1
	}

	g.started = now
	interval := core.Duration(float64(core.Second) / churn)
	g.driverQ.AtEach(g.steadyLaunches(now, now, interval), g.launchPeer)
}

// launchPeer joins one peer from the driver lane.
func (g *Generator) launchPeer(now core.Time) {
	g.issued++
	cp := &churnPeer{gen: g}
	cp.peer = g.net.NewPeer(now, netsim.PeerOptions{}, cp)
}

// churnPeer is one peer session: ping, await pong, repeat until the quota is
// met. It implements netsim.DgramHandler; every callback runs on the datagram
// home lane.
type churnPeer struct {
	gen      *Generator
	peer     *netsim.Peer
	session  netsim.Addr // learned from the first pong; 0 = ping the rendezvous
	ponged   int
	pingAt   core.Time // in-flight ping's dispatch; zero = none outstanding
	epoch    int       // invalidates stale watchdogs
	resolved bool
}

// Started implements netsim.DgramHandler.
func (cp *churnPeer) Started(now core.Time) {
	if cp.resolved || cp.gen.done {
		return
	}
	cp.ping(now)
}

// ping sends one datagram — to the session socket once one is known, to the
// rendezvous address otherwise — and arms the watchdog for it.
func (cp *churnPeer) ping(now core.Time) {
	g := cp.gen
	cp.pingAt = now
	cp.epoch++
	to := cp.session
	if to == 0 {
		to = dhtRendezvousAddr
	}
	cp.peer.SendTo(now, to, g.dhtPingSize)
	epoch := cp.epoch
	cp.peer.Q().At(now.Add(g.cfg.Profile.Timeout), func(t core.Time) { cp.onPingTimeout(t, epoch) })
}

// Datagram implements netsim.DgramHandler: a pong. The sender is the peer's
// session socket (on the first pong, how the peer learns it exists).
func (cp *churnPeer) Datagram(now core.Time, from netsim.Addr, _ int) {
	if cp.resolved || cp.pingAt == 0 {
		return // late or duplicate pong
	}
	g := cp.gen
	cp.session = from
	cp.ponged++
	g.recordReply(cp.peer.Q(), cp.pingAt, now)
	cp.pingAt = 0
	if cp.ponged >= g.dhtQuota {
		cp.resolved = true
		cp.peer.Close(now)
		g.resolveKeepAlive(cp.peer.Q(), now)
		return
	}
	cp.peer.Q().At(now.Add(g.dhtPingInterval), cp.nextPing)
}

func (cp *churnPeer) nextPing(now core.Time) {
	if cp.resolved || cp.gen.done {
		return
	}
	cp.ping(now)
}

// onPingTimeout fires when a ping's pong has not arrived within the client
// timeout. A session ping may have died with an expired session (the node's
// sweep closed it while the peer idled between pings), so the peer rejoins
// through the rendezvous address once; an unanswered rendezvous ping is a
// dead node and resolves the session as an error.
func (cp *churnPeer) onPingTimeout(now core.Time, epoch int) {
	if cp.resolved || cp.epoch != epoch || cp.pingAt == 0 {
		return
	}
	if cp.session != 0 {
		cp.session = 0
		cp.ping(now)
		return
	}
	cp.resolved = true
	cp.peer.Close(now)
	cp.gen.recordError(cp.peer.Q(), ErrTimeout, now)
}
