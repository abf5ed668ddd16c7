package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/simkernel"
)

// testDgramHooks adapts closures to DgramHandler for this package's tests,
// like testHooks does for ConnHandler.
type testDgramHooks struct {
	OnStarted  func(now core.Time)
	OnDatagram func(now core.Time, from Addr, size int)
}

func (h *testDgramHooks) Started(now core.Time) {
	if h.OnStarted != nil {
		h.OnStarted(now)
	}
}

func (h *testDgramHooks) Datagram(now core.Time, from Addr, size int) {
	if h.OnDatagram != nil {
		h.OnDatagram(now, from, size)
	}
}

// TestDatagramGenerationStress churns a bound socket's descriptor slot while
// datagrams are in flight toward it. Every round sends a burst at the live
// socket, closes and reopens the same address (recycling the descriptor slot
// under a new generation) before the burst lands, then sends a second burst
// at the reopened socket. The in-flight burst must die as stale — a datagram
// addressed to a dead generation may never leak into the unrelated socket
// that recycled the slot — and the post-reopen burst must arrive intact.
func TestDatagramGenerationStress(t *testing.T) {
	const (
		addr   Addr = 1
		rounds      = 50
		burst       = 8
		size        = 64
	)
	k := simkernel.NewKernel(nil)
	n := New(k, DefaultConfig())
	p := k.NewProc("server")
	api := NewSockAPI(k, p, n)

	var fd *simkernel.FD
	var sock *DgramSock
	p.Batch(0, func() { fd, sock = api.OpenDatagram(addr) }, nil)
	peer := n.NewPeer(0, PeerOptions{}, &testDgramHooks{})
	k.Sim.Run()

	received := 0
	for round := 0; round < rounds; round++ {
		// Burst A leaves now and lands half an RTT later — at a socket that
		// will be gone by then.
		now := k.Now()
		for i := 0; i < burst; i++ {
			peer.SendTo(now, addr, size)
		}

		// Close and reopen the same address in one batch, before burst A
		// arrives. The slot must actually recycle — same descriptor number,
		// newer generation — or the test would only exercise the missing-fd
		// path, not the stale-generation one.
		oldNum, oldGen := fd.Num, fd.Gen
		p.Batch(now, func() {
			api.Close(fd)
			fd, sock = api.OpenDatagram(addr)
		}, nil)
		k.Sim.Run()
		if fd.Num != oldNum || fd.Gen <= oldGen {
			t.Fatalf("round %d: reopen got fd %d gen %d, want recycled slot %d with gen > %d",
				round, fd.Num, fd.Gen, oldNum, oldGen)
		}

		// Burst B targets the reopened socket and must be delivered to it.
		now = k.Now()
		for i := 0; i < burst; i++ {
			peer.SendTo(now, addr, size)
		}
		k.Sim.Run()

		got := 0
		p.Batch(k.Now(), func() {
			for {
				from, sz, ok := api.RecvFrom(fd)
				if !ok {
					break
				}
				if from != peer.addr || sz != size {
					t.Errorf("round %d: datagram from %d size %d, want from %d size %d",
						round, from, sz, peer.addr, size)
				}
				got++
			}
		}, nil)
		k.Sim.Run()
		if got != burst {
			t.Fatalf("round %d: reopened socket received %d datagrams, want %d (stale leak or loss)",
				round, got, burst)
		}
		received += got
	}

	st := n.Stats()
	if st.DgramsStale != rounds*burst {
		t.Fatalf("DgramsStale = %d, want %d (every pre-reopen burst dies at the generation check)",
			st.DgramsStale, rounds*burst)
	}
	if st.DgramsDelivered != int64(received) || received != rounds*burst {
		t.Fatalf("delivered %d / received %d, want %d each", st.DgramsDelivered, received, rounds*burst)
	}
	if st.DgramsSent != 2*rounds*burst {
		t.Fatalf("DgramsSent = %d, want %d", st.DgramsSent, 2*rounds*burst)
	}
	if sock.Drops != 0 {
		t.Fatalf("socket counted %d buffer drops on an unloaded queue", sock.Drops)
	}
}

// TestDatagramConservationUnderChurn keeps churning the socket while bursts
// are in flight, and sends part of each burst to an unbound address: every
// sent datagram must be accounted exactly once — as delivered, as dropped, or
// as stale — and nothing may reach the application beyond what was delivered.
func TestDatagramConservationUnderChurn(t *testing.T) {
	const (
		addr    Addr = 1
		unbound Addr = 2
		rounds       = 40
		burst        = 16
	)
	k := simkernel.NewKernel(nil)
	n := New(k, DefaultConfig())
	p := k.NewProc("server")
	api := NewSockAPI(k, p, n)

	var fd *simkernel.FD
	p.Batch(0, func() { fd, _ = api.OpenDatagram(addr) }, nil)
	peer := n.NewPeer(0, PeerOptions{}, &testDgramHooks{})
	k.Sim.Run()

	received := 0
	for round := 0; round < rounds; round++ {
		now := k.Now()
		for i := 0; i < burst; i++ {
			to := addr
			if i%5 == 0 {
				to = unbound
			}
			peer.SendTo(now, to, 128)
		}
		// Churn the slot mid-flight on every other round.
		if round%2 == 1 {
			p.Batch(now, func() {
				api.Close(fd)
				fd, _ = api.OpenDatagram(addr)
			}, nil)
		}
		k.Sim.Run()
		p.Batch(k.Now(), func() {
			for {
				if _, _, ok := api.RecvFrom(fd); !ok {
					break
				}
				received++
			}
		}, nil)
		k.Sim.Run()
	}

	st := n.Stats()
	if st.DgramsSent != rounds*burst {
		t.Fatalf("DgramsSent = %d, want %d", st.DgramsSent, rounds*burst)
	}
	if st.DgramsDelivered+st.DgramsDropped+st.DgramsStale != st.DgramsSent {
		t.Fatalf("conservation broken: sent %d != delivered %d + dropped %d + stale %d",
			st.DgramsSent, st.DgramsDelivered, st.DgramsDropped, st.DgramsStale)
	}
	if st.DgramsStale == 0 {
		t.Fatal("no stale datagrams despite mid-flight close/reopen churn")
	}
	if st.DgramsDropped == 0 {
		t.Fatal("no drops despite sends to an unbound address")
	}
	if int64(received) != st.DgramsDelivered {
		t.Fatalf("application received %d datagrams, delivered %d — misdelivery or loss after delivery",
			received, st.DgramsDelivered)
	}
}
