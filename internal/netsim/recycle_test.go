package netsim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simkernel"
)

// serveOne runs one full HTTP/1.0-shaped exchange on a fresh connection:
// connect, send, accept, read, write, close. It returns the client handle
// and the bytes the client received.
func serveOne(t *testing.T, k *simkernel.Kernel, n *Network, p *simkernel.Proc, api *SockAPI, lfd *simkernel.FD) (*ClientConn, *int) {
	t.Helper()
	got := new(int)
	cc := n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{
		OnConnected: func(now core.Time) {},
		OnData:      func(now core.Time, b int) { *got += b },
	})
	k.Sim.Run()
	cc.Send(k.Now(), make([]byte, 100))
	k.Sim.Run()
	p.Batch(k.Now(), func() {
		fd, _, err := api.Accept(lfd)
		if err != nil {
			t.Fatalf("Accept: %v", err)
		}
		if data, _ := api.Read(fd, 0); len(data) != 100 {
			t.Fatalf("Read %d bytes", len(data))
		}
		api.Write(fd, 6*1024)
		api.Close(fd)
	}, nil)
	k.Sim.Run()
	if cc.State() != StateClosed || *got != 6*1024 {
		t.Fatalf("exchange: state %v, %d bytes", cc.State(), *got)
	}
	return cc, got
}

// A released connection's endpoint pair is recycled once both ends are
// closed and nothing is in flight, and the next connection reuses it with
// fresh state.
func TestPairRecycledAfterRelease(t *testing.T) {
	k, n, p, api, lfd, _ := testbed(t, DefaultConfig())
	first, _ := serveOne(t, k, n, p, api, lfd)
	if len(n.pairs[0]) != 0 {
		t.Fatal("pair recycled before its owner released it")
	}
	first.Release()
	if len(n.pairs[0]) != 1 {
		t.Fatalf("free pairs = %d after release, want 1", len(n.pairs[0]))
	}
	second, got := serveOne(t, k, n, p, api, lfd)
	if second != first {
		t.Fatal("the second connection did not reuse the recycled pair")
	}
	if second.ID() != 2 || *got != 6*1024 {
		t.Fatalf("reused pair carried stale state: id %d, received %d", second.ID(), *got)
	}
}

// Releasing before the server has closed its end defers the recycle until the
// server's close and the FIN it sends have both run their course.
func TestPairWaitsForServerClose(t *testing.T) {
	k, n, p, api, lfd, _ := testbed(t, DefaultConfig())
	cc := n.ConnectWith(k.Now(), ConnectOptions{}, nil)
	k.Sim.Run()
	var fd *simkernel.FD
	p.Batch(k.Now(), func() { fd, _, _ = api.Accept(lfd) }, nil)
	k.Sim.Run()
	cc.Close(k.Now())
	cc.Release()
	k.Sim.Run()
	if len(n.pairs[0]) != 0 {
		t.Fatal("pair recycled while the server still held the connection open")
	}
	p.Batch(k.Now(), func() { api.Close(fd) }, nil)
	if len(n.pairs[0]) != 0 {
		t.Fatal("pair recycled with the server's FIN still in flight")
	}
	k.Sim.Run()
	if len(n.pairs[0]) != 1 {
		t.Fatalf("free pairs = %d once both ends closed, want 1", len(n.pairs[0]))
	}
}

// mustPanic runs fn and fails unless it panics with a message naming the
// recycled pair.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", what)
		}
		if msg, _ := r.(string); !strings.Contains(msg, "recycled") {
			t.Fatalf("%s: panic %v does not name the recycled pair", what, r)
		}
	}()
	fn()
}

// A handle kept past its pair's recycle fails the incarnation check instead
// of acting on whichever connection the pair serves next.
func TestRecycledConnUsePanics(t *testing.T) {
	k, n, p, api, lfd, _ := testbed(t, DefaultConfig())
	stale, _ := serveOne(t, k, n, p, api, lfd)
	stale.Release()
	mustPanic(t, "Send", func() { stale.Send(k.Now(), []byte("GET")) })
	mustPanic(t, "Close", func() { stale.Close(k.Now()) })
	mustPanic(t, "Release", func() { stale.Release() })
}

// An event whose pair was recycled and reissued while it was pending (the
// count forbids this; the stamp is what would catch a bug in the count)
// panics when it runs.
func TestEventOutlivingItsPairPanics(t *testing.T) {
	k, n, _, _, _, _ := testbed(t, DefaultConfig())
	cc := n.ConnectWith(k.Now(), ConnectOptions{}, nil)
	cc.pair().inc += 2 // the SYN is pending: pretend the pair moved on twice
	mustPanic(t, "SYN delivery", func() { k.Sim.Run() })
}

// The accept queue pops from a head index and compacts its dead prefix, so a
// listener churned through 100k connections keeps one bounded backing array
// and allocates nothing once warm.
func TestAcceptQueueKeepsItsArray(t *testing.T) {
	l := &Listener{backlog: 1024}
	sc := &(&connPair{}).sc
	churn := func(rounds int) {
		for i := 0; i < rounds; i++ {
			// Arrivals outpace accepts until the queue nears its backlog,
			// then a drain empties it: the depth sweeps 0..1024.
			for j := 0; j < 7; j++ {
				l.deliverSYN(0, sc)
			}
			for j := 0; j < 5; j++ {
				l.pop()
			}
			if l.Backlog() >= 1000 {
				for l.Backlog() > 0 {
					l.pop()
				}
			}
		}
	}
	churn(1000)
	if allocs := testing.AllocsPerRun(10, func() { churn(1430) }); allocs != 0 {
		t.Fatalf("accept queue allocates %.1f times per 10k connections after warm-up", allocs)
	}
	if c := cap(l.acceptQ); c > 4*1024 {
		t.Fatalf("accept queue capacity grew to %d for a backlog of 1024", c)
	}
}
