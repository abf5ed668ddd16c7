package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/simkernel"
)

// accept drains one connection from the listener inside a server batch.
func accept(t *testing.T, k *simkernel.Kernel, p *simkernel.Proc, api *SockAPI, lfd *simkernel.FD) (*simkernel.FD, *ServerConn) {
	t.Helper()
	var fd *simkernel.FD
	var conn *ServerConn
	p.Batch(k.Now(), func() {
		var err error
		fd, conn, err = api.Accept(lfd)
		if err != nil {
			t.Fatal("Accept failed")
		}
	}, nil)
	k.Sim.Run()
	return fd, conn
}

// TestStalledReaderJamsResponse: a client that advertises a small window and
// never drains it accepts only the first window's worth of response bytes;
// the server's connection loses POLLOUT and further writes return zero.
func TestStalledReaderJamsResponse(t *testing.T) {
	k, n, p, api, lfd, _ := testbed(t, DefaultConfig())

	var got int
	n.ConnectWith(k.Now(), ConnectOptions{RecvWindow: 512, StallReads: true}, &testHooks{
		OnData: func(_ core.Time, b int) { got += b },
	})
	k.Sim.Run()
	fd, conn := accept(t, k, p, api, lfd)

	if conn.sndAvail != 512 {
		t.Fatalf("free send window = %d, want 512", conn.sndAvail)
	}
	var first, second int
	p.Batch(k.Now(), func() {
		first = api.Write(fd, 6*1024)
		second = api.Write(fd, 100)
	}, nil)
	k.Sim.Run()

	if first != 512 || second != 0 {
		t.Fatalf("writes accepted %d then %d bytes, want 512 then 0", first, second)
	}
	if conn.sndAvail != 0 {
		t.Fatalf("window not exhausted: %d", conn.sndAvail)
	}
	if conn.Poll()&core.POLLOUT != 0 {
		t.Fatal("POLLOUT reported while the window is closed")
	}
	if got != 512 {
		t.Fatalf("client received %d bytes, want 512", got)
	}
}

// TestDrainingClientReopensWindow: with a finite window and a draining
// client, a jammed write resumes after the window update arrives: POLLOUT
// returns, the notifier fires, and the response can finish.
func TestDrainingClientReopensWindow(t *testing.T) {
	k, n, p, api, lfd, _ := testbed(t, DefaultConfig())

	var got int
	n.ConnectWith(k.Now(), ConnectOptions{RecvWindow: 1024}, &testHooks{
		OnData: func(_ core.Time, b int) { got += b },
	})
	k.Sim.Run()
	fd, conn := accept(t, k, p, api, lfd)

	var pollout bool
	conn.SetNotifier(simkernel.NotifierFunc(func(_ core.Time, mask core.EventMask) {
		if mask&core.POLLOUT != 0 {
			pollout = true
		}
	}))

	var first int
	p.Batch(k.Now(), func() { first = api.Write(fd, 2048) }, nil)
	k.Sim.Run()
	if first != 1024 {
		t.Fatalf("first write accepted %d bytes, want 1024", first)
	}
	// The draining client consumed the batch; its window update has arrived
	// by the time the simulation quiesces.
	if !pollout {
		t.Fatal("no POLLOUT notification after window update")
	}
	if conn.sndAvail != 1024 {
		t.Fatalf("window did not reopen: %d", conn.sndAvail)
	}

	var rest int
	p.Batch(k.Now(), func() { rest = api.Write(fd, 2048-first) }, nil)
	k.Sim.Run()
	if rest != 1024 {
		t.Fatalf("resumed write accepted %d bytes, want 1024", rest)
	}
	if got != 2048 {
		t.Fatalf("client received %d bytes, want 2048", got)
	}
}

// TestUnlimitedWindowUnchanged pins the paper's workload: without a window
// the write path accepts everything in one call and POLLOUT never drops.
func TestUnlimitedWindowUnchanged(t *testing.T) {
	k, n, p, api, lfd, _ := testbed(t, DefaultConfig())
	var got int
	n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{
		OnData: func(_ core.Time, b int) { got += b },
	})
	k.Sim.Run()
	fd, conn := accept(t, k, p, api, lfd)
	if conn.sndWindow != 0 {
		t.Fatalf("send window = %d, want 0 (unlimited)", conn.sndWindow)
	}
	var wrote int
	p.Batch(k.Now(), func() { wrote = api.Write(fd, 64*1024) }, nil)
	k.Sim.Run()
	if wrote != 64*1024 || got != 64*1024 {
		t.Fatalf("wrote %d, client got %d, want 64K both", wrote, got)
	}
	if conn.Poll()&core.POLLOUT == 0 {
		t.Fatal("POLLOUT missing on unlimited-window connection")
	}
}

// TestWritevChargesExactlyOneCombinedWrite pins the vectored write to the
// historical single-write charge: same CPU cost, same delivered bytes.
func TestWritevChargesExactlyOneCombinedWrite(t *testing.T) {
	run := func(vectored bool) (core.Duration, int) {
		k, n, p, api, lfd, _ := testbed(t, DefaultConfig())
		var got int
		n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{
			OnData: func(_ core.Time, b int) { got += b },
		})
		k.Sim.Run()
		fd, _ := accept(t, k, p, api, lfd)
		before := p.TotalCharged
		p.Batch(k.Now(), func() {
			if vectored {
				api.Writev(fd, 155, 6144)
			} else {
				api.Write(fd, 155+6144)
			}
		}, nil)
		k.Sim.Run()
		return p.TotalCharged - before, got
	}
	plainCost, plainGot := run(false)
	vecCost, vecGot := run(true)
	if plainCost != vecCost {
		t.Fatalf("writev cost %v != single write cost %v", vecCost, plainCost)
	}
	if plainGot != 155+6144 || vecGot != plainGot {
		t.Fatalf("delivered %d vs %d bytes", vecGot, plainGot)
	}
}

// TestSendfileSkipsCopyAndChargesPages: sendfile delivers the same bytes as
// write but charges the copy-free per-page rate, and it honours the peer's
// receive window exactly like write.
func TestSendfileSkipsCopyAndChargesPages(t *testing.T) {
	k, n, p, api, lfd, _ := testbed(t, DefaultConfig())
	var got int
	n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{
		OnData: func(_ core.Time, b int) { got += b },
	})
	k.Sim.Run()
	fd, _ := accept(t, k, p, api, lfd)

	const body = 6144
	before := p.TotalCharged
	p.Batch(k.Now(), func() { api.Sendfile(fd, body) }, nil)
	k.Sim.Run()
	cost := p.TotalCharged - before
	want := k.Cost.SyscallEntry + k.Cost.SendfileCost(body)
	if cost != want {
		t.Fatalf("sendfile charged %v, want %v", cost, want)
	}
	if writeCost := k.Cost.SyscallEntry + k.Cost.WriteCost(body); cost >= writeCost {
		t.Fatalf("sendfile (%v) not cheaper than write (%v)", cost, writeCost)
	}
	if got != body {
		t.Fatalf("client received %d bytes, want %d", got, body)
	}

	// A stalled window clamps sendfile the same way it clamps write.
	k2, n2, p2, api2, lfd2, _ := testbed(t, DefaultConfig())
	n2.ConnectWith(k2.Now(), ConnectOptions{RecvWindow: 512, StallReads: true}, &testHooks{})
	k2.Sim.Run()
	fd2, conn2 := accept(t, k2, p2, api2, lfd2)
	var first, second int
	p2.Batch(k2.Now(), func() {
		first = api2.Sendfile(fd2, body)
		second = api2.Sendfile(fd2, 100)
	}, nil)
	k2.Sim.Run()
	if first != 512 || second != 0 {
		t.Fatalf("windowed sendfile accepted %d then %d, want 512 then 0", first, second)
	}
	if conn2.sndAvail != 0 {
		t.Fatalf("window not exhausted: %d", conn2.sndAvail)
	}
}

func TestSampleRTT(t *testing.T) {
	if SampleRTT(nil, 0.5) != 0 {
		t.Fatal("empty mix must select the network default (zero)")
	}
	mix := []RTTBand{
		{Weight: 1, RTT: 10 * core.Millisecond},
		{Weight: 3, RTT: 100 * core.Millisecond},
	}
	cases := []struct {
		u    float64
		want core.Duration
	}{
		{0, 10 * core.Millisecond},
		{0.2499, 10 * core.Millisecond},
		{0.25, 100 * core.Millisecond},
		{0.9999, 100 * core.Millisecond},
	}
	for _, c := range cases {
		if got := SampleRTT(mix, c.u); got != c.want {
			t.Errorf("SampleRTT(u=%v) = %v, want %v", c.u, got, c.want)
		}
	}
	// Degenerate weights fall back to the first band.
	if got := SampleRTT([]RTTBand{{Weight: 0, RTT: 7 * core.Millisecond}}, 0.9); got != 7*core.Millisecond {
		t.Fatalf("zero-weight mix = %v, want first band", got)
	}
	// The default WAN mix is well-formed: positive weights, ascending RTTs.
	prev := core.Duration(0)
	for _, b := range DefaultWANMix() {
		if b.Weight <= 0 || b.RTT <= prev {
			t.Fatalf("malformed WAN mix band: %+v", b)
		}
		prev = b.RTT
	}
}
