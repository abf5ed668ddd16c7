package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/simkernel"
)

// testbed builds a kernel, network, server process and socket API with a
// listener already installed.
func testbed(t *testing.T, cfg Config) (*simkernel.Kernel, *Network, *simkernel.Proc, *SockAPI, *simkernel.FD, *Listener) {
	t.Helper()
	k := simkernel.NewKernel(nil)
	n := New(k, cfg)
	p := k.NewProc("server")
	api := NewSockAPI(k, p, n)
	var lfd *simkernel.FD
	var l *Listener
	p.Batch(0, func() { lfd, l = api.Listen() }, nil)
	k.Sim.Run()
	return k, n, p, api, lfd, l
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ListenBacklog != 128 || cfg.PortSpace != 60000 || cfg.TimeWait != 60*core.Second {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.String() == "" {
		t.Fatal("empty config string")
	}
}

func TestNewAppliesDefaults(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := New(k, Config{})
	if n.Cfg.ListenBacklog <= 0 || n.Cfg.PortSpace <= 0 {
		t.Fatalf("defaults not applied: %+v", n.Cfg)
	}
}

func TestTransmitDelay(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := New(k, DefaultConfig())
	// 6 KB at 100 Mbit/s is 6*1024*8/100e6 s = 491.52 µs.
	d := n.TransmitDelay(6 * 1024)
	seconds := float64(6*1024*8) / 100e6
	want := core.Duration(seconds * float64(core.Second))
	if d != want {
		t.Fatalf("TransmitDelay = %v, want %v", d, want)
	}
	if n.TransmitDelay(0) != 0 || n.TransmitDelay(-1) != 0 {
		t.Fatal("non-positive sizes must have zero delay")
	}
}

func TestConnectAcceptServeClose(t *testing.T) {
	k, n, p, api, lfd, l := testbed(t, DefaultConfig())

	var connectedAt, dataAt, closedAt core.Time
	var gotBytes int
	cc := n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{
		OnConnected:  func(now core.Time) { connectedAt = now },
		OnData:       func(now core.Time, b int) { dataAt = now; gotBytes += b },
		OnPeerClosed: func(now core.Time) { closedAt = now },
	})
	k.Sim.Run()

	if cc.State() != StateEstablished {
		t.Fatalf("state = %v", cc.State())
	}
	if connectedAt <= 0 {
		t.Fatal("OnConnected never fired")
	}
	if l.Backlog() != 1 {
		t.Fatalf("backlog = %d", l.Backlog())
	}
	if lfd.Poll() != core.POLLIN {
		t.Fatalf("listener poll = %v", lfd.Poll())
	}

	// Client sends a 100-byte request.
	cc.Send(k.Now(), make([]byte, 100))
	k.Sim.Run()

	// Server accepts, reads, writes 6 KB, closes — all in one batch.
	var fd *simkernel.FD
	p.Batch(k.Now(), func() {
		var err error
		fd, _, err = api.Accept(lfd)
		if err != nil {
			t.Fatal("Accept failed")
		}
		data, eof := api.Read(fd, 0)
		if len(data) != 100 || eof {
			t.Fatalf("Read = %d eof=%v", len(data), eof)
		}
		api.Write(fd, 6*1024)
		api.Close(fd)
	}, nil)
	k.Sim.Run()

	if gotBytes != 6*1024 {
		t.Fatalf("client received %d bytes", gotBytes)
	}
	if dataAt <= 0 || closedAt < dataAt {
		t.Fatalf("delivery ordering: data at %v, close at %v", dataAt, closedAt)
	}
	if cc.State() != StateClosed {
		t.Fatalf("final state = %v", cc.State())
	}

	st := n.Stats()
	if st.ConnAttempts != 1 || st.ConnEstablished != 1 || st.Accepted != 1 || st.ServerCloses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesToServer != 100 || st.BytesToClient != 6*1024 {
		t.Fatalf("byte stats = %+v", st)
	}
	if p.NumFDs() != 1 { // only the listener remains
		t.Fatalf("NumFDs = %d", p.NumFDs())
	}
}

func TestServerConnReadinessTransitions(t *testing.T) {
	k, n, p, api, lfd, _ := testbed(t, DefaultConfig())
	cc := n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{})
	k.Sim.Run()

	var fd *simkernel.FD
	var conn *ServerConn
	p.Batch(k.Now(), func() {
		var err error
		fd, conn, err = api.Accept(lfd)
		if err != nil {
			t.Fatal("accept failed")
		}
	}, nil)
	k.Sim.Run()

	// No data yet: connection is writable but not readable.
	if m := fd.Poll(); m.Any(core.POLLIN) || !m.Has(core.POLLOUT) {
		t.Fatalf("initial poll = %v", m)
	}

	cc.Send(k.Now(), []byte("GET /index.html HTTP/1.0\r\nHost: citi.umich.edu\r\n\r\n")[:50])
	k.Sim.Run()
	if m := fd.Poll(); !m.Has(core.POLLIN) {
		t.Fatalf("poll after data = %v", m)
	}
	if conn.Buffered() != 50 {
		t.Fatalf("Buffered = %d", conn.Buffered())
	}

	// Partial read drains half and returns the actual request prefix.
	p.Batch(k.Now(), func() {
		data, eof := api.Read(fd, 20)
		if len(data) != 20 || eof {
			t.Fatalf("partial read = %d eof=%v", len(data), eof)
		}
		if string(data[:4]) != "GET " {
			t.Fatalf("payload corrupted: %q", data)
		}
	}, nil)
	k.Sim.Run()
	if conn.Buffered() != 30 {
		t.Fatalf("Buffered after partial read = %d", conn.Buffered())
	}

	// Drain fully; then a read on the empty buffer reports no data, no EOF.
	p.Batch(k.Now(), func() {
		if data, _ := api.Read(fd, 0); len(data) != 30 {
			t.Fatalf("drain read = %d", len(data))
		}
		if data, eof := api.Read(fd, 0); len(data) != 0 || eof {
			t.Fatalf("empty read = %d eof=%v", len(data), eof)
		}
	}, nil)
	k.Sim.Run()

	// Client closes: POLLHUP is reported, read sees EOF.
	cc.Close(k.Now())
	k.Sim.Run()
	if !conn.PeerClosed() {
		t.Fatal("PeerClosed = false")
	}
	if m := fd.Poll(); !m.Has(core.POLLIN | core.POLLHUP) {
		t.Fatalf("poll after FIN = %v", m)
	}
	p.Batch(k.Now(), func() {
		if data, eof := api.Read(fd, 0); len(data) != 0 || !eof {
			t.Fatalf("EOF read = %d eof=%v", len(data), eof)
		}
	}, nil)
	k.Sim.Run()
}

func TestBacklogOverflowRefusesConnections(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ListenBacklog = 2
	k, n, _, _, _, l := testbed(t, cfg)

	refused := 0
	reasons := map[RefuseReason]int{}
	connected := 0
	for i := 0; i < 5; i++ {
		n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{
			OnConnected: func(core.Time) { connected++ },
			OnRefused:   func(_ core.Time, r RefuseReason) { refused++; reasons[r]++ },
		})
	}
	k.Sim.Run()

	if connected != 2 || refused != 3 {
		t.Fatalf("connected=%d refused=%d", connected, refused)
	}
	if reasons[RefusedBacklog] != 3 {
		t.Fatalf("reasons = %v", reasons)
	}
	if l.Overflows != 3 {
		t.Fatalf("listener overflows = %d", l.Overflows)
	}
	st := n.Stats()
	if st.ConnRefused != 3 || st.ConnEstablished != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConnectWithoutListenerRefused(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := New(k, DefaultConfig())
	var reason RefuseReason = -1
	n.ConnectWith(0, ConnectOptions{}, &testHooks{OnRefused: func(_ core.Time, r RefuseReason) { reason = r }})
	k.Sim.Run()
	if reason != RefusedClosed {
		t.Fatalf("reason = %v", reason)
	}
}

func TestPortExhaustionAndTimeWait(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PortSpace = 2
	cfg.TimeWait = 10 * core.Second
	k, n, p, api, lfd, _ := testbed(t, cfg)

	var refusedPorts int
	mk := func() *ClientConn {
		return n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{
			OnRefused: func(_ core.Time, r RefuseReason) {
				if r == RefusedPorts {
					refusedPorts++
				}
			},
		})
	}
	c1 := mk()
	c2 := mk()
	mk() // third must fail locally: no ports
	k.Sim.Run()
	if refusedPorts != 1 {
		t.Fatalf("refusedPorts = %d", refusedPorts)
	}
	if got := n.PortsAvailable(k.Now()); got != 0 {
		t.Fatalf("PortsAvailable = %d", got)
	}

	// Serve and close both connections; ports go to TIME-WAIT, still unusable.
	p.Batch(k.Now(), func() {
		for {
			fd, _, err := api.Accept(lfd)
			if err != nil {
				break
			}
			api.Close(fd)
		}
	}, nil)
	k.Sim.Run()
	_ = c1
	_ = c2
	if tw := n.PortsInTimeWait(k.Now()); tw != 2 {
		t.Fatalf("PortsInTimeWait = %d", tw)
	}
	if got := n.PortsAvailable(k.Now()); got != 0 {
		t.Fatalf("PortsAvailable during TIME-WAIT = %d", got)
	}

	// After TIME-WAIT expires the ports are reusable.
	k.Sim.After(cfg.TimeWait+core.Second, func(core.Time) {})
	k.Sim.Run()
	if got := n.PortsAvailable(k.Now()); got != 2 {
		t.Fatalf("PortsAvailable after TIME-WAIT = %d", got)
	}
}

func TestHighLatencyConnectionUsesItsRTT(t *testing.T) {
	k, n, _, _, _, _ := testbed(t, DefaultConfig())
	var fast, slow core.Time
	n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{OnConnected: func(now core.Time) { fast = now }})
	n.ConnectWith(k.Now(), ConnectOptions{RTT: 100 * core.Millisecond}, &testHooks{OnConnected: func(now core.Time) { slow = now }})
	k.Sim.Run()
	if fast <= 0 || slow <= 0 {
		t.Fatal("handshakes incomplete")
	}
	if slow < core.Time(100*core.Millisecond) {
		t.Fatalf("high-latency handshake completed too early: %v", slow)
	}
	if fast >= slow {
		t.Fatalf("LAN handshake (%v) should beat modem handshake (%v)", fast, slow)
	}
}

func TestAcceptOnEmptyQueueAndWrongFD(t *testing.T) {
	k, n, p, api, lfd, _ := testbed(t, DefaultConfig())
	p.Batch(k.Now(), func() {
		if _, _, err := api.Accept(lfd); err == nil {
			t.Error("accept on empty queue should fail")
		}
	}, nil)
	k.Sim.Run()

	// Accept on a non-listener descriptor fails gracefully.
	cc := n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{})
	k.Sim.Run()
	_ = cc
	var connFD *simkernel.FD
	p.Batch(k.Now(), func() {
		fd, _, err := api.Accept(lfd)
		if err != nil {
			t.Fatal("accept failed")
		}
		connFD = fd
		if _, _, err := api.Accept(fd); err == nil {
			t.Error("accept on a connection descriptor should fail")
		}
	}, nil)
	k.Sim.Run()

	// Read on the listener descriptor reports EOF-ish failure, not a crash.
	p.Batch(k.Now(), func() {
		if data, eof := api.Read(lfd, 0); len(data) != 0 || !eof {
			t.Errorf("read on listener = %d eof=%v", len(data), eof)
		}
		// Write on the listener is ignored.
		api.Write(lfd, 10)
		_ = connFD
	}, nil)
	k.Sim.Run()
}

// TestFDLimitLeavesConnectionQueued: at the fault plane's descriptor limit
// accept fails with EMFILE before dequeuing, so the pending connection stays
// on the accept queue and is accepted once a descriptor frees up.
func TestFDLimitLeavesConnectionQueued(t *testing.T) {
	k, n, p, api, lfd, l := testbed(t, DefaultConfig())
	k.Faults.FDLimit = 1 // only the listener fits

	var refused bool
	n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{
		OnRefused: func(core.Time, RefuseReason) { refused = true },
	})
	k.Sim.Run()
	p.Batch(k.Now(), func() {
		if _, _, err := api.Accept(lfd); err != ErrMFile {
			t.Errorf("accept at the limit: err = %v, want ErrMFile", err)
		}
	}, nil)
	k.Sim.Run()
	if api.EMFILECount != 1 || l.Backlog() != 1 || refused {
		t.Fatalf("EMFILECount = %d, backlog = %d, refused = %v; want 1, 1, false",
			api.EMFILECount, l.Backlog(), refused)
	}

	k.Faults.FDLimit = 2
	p.Batch(k.Now(), func() {
		if _, _, err := api.Accept(lfd); err != nil {
			t.Errorf("accept below the limit: %v", err)
		}
	}, nil)
	k.Sim.Run()
	if l.Backlog() != 0 {
		t.Fatalf("backlog = %d after the accept", l.Backlog())
	}
}

func TestListenerCloseResetsPending(t *testing.T) {
	k, n, p, _, lfd, _ := testbed(t, DefaultConfig())
	var refused RefuseReason = -1
	cc := n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{
		OnRefused: func(_ core.Time, r RefuseReason) { refused = r },
	})
	k.Sim.Run()
	if cc.State() != StateEstablished {
		t.Fatalf("state = %v", cc.State())
	}
	p.Batch(k.Now(), func() {
		_ = p.CloseFD(k.Now(), lfd.Num)
	}, nil)
	k.Sim.Run()
	if refused != RefusedReset {
		t.Fatalf("refused = %v", refused)
	}
	if cc.State() != StateClosed {
		t.Fatalf("state after reset = %v", cc.State())
	}
}

func TestClientCloseDeliversFINToServer(t *testing.T) {
	k, n, p, api, lfd, _ := testbed(t, DefaultConfig())
	cc := n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{})
	k.Sim.Run()
	var conn *ServerConn
	p.Batch(k.Now(), func() {
		_, c, err := api.Accept(lfd)
		if err != nil {
			t.Fatal("accept failed")
		}
		conn = c
	}, nil)
	k.Sim.Run()

	cc.Close(k.Now())
	k.Sim.Run()
	if !conn.PeerClosed() {
		t.Fatal("server never saw FIN")
	}
	if n.Stats().ClientCloses != 1 {
		t.Fatalf("stats = %+v", n.Stats())
	}
	// Double close is idempotent.
	cc.Close(k.Now())
	k.Sim.Run()
	if n.Stats().ClientCloses != 1 {
		t.Fatalf("double close counted twice: %+v", n.Stats())
	}
}

func TestWriteToClosedOrHungUpConnectionIsIgnored(t *testing.T) {
	k, n, p, api, lfd, _ := testbed(t, DefaultConfig())
	received := 0
	cc := n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{
		OnData: func(_ core.Time, b int) { received += b },
	})
	k.Sim.Run()
	var fd *simkernel.FD
	p.Batch(k.Now(), func() {
		f, _, err := api.Accept(lfd)
		if err != nil {
			t.Fatal("accept failed")
		}
		fd = f
		api.Close(fd)
		// Writing after close is a no-op.
		api.Write(fd, 1024)
	}, nil)
	k.Sim.Run()
	if received != 0 {
		t.Fatalf("client received %d bytes from a closed connection", received)
	}
	_ = cc
}

func TestRefuseReasonStrings(t *testing.T) {
	for _, r := range []RefuseReason{RefusedBacklog, RefusedClosed, RefusedPorts, RefusedReset, RefuseReason(99)} {
		if r.String() == "" {
			t.Fatalf("empty string for reason %d", int(r))
		}
	}
}

// Property: connections are conserved — every attempt ends up established or
// refused (port failures included), and accepted never exceeds established.
func TestConnectionConservationProperty(t *testing.T) {
	f := func(nconns uint8, backlog uint8, ports uint8) bool {
		cfg := DefaultConfig()
		cfg.ListenBacklog = int(backlog%8) + 1
		cfg.PortSpace = int(ports%16) + 1
		cfg.TimeWait = core.Second
		k := simkernel.NewKernel(nil)
		n := New(k, cfg)
		p := k.NewProc("server")
		api := NewSockAPI(k, p, n)
		var lfd *simkernel.FD
		p.Batch(0, func() { lfd, _ = api.Listen() }, nil)
		k.Sim.Run()

		total := int(nconns%40) + 1
		outcomes := 0
		for i := 0; i < total; i++ {
			n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{
				OnConnected: func(core.Time) { outcomes++ },
				OnRefused:   func(core.Time, RefuseReason) { outcomes++ },
			})
		}
		k.Sim.Run()
		// Accept everything pending.
		p.Batch(k.Now(), func() {
			for {
				if _, _, err := api.Accept(lfd); err != nil {
					break
				}
			}
		}, nil)
		k.Sim.Run()

		st := n.Stats()
		if outcomes != total {
			return false
		}
		if st.ConnAttempts != int64(total) {
			return false
		}
		if st.ConnEstablished+st.ConnRefused+st.ConnPortFail != int64(total) {
			return false
		}
		return st.Accepted <= st.ConnEstablished
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// A read on a descriptor with a registered buffer (compio's fixed-buffer
// reads) costs exactly Cost.SockReadCopy less than a normal read — the
// modeled user-space copy is the only component skipped.
func TestRegisteredBufferReadSkipsExactlyTheCopyCharge(t *testing.T) {
	k, n, p, api, lfd, _ := testbed(t, DefaultConfig())

	readCharge := func(register bool) core.Duration {
		cc := n.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{})
		k.Sim.Run()
		cc.Send(k.Now(), make([]byte, 100))
		k.Sim.Run()
		var charge core.Duration
		p.Batch(k.Now(), func() {
			fd, _, err := api.Accept(lfd)
			if err != nil {
				t.Fatal("Accept failed")
			}
			fd.BufferRegistered = register
			before := p.TotalCharged
			data, _ := api.Read(fd, 0)
			if len(data) != 100 {
				t.Fatalf("Read = %d bytes", len(data))
			}
			charge = p.TotalCharged - before
			api.Close(fd)
		}, nil)
		k.Sim.Run()
		return charge
	}

	plain := readCharge(false)
	registered := readCharge(true)
	if want := k.Cost.SyscallEntry + k.Cost.SockRead; plain != want {
		t.Fatalf("plain read charged %v, want %v", plain, want)
	}
	if got, want := plain-registered, k.Cost.SockReadCopy; got != want {
		t.Fatalf("registered-buffer discount = %v, want exactly %v", got, want)
	}
}
