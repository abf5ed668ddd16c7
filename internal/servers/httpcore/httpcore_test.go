package httpcore

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

// env bundles a kernel, network, server process and handler with a listener.
type env struct {
	k       *simkernel.Kernel
	net     *netsim.Network
	p       *simkernel.Proc
	api     *netsim.SockAPI
	handler *Handler
	lfd     *simkernel.FD

	opened []int
	closed []int
}

func newEnv(t *testing.T) *env {
	t.Helper()
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	p := k.NewProc("server")
	api := netsim.NewSockAPI(k, p, n)
	e := &env{k: k, net: n, p: p, api: api}
	e.handler = NewHandler(k, p, api)
	e.handler.OnConnOpen = func(fd int) { e.opened = append(e.opened, fd) }
	e.handler.OnConnClose = func(fd int) { e.closed = append(e.closed, fd) }
	p.Batch(0, func() { e.lfd, _ = api.Listen() }, nil)
	k.Sim.Run()
	return e
}

// connectAndSend opens a client connection and optionally sends a payload.
func (e *env) connectAndSend(t *testing.T, payload []byte) (*netsim.ClientConn, *clientProbe) {
	t.Helper()
	probe := &clientProbe{}
	cc := e.net.ConnectWith(e.k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{
		OnData:       func(_ core.Time, n int) { probe.bytes += n },
		OnPeerClosed: func(core.Time) { probe.closed = true },
	})
	e.k.Sim.Run()
	if payload != nil {
		cc.Send(e.k.Now(), payload)
		e.k.Sim.Run()
	}
	return cc, probe
}

type clientProbe struct {
	bytes  int
	closed bool
}

func TestNewHandlerDefaults(t *testing.T) {
	e := newEnv(t)
	if e.handler.Content == nil || e.handler.Content.Len() == 0 {
		t.Fatal("default content store not installed")
	}
	if len(e.handler.OpenConns()) != 0 {
		t.Fatal("fresh handler has connections")
	}
}

func TestAcceptAllAndServeCompleteRequest(t *testing.T) {
	e := newEnv(t)
	_, probe := e.connectAndSend(t, httpsim.FormatRequest("/index.html"))

	var accepted []int
	e.p.Batch(e.k.Now(), func() {
		accepted = e.handler.AcceptAll(e.k.Now(), e.lfd)
		for _, fd := range accepted {
			e.handler.HandleReadable(e.k.Now(), fd)
		}
	}, nil)
	e.k.Sim.Run()

	if len(accepted) != 1 {
		t.Fatalf("accepted = %v", accepted)
	}
	if len(e.opened) != 1 || len(e.closed) != 1 {
		t.Fatalf("callbacks: opened=%v closed=%v", e.opened, e.closed)
	}
	st := e.handler.Stats
	if st.Accepted != 1 || st.Served != 1 || st.Closed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	want := httpsim.ResponseSize(httpsim.StatusOK, httpsim.DefaultDocumentSize)
	if probe.bytes != want {
		t.Fatalf("client received %d bytes, want %d", probe.bytes, want)
	}
	if !probe.closed {
		t.Fatal("server did not close after the response (HTTP/1.0)")
	}
	if e.handler.Open() != 0 {
		t.Fatal("connection table not cleaned up")
	}
}

func TestPartialRequestKeepsConnectionOpen(t *testing.T) {
	e := newEnv(t)
	_, probe := e.connectAndSend(t, httpsim.FormatPartialRequest("/index.html"))
	e.p.Batch(e.k.Now(), func() {
		for _, fd := range e.handler.AcceptAll(e.k.Now(), e.lfd) {
			e.handler.HandleReadable(e.k.Now(), fd)
		}
	}, nil)
	e.k.Sim.Run()

	if e.handler.Stats.Served != 0 || e.handler.Stats.Closed != 0 {
		t.Fatalf("partial request should not be served: %+v", e.handler.Stats)
	}
	if e.handler.Open() != 1 {
		t.Fatal("inactive connection should remain in the table")
	}
	if probe.bytes != 0 {
		t.Fatalf("client received %d bytes", probe.bytes)
	}

	// Completing the request later serves it.
	conns := e.handler.OpenConns()
	cc := e.handler.conns.Get(conns[0]).SC.Peer()
	cc.Send(e.k.Now(), []byte("\r\n"))
	e.k.Sim.Run()
	e.p.Batch(e.k.Now(), func() { e.handler.HandleReadable(e.k.Now(), conns[0]) }, nil)
	e.k.Sim.Run()
	if e.handler.Stats.Served != 1 {
		t.Fatalf("completion not served: %+v", e.handler.Stats)
	}
}

func TestNotFoundAndBadRequest(t *testing.T) {
	e := newEnv(t)
	_, probe404 := e.connectAndSend(t, httpsim.FormatRequest("/missing.html"))
	e.p.Batch(e.k.Now(), func() {
		for _, fd := range e.handler.AcceptAll(e.k.Now(), e.lfd) {
			e.handler.HandleReadable(e.k.Now(), fd)
		}
	}, nil)
	e.k.Sim.Run()
	if e.handler.Stats.NotFound != 1 {
		t.Fatalf("stats = %+v", e.handler.Stats)
	}
	if probe404.bytes != httpsim.ResponseSize(httpsim.StatusNotFound, 0) {
		t.Fatalf("404 size = %d", probe404.bytes)
	}

	_, probe400 := e.connectAndSend(t, []byte("THIS IS NOT HTTP\r\n\r\n"))
	e.p.Batch(e.k.Now(), func() {
		for _, fd := range e.handler.AcceptAll(e.k.Now(), e.lfd) {
			e.handler.HandleReadable(e.k.Now(), fd)
		}
	}, nil)
	e.k.Sim.Run()
	if e.handler.Stats.BadRequests != 1 {
		t.Fatalf("stats = %+v", e.handler.Stats)
	}
	if probe400.bytes != httpsim.ResponseSize(httpsim.StatusBadReq, 0) {
		t.Fatalf("400 size = %d", probe400.bytes)
	}
}

func TestEOFBeforeRequestClosesConnection(t *testing.T) {
	e := newEnv(t)
	cc, _ := e.connectAndSend(t, nil)
	e.p.Batch(e.k.Now(), func() { e.handler.AcceptAll(e.k.Now(), e.lfd) }, nil)
	e.k.Sim.Run()
	cc.Close(e.k.Now())
	e.k.Sim.Run()

	fds := e.handler.OpenConns()
	if len(fds) != 1 {
		t.Fatalf("OpenConns = %v", fds)
	}
	e.p.Batch(e.k.Now(), func() { e.handler.HandleReadable(e.k.Now(), fds[0]) }, nil)
	e.k.Sim.Run()
	if e.handler.Stats.EOFCloses != 1 || e.handler.Open() != 0 {
		t.Fatalf("stats = %+v conns = %d", e.handler.Stats, e.handler.Open())
	}
}

func TestHandleReadableUnknownFDIsIgnored(t *testing.T) {
	e := newEnv(t)
	e.p.Batch(e.k.Now(), func() { e.handler.HandleReadable(e.k.Now(), 999) }, nil)
	e.k.Sim.Run()
	if e.handler.Stats.Served != 0 || e.handler.Stats.Closed != 0 {
		t.Fatalf("stats = %+v", e.handler.Stats)
	}
}

func TestSweepIdleClosesOnlyStaleConnections(t *testing.T) {
	e := newEnv(t)
	e.handler.IdleTimeout = 10 * core.Second

	// Two inactive connections established at t≈0.
	e.connectAndSend(t, httpsim.FormatPartialRequest("/index.html"))
	e.connectAndSend(t, httpsim.FormatPartialRequest("/index.html"))
	e.p.Batch(e.k.Now(), func() {
		for _, fd := range e.handler.AcceptAll(e.k.Now(), e.lfd) {
			e.handler.HandleReadable(e.k.Now(), fd)
		}
	}, nil)
	e.k.Sim.Run()
	if e.handler.Open() != 2 {
		t.Fatalf("conns = %d", e.handler.Open())
	}

	// A sweep before the timeout closes nothing.
	e.p.Batch(e.k.Now(), func() {
		if n := e.handler.SweepIdle(e.k.Now()); n != 0 {
			t.Errorf("early sweep closed %d", n)
		}
	}, nil)
	e.k.Sim.Run()

	// Advance past the timeout; both connections are idle and get closed.
	e.k.Sim.After(11*core.Second, func(core.Time) {})
	e.k.Sim.Run()
	e.p.Batch(e.k.Now(), func() {
		if n := e.handler.SweepIdle(e.k.Now()); n != 2 {
			t.Errorf("sweep closed %d, want 2", n)
		}
	}, nil)
	e.k.Sim.Run()
	if e.handler.Stats.IdleCloses != 2 || e.handler.Open() != 0 {
		t.Fatalf("stats = %+v", e.handler.Stats)
	}

	// Sweeping with IdleTimeout disabled is a no-op.
	e.handler.IdleTimeout = 0
	if n := e.handler.SweepIdle(e.k.Now()); n != 0 {
		t.Fatalf("disabled sweep closed %d", n)
	}
}

func TestCloseConnIdempotent(t *testing.T) {
	e := newEnv(t)
	e.connectAndSend(t, httpsim.FormatPartialRequest("/index.html"))
	e.connectAndSend(t, httpsim.FormatPartialRequest("/index.html"))
	e.p.Batch(e.k.Now(), func() { e.handler.AcceptAll(e.k.Now(), e.lfd) }, nil)
	e.k.Sim.Run()
	fds := e.handler.OpenConns()
	if len(fds) != 2 {
		t.Fatalf("OpenConns = %v", fds)
	}
	e.closeFDs(fds[0], fds[0], fds[1]) // the second close of fds[0] is a no-op
	if e.handler.Open() != 0 {
		t.Fatal("closing every connection left some open")
	}
	if e.handler.Stats.Closed != 2 {
		t.Fatalf("Closed = %d", e.handler.Stats.Closed)
	}
	if len(e.closed) != 2 {
		t.Fatalf("OnConnClose calls = %d", len(e.closed))
	}
}

// Stats.Add must sum every counter: a field it misses would vanish from a
// multi-worker server's totals.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(1)
	}
	var sum Stats
	sum.Add(one)
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got := s.Field(i).Int(); got != 2 {
			t.Errorf("Add left %s = %d, want 2", s.Type().Field(i).Name, got)
		}
	}
}
