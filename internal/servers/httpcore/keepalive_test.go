package httpcore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/simtest"
)

var (
	sizeKA    = httpsim.ResponseSizeVersion(httpsim.StatusOK, httpsim.DefaultDocumentSize, true)
	sizeClose = httpsim.ResponseSizeVersion(httpsim.StatusOK, httpsim.DefaultDocumentSize, false)
)

// drive accepts pending connections and dispatches HandleReadable for each.
func (e *env) drive(t *testing.T) {
	t.Helper()
	e.p.Batch(e.k.Now(), func() {
		for _, fd := range e.handler.AcceptAll(e.k.Now(), e.lfd) {
			e.handler.HandleReadable(e.k.Now(), fd)
		}
	}, nil)
	e.k.Sim.Run()
}

// readable dispatches one readable event on fd inside a batch.
func (e *env) readable(t *testing.T, fd int) {
	t.Helper()
	e.p.Batch(e.k.Now(), func() { e.handler.HandleReadable(e.k.Now(), fd) }, nil)
	e.k.Sim.Run()
}

func TestKeepAliveServesSequentialRequests(t *testing.T) {
	e := newEnv(t)
	e.handler.SetOptions(Options{KeepAlive: true})
	cc, probe := e.connectAndSend(t, httpsim.FormatRequest11("/index.html", false))
	e.drive(t)

	if st := e.handler.Stats; st.Served != 1 || st.KeptAlive != 1 || st.Closed != 0 {
		t.Fatalf("after first request: %+v", st)
	}
	if probe.bytes != sizeKA || probe.closed {
		t.Fatalf("probe = %+v, want %d bytes and open", probe, sizeKA)
	}
	fds := e.handler.OpenConns()
	if len(fds) != 1 {
		t.Fatalf("OpenConns = %v", fds)
	}

	// The second request carries Connection: close; the server answers with a
	// close response and tears the connection down.
	cc.Send(e.k.Now(), httpsim.FormatRequest11("/index.html", true))
	e.k.Sim.Run()
	e.readable(t, fds[0])

	if st := e.handler.Stats; st.Served != 2 || st.KeptAlive != 1 || st.Closed != 1 {
		t.Fatalf("after second request: %+v", st)
	}
	if probe.bytes != sizeKA+sizeClose || !probe.closed {
		t.Fatalf("probe = %+v, want %d bytes and closed", probe, sizeKA+sizeClose)
	}
}

func TestHTTP10RequestClosesEvenWithKeepAliveEnabled(t *testing.T) {
	e := newEnv(t)
	e.handler.SetOptions(Options{KeepAlive: true})
	_, probe := e.connectAndSend(t, httpsim.FormatRequest("/index.html"))
	e.drive(t)
	if st := e.handler.Stats; st.Served != 1 || st.KeptAlive != 0 || st.Closed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if probe.bytes != sizeClose || !probe.closed {
		t.Fatalf("probe = %+v", probe)
	}
}

func TestPipelinedBatchServedFromOneReadable(t *testing.T) {
	e := newEnv(t)
	e.handler.SetOptions(Options{KeepAlive: true})
	payload := append(httpsim.FormatRequest11("/index.html", false),
		append(httpsim.FormatRequest11("/index.html", false),
			httpsim.FormatRequest11("/index.html", true)...)...)
	_, probe := e.connectAndSend(t, payload)
	e.drive(t)

	if st := e.handler.Stats; st.Served != 3 || st.KeptAlive != 2 || st.Closed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if want := 2*sizeKA + sizeClose; probe.bytes != want || !probe.closed {
		t.Fatalf("probe = %+v, want %d bytes and closed", probe, want)
	}
	if e.handler.ServiceLatency.Count() != 3 {
		t.Fatalf("latency observations = %d", e.handler.ServiceLatency.Count())
	}
}

func TestPipelineBudgetDefersRemainder(t *testing.T) {
	e := newEnv(t)
	e.handler.SetOptions(Options{KeepAlive: true})
	var deferred []int
	e.handler.OnDeferred = func(fd int) { deferred = append(deferred, fd) }

	const kept = 2 * PipelineBatch
	var payload []byte
	for i := 0; i < kept; i++ {
		payload = append(payload, httpsim.FormatRequest11("/index.html", false)...)
	}
	payload = append(payload, httpsim.FormatRequest11("/index.html", true)...)
	_, probe := e.connectAndSend(t, payload)
	e.drive(t)

	if st := e.handler.Stats; st.Served != PipelineBatch || st.Closed != 0 {
		t.Fatalf("after first dispatch: %+v", st)
	}
	if len(deferred) != 1 {
		t.Fatalf("deferred = %v", deferred)
	}
	fd := deferred[0]

	// The continuation serves the next budget's worth and defers again.
	e.p.Batch(e.k.Now(), func() { e.handler.Continue(e.k.Now(), fd) }, nil)
	e.k.Sim.Run()
	if st := e.handler.Stats; st.Served != kept || st.Closed != 0 {
		t.Fatalf("after second dispatch: %+v", st)
	}
	if len(deferred) != 2 {
		t.Fatalf("deferred = %v", deferred)
	}

	// The final continuation serves the close request and tears down.
	e.p.Batch(e.k.Now(), func() { e.handler.Continue(e.k.Now(), fd) }, nil)
	e.k.Sim.Run()
	if st := e.handler.Stats; st.Served != kept+1 || st.KeptAlive != kept || st.Closed != 1 {
		t.Fatalf("final stats = %+v", st)
	}
	if want := kept*sizeKA + sizeClose; probe.bytes != want || !probe.closed {
		t.Fatalf("probe = %+v, want %d bytes", probe, want)
	}
}

func TestRequestSplitAcrossTwoReadables(t *testing.T) {
	e := newEnv(t)
	e.handler.SetOptions(Options{KeepAlive: true})
	second := httpsim.FormatRequest11("/index.html", true)
	cut := len(second) / 2
	payload := append(httpsim.FormatRequest11("/index.html", false), second[:cut]...)
	cc, probe := e.connectAndSend(t, payload)
	e.drive(t)

	// The first request is served; the second's fragment waits in the parser.
	if st := e.handler.Stats; st.Served != 1 || st.Closed != 0 {
		t.Fatalf("after fragment: %+v", st)
	}
	fds := e.handler.OpenConns()
	if len(fds) != 1 {
		t.Fatalf("OpenConns = %v", fds)
	}

	cc.Send(e.k.Now(), second[cut:])
	e.k.Sim.Run()
	e.readable(t, fds[0])
	if st := e.handler.Stats; st.Served != 2 || st.KeptAlive != 1 || st.Closed != 1 {
		t.Fatalf("after completion: %+v", st)
	}
	if want := sizeKA + sizeClose; probe.bytes != want || !probe.closed {
		t.Fatalf("probe = %+v, want %d bytes", probe, want)
	}
}

// TestStalledWindowParksPipelineAndResumes: the first response of a pipeline
// jams against a small receive window; the parked batch resumes from
// HandleWritable once the client drains, and the buffered close request is
// served without a further readable event.
func TestStalledWindowParksPipelineAndResumes(t *testing.T) {
	e := newEnv(t)
	e.handler.SetOptions(Options{KeepAlive: true})
	var blocked, drained []int
	e.handler.OnWriteBlocked = func(fd int) { blocked = append(blocked, fd) }
	e.handler.OnWriteDrained = func(fd int) { drained = append(drained, fd) }

	payload := append(httpsim.FormatRequest11("/index.html", false),
		httpsim.FormatRequest11("/index.html", true)...)
	probe := &clientProbe{}
	cc := e.net.ConnectWith(e.k.Now(), netsim.ConnectOptions{RecvWindow: 1024}, &simtest.ConnHooks{
		OnData:       func(_ core.Time, n int) { probe.bytes += n },
		OnPeerClosed: func(core.Time) { probe.closed = true },
	})
	e.k.Sim.Run()
	cc.Send(e.k.Now(), payload)
	e.k.Sim.Run()
	e.drive(t)

	if st := e.handler.Stats; st.Served != 1 || st.Closed != 0 {
		t.Fatalf("after jam: %+v", st)
	}
	if len(blocked) != 1 {
		t.Fatalf("OnWriteBlocked calls = %v", blocked)
	}
	fd := blocked[0]
	c := e.handler.conns.Get(fd)
	if c.PendingWrite <= 0 || !c.writeBlocked || !c.keepOpen {
		t.Fatalf("conn not parked: pending=%d blocked=%v keepOpen=%v",
			c.PendingWrite, c.writeBlocked, c.keepOpen)
	}

	// The draining client reopens the window batch by batch; each writable
	// dispatch pushes another window's worth until both responses are out.
	for i := 0; i < 64 && e.handler.Open() > 0; i++ {
		e.p.Batch(e.k.Now(), func() { e.handler.HandleWritable(e.k.Now(), fd) }, nil)
		e.k.Sim.Run()
	}

	if st := e.handler.Stats; st.Served != 2 || st.KeptAlive != 1 || st.Closed != 1 {
		t.Fatalf("final stats = %+v", st)
	}
	if len(drained) != 1 {
		t.Fatalf("OnWriteDrained calls = %v", drained)
	}
	if want := sizeKA + sizeClose; probe.bytes != want || !probe.closed {
		t.Fatalf("probe = %+v, want %d bytes", probe, want)
	}
	if e.handler.ServiceLatency.Count() != 2 {
		t.Fatalf("latency observations = %d", e.handler.ServiceLatency.Count())
	}
}

// TestStaleEventsAfterKeepAliveCloseAreSafe: a keep-alive connection torn
// down with a response still pending must not let stale readable/writable
// events disturb a new connection reusing its pooled record.
func TestStaleEventsAfterKeepAliveCloseAreSafe(t *testing.T) {
	e := newEnv(t)
	e.handler.SetOptions(Options{KeepAlive: true})

	probe := &clientProbe{}
	cc := e.net.ConnectWith(e.k.Now(), netsim.ConnectOptions{RecvWindow: 512, StallReads: true}, &simtest.ConnHooks{
		OnData:       func(_ core.Time, n int) { probe.bytes += n },
		OnPeerClosed: func(core.Time) { probe.closed = true },
	})
	e.k.Sim.Run()
	cc.Send(e.k.Now(), httpsim.FormatRequest11("/index.html", false))
	e.k.Sim.Run()
	e.drive(t)

	fds := e.handler.OpenConns()
	if len(fds) != 1 {
		t.Fatalf("OpenConns = %v", fds)
	}
	stale := fds[0]
	if e.handler.conns.Get(stale).PendingWrite <= 0 {
		t.Fatal("response should have jammed against the stalled window")
	}

	// Shut the connection down with the response still pending, then open a
	// fresh one (the pooled record is reissued) that has request bytes in
	// flight — not yet served, not idle.
	e.closeFDs(stale)
	e.connectAndSend(t, httpsim.FormatPartialRequest("/index.html"))
	e.p.Batch(e.k.Now(), func() { e.handler.AcceptAll(e.k.Now(), e.lfd) }, nil)
	e.k.Sim.Run()
	served, closed := e.handler.Stats.Served, e.handler.Stats.Closed

	// Stale events for the old descriptor must not serve, close or write
	// anything on the new connection.
	e.p.Batch(e.k.Now(), func() {
		e.handler.HandleWritable(e.k.Now(), stale)
		e.handler.HandleReadable(e.k.Now(), stale)
	}, nil)
	e.k.Sim.Run()
	if st := e.handler.Stats; st.Served != served || st.Closed != closed {
		t.Fatalf("stale events changed stats: %+v", st)
	}
	if got := e.handler.Open(); got != 1 {
		t.Fatalf("connections = %d, want the fresh one intact", got)
	}
}

func TestResponseCacheChargesHitMissAsymmetry(t *testing.T) {
	e := newEnv(t)
	e.handler.SetOptions(Options{CacheKB: 64})

	charge := func() core.Duration {
		before := e.p.TotalCharged
		e.connectAndSend(t, httpsim.FormatRequest("/index.html"))
		e.drive(t)
		return e.p.TotalCharged - before
	}
	missCost := charge()
	hitCost := charge()

	if st := e.handler.Stats; st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	pages := int64(httpsim.DefaultDocumentSize+4095) / 4096
	wantDelta := e.k.Cost.FileOpen + core.Duration(pages)*e.k.Cost.FileReadPage - e.k.Cost.CacheHit
	if missCost-hitCost != wantDelta {
		t.Fatalf("miss-hit charge delta = %v, want %v", missCost-hitCost, wantDelta)
	}
	if cs := e.handler.Cache.Stats(); cs.Hits != 1 || cs.Misses != 1 || cs.Inserts != 1 {
		t.Fatalf("cache stats = %+v", cs)
	}
	// Both responses drained, so no pins remain and the entry is evictable.
	if !e.handler.Cache.Contains("/index.html") {
		t.Fatal("document not resident after serving")
	}
}

func TestWriteModeChargeOrdering(t *testing.T) {
	serveCost := func(mode WriteMode) (core.Duration, int) {
		e := newEnv(t)
		e.handler.SetOptions(Options{WriteMode: mode})
		_, probe := e.connectAndSend(t, httpsim.FormatRequest("/index.html"))
		before := e.p.TotalCharged
		e.drive(t)
		if e.handler.Stats.Served != 1 {
			t.Fatalf("%v: served = %d", mode, e.handler.Stats.Served)
		}
		return e.p.TotalCharged - before, probe.bytes
	}

	writev, nv := serveCost(WriteWritev)
	copy2, nc := serveCost(WriteCopy)
	sendfile, ns := serveCost(WriteSendfile)

	// All three paths put the same bytes on the wire.
	if nv != sizeClose || nc != nv || ns != nv {
		t.Fatalf("bytes: writev=%d copy=%d sendfile=%d want %d", nv, nc, ns, sizeClose)
	}
	// Two syscalls cost more than one vectored write; zero-copy costs least.
	if !(sendfile < writev && writev < copy2) {
		t.Fatalf("cost ordering violated: sendfile=%v writev=%v copy=%v", sendfile, writev, copy2)
	}
}
