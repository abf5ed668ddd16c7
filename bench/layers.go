package main

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoll"
	"repro/internal/eventlib"
	"repro/internal/httpsim"
	"repro/internal/interest"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rcache"
	"repro/internal/simkernel"
	"repro/internal/simtest"
	"repro/internal/stockpoll"
)

// The layer suite times one hot operation per layer with testing.Benchmark.
// Each case builds its own minimal kernel, process and network through the
// packages' public constructors, so a change to one layer moves its own row.

// layerCase is one row of the suite; it reports <name>_ns and <name>_allocs.
type layerCase struct {
	name string
	fn   func(b *testing.B)
}

var layerCases = []layerCase{
	{"simkernel.queue", benchQueue},
	{"simkernel.shard2", benchShard2},
	{"interest.table_each501", benchTableEach},
	{"interest.ledger", benchLedger},
	{"stockpoll.wait501", func(b *testing.B) { benchWait501(b, stockpollOpen) }},
	{"epoll.wait501", func(b *testing.B) { benchWait501(b, epollOpen) }},
	{"eventlib.dispatch", benchDispatch},
	{"eventlib.timer", benchTimer},
	{"netsim.conn", benchConn},
	{"netsim.send", benchSend},
	{"httpsim.parse", benchParse},
	{"httpsim.format", benchFormat},
	{"rcache.hit", benchCacheHit},
	{"metrics.observe", benchObserve},
}

// layerBenchTime is each case's testing.Benchmark target; with its ramp-up
// the whole suite takes about ten seconds.
const layerBenchTime = 300 * time.Millisecond

// runLayers runs every case and returns its per-op time and allocations.
func runLayers() (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", layerBenchTime.String()); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, c := range layerCases {
		r := testing.Benchmark(c.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("layer case %s failed", c.name)
		}
		out[c.name+"_ns"] = float64(r.T.Nanoseconds()) / float64(r.N)
		out[c.name+"_allocs"] = float64(r.MemAllocs) / float64(r.N)
	}
	return out, nil
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink any

func nop(core.Time) {}

// xorshift is a fixed pseudo-random sequence for schedule offsets.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// benchQueue: one At plus one pop with 4096 events pending.
func benchQueue(b *testing.B) {
	s := simkernel.NewSimulator()
	rng := xorshift(88172645463325252)
	delay := func() core.Duration { return core.Duration(1 + rng.next()%uint64(core.Millisecond)) }
	for i := 0; i < 4096; i++ {
		s.At(s.Now().Add(delay()), nop)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now().Add(delay()), nop)
		s.Step()
	}
}

// benchShard2: one cross-lane round trip (two Posts, each across an epoch
// barrier) on a 2-lane sharded simulator driven by 2 workers.
func benchShard2(b *testing.B) {
	const lookahead = core.Microsecond
	s := simkernel.NewSimulator()
	s.EnableSharding(2, 2, lookahead)
	q0, q1 := s.LaneQ(0), s.LaneQ(1)
	rounds := 0 // touched by lane 0 only
	var ping, pong func(now core.Time)
	ping = func(now core.Time) {
		if rounds == b.N {
			return
		}
		rounds++
		q0.Post(q1, now.Add(lookahead), pong)
	}
	pong = func(now core.Time) { q1.Post(q0, now.Add(lookahead), ping) }
	q0.At(0, ping)
	b.ResetTimer()
	s.Run()
	if rounds != b.N {
		b.Fatalf("ran %d round trips, want %d", rounds, b.N)
	}
}

// benchTableEach: one Each over a 501-entry interest table.
func benchTableEach(b *testing.B) {
	t := interest.NewTable()
	for fd := 3; fd < 3+501; fd++ {
		t.Set(fd, core.POLLIN)
	}
	n := 0
	visit := func(*interest.Entry) { n++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Each(visit)
	}
	sink = n
}

// benchLedger: one Mark plus a Scan that consumes it.
func benchLedger(b *testing.B) {
	l := interest.NewLedger()
	consume := func(int, core.EventMask, uint64) bool { return false }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Mark(3+i%64, core.POLLIN, uint64(i))
		l.Scan(consume)
	}
}

func stockpollOpen(k *simkernel.Kernel, p *simkernel.Proc) core.Poller { return stockpoll.New(k, p) }
func epollOpen(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
	return epoll.Open(k, p, epoll.DefaultOptions())
}

// benchWait501: one non-blocking Wait, through to its handler, over 501 idle
// descriptors and one ready one (the paper's load-501 interest set).
func benchWait501(b *testing.B, open func(*simkernel.Kernel, *simkernel.Proc) core.Poller) {
	env := simtest.NewEnv()
	pl := open(env.K, env.P)
	for i := 0; i < 501; i++ {
		fd, _ := env.NewFD(0)
		if err := pl.Add(fd.Num, core.POLLIN); err != nil {
			b.Fatal(err)
		}
	}
	fd, f := env.NewFD(0)
	if err := pl.Add(fd.Num, core.POLLIN); err != nil {
		b.Fatal(err)
	}
	f.SetReady(env.K.Now(), core.POLLIN)
	got := 0
	handler := func(events []core.Event, _ core.Time) { got += len(events) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Wait(1024, 0, handler)
		env.Run()
	}
	b.StopTimer()
	if got != b.N {
		b.Fatalf("%s delivered %d events in %d waits, want one per wait", pl.Name(), got, b.N)
	}
}

// benchDispatch: one eventlib dispatch iteration delivering one ready
// persistent read event over epoll.
func benchDispatch(b *testing.B) {
	env := simtest.NewEnv()
	base, err := eventlib.New(env.K, env.P, eventlib.Config{Backend: "epoll"})
	if err != nil {
		b.Fatal(err)
	}
	fd, _ := env.NewFD(core.POLLIN)
	fired := 0
	ev := base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist, func(int, eventlib.What, core.Time) {
		fired++
		if fired == b.N {
			base.Stop()
		}
	})
	if err := ev.Add(0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	base.Dispatch()
	env.Run()
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d times, want %d", fired, b.N)
	}
}

// benchTimer: one timer Add plus its firing, each through a dispatch
// iteration whose wait times out.
func benchTimer(b *testing.B) {
	env := simtest.NewEnv()
	base, err := eventlib.New(env.K, env.P, eventlib.Config{Backend: "epoll"})
	if err != nil {
		b.Fatal(err)
	}
	fired := 0
	var tm *eventlib.Event
	tm = base.NewTimer(0, func(int, eventlib.What, core.Time) {
		fired++
		if fired < b.N {
			if err := tm.Add(core.Millisecond); err != nil {
				panic(err)
			}
		}
	})
	if err := tm.Add(core.Millisecond); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	base.Dispatch()
	env.Run()
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d times, want %d", fired, b.N)
	}
}

// testbed is a network with one listening server process.
type testbed struct {
	k   *simkernel.Kernel
	net *netsim.Network
	p   *simkernel.Proc
	api *netsim.SockAPI
	lfd *simkernel.FD
}

func newTestbed(cfg netsim.Config) *testbed {
	k := simkernel.NewKernel(nil)
	tb := &testbed{k: k, net: netsim.New(k, cfg), p: k.NewProc("server")}
	tb.api = netsim.NewSockAPI(k, tb.p, tb.net)
	tb.p.Batch(0, func() { tb.lfd, _ = tb.api.Listen() }, nil)
	k.Sim.Run()
	return tb
}

// benchConn: one connection's whole life: ConnectWith, Accept, Read, Write,
// Close, and the client port's TIME-WAIT expiry (a 100 µs TIME-WAIT, so the
// next connect expires it).
func benchConn(b *testing.B) {
	cfg := netsim.DefaultConfig()
	cfg.TimeWait = 100 * core.Microsecond
	tb := newTestbed(cfg)
	req := httpsim.FormatRequest("/index.html")
	hooks := &simtest.ConnHooks{}
	var served int
	serve := func() {
		fd, _, err := tb.api.Accept(tb.lfd)
		if err != nil {
			return
		}
		if data, _ := tb.api.Read(fd, 0); len(data) == len(req) {
			served++
		}
		tb.api.Write(fd, httpsim.DefaultDocumentSize)
		tb.api.Close(fd)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc := tb.net.ConnectWith(tb.k.Now(), netsim.ConnectOptions{}, hooks)
		tb.k.Sim.Run()
		cc.Send(tb.k.Now(), req)
		tb.k.Sim.Run()
		tb.p.Batch(tb.k.Now(), serve, nil)
		tb.k.Sim.Run()
	}
	b.StopTimer()
	if served != b.N {
		b.Fatalf("served %d of %d connections", served, b.N)
	}
}

// benchSend: one client Send and the server's Read on an open connection.
func benchSend(b *testing.B) {
	tb := newTestbed(netsim.DefaultConfig())
	cc := tb.net.ConnectWith(0, netsim.ConnectOptions{}, &simtest.ConnHooks{})
	tb.k.Sim.Run()
	var fd *simkernel.FD
	tb.p.Batch(tb.k.Now(), func() { fd, _, _ = tb.api.Accept(tb.lfd) }, nil)
	tb.k.Sim.Run()
	if fd == nil {
		b.Fatal("accept failed")
	}
	req := httpsim.FormatRequest11("/index.html", false)
	got := 0
	read := func() {
		data, _ := tb.api.Read(fd, 0)
		got += len(data)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.Send(tb.k.Now(), req)
		tb.k.Sim.Run()
		tb.p.Batch(tb.k.Now(), read, nil)
		tb.k.Sim.Run()
	}
	b.StopTimer()
	if got != b.N*len(req) {
		b.Fatalf("read %d bytes, want %d", got, b.N*len(req))
	}
}

// benchParse: Feed one whole HTTP/1.1 request, then Reset.
func benchParse(b *testing.B) {
	p := httpsim.NewParser()
	req := httpsim.FormatRequest11(httpsim.DefaultDocumentPath, false)
	for i := 0; i < b.N; i++ {
		complete, err := p.Feed(req)
		if err != nil || !complete {
			b.Fatalf("Feed = %v, %v", complete, err)
		}
		p.Reset()
	}
}

// benchFormat: one keep-alive HTTP/1.1 response head.
func benchFormat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = httpsim.ResponseHeadVersion(httpsim.StatusOK, httpsim.DefaultDocumentSize, true, true)
	}
}

// benchCacheHit: Acquire of a resident document plus its Release.
func benchCacheHit(b *testing.B) {
	c := rcache.New(64 * 1024)
	path := httpsim.DefaultDocumentPath
	c.Acquire(path, httpsim.DefaultDocumentSize)
	c.Release(path)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit := c.Acquire(path, httpsim.DefaultDocumentSize); !hit {
			b.Fatal("resident document missed")
		}
		c.Release(path)
	}
}

// benchObserve: one LatencyHist observation over a spread of latencies.
func benchObserve(b *testing.B) {
	var h metrics.LatencyHist
	rng := xorshift(2463534242)
	for i := 0; i < b.N; i++ {
		h.Observe(core.Duration(rng.next() % uint64(100*core.Millisecond)))
	}
	sink = h.Count()
}
