package httpcore_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/rcache"
	"repro/internal/servers/httpcore"
	"repro/internal/servers/thttpd"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

// exchange starts a fresh thttpd/epoll with the given options, drives one
// client connection through the payload, and returns the server, the bytes
// the client received and the server CPU time consumed.
func exchange(opts httpcore.Options, payload []byte) (*thttpd.Server, int, core.Duration) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	cfg := thttpd.DefaultConfig()
	cfg.Backend = "epoll"
	cfg.HTTP = opts
	s := thttpd.New(k, n, cfg)
	s.Start()

	received := 0
	cc := n.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{
		OnData: func(_ core.Time, b int) { received += b },
	})
	k.Sim.After(core.Millisecond, func(now core.Time) { cc.Send(now, payload) })
	k.Sim.RunUntil(core.Time(2 * core.Second))
	s.Stop()
	return s, received, k.CPU.Busy
}

// pipeline builds n keep-alive requests plus one Connection: close request.
func pipeline(n int) []byte {
	var payload []byte
	for i := 0; i < n; i++ {
		payload = append(payload, httpsim.FormatRequest11("/index.html", false)...)
	}
	return append(payload, httpsim.FormatRequest11("/index.html", true)...)
}

// The persistent-connection hot path, one connection at a time.
//
// This example walks the three axes of the HTTP/1.1 hot path that the
// figure-32 family measures at scale, each isolated on a single simulated
// connection so the individual charges are visible:
//
//  1. Keep-alive and pipelining — one connection carries eight pipelined
//     requests plus a final Connection: close; the server answers all nine
//     over a single accept and a single interest-set registration.
//  2. The mmap response cache — the first request for a document charges
//     open(2)+fstat(2) and a page-fault walk (a miss); repeat requests charge
//     only the cache-hit cost. The CPU time of the miss exchange and a hit
//     exchange are printed side by side.
//  3. sendfile versus copy — the same pipelined exchange is served once with
//     two write(2) calls per response (header, then body copied through user
//     space) and once with write+sendfile(2); the zero-copy path's saving is
//     the per-KB copy charge the cost model prices.
func ExampleOptions() {
	cost := simkernel.DefaultCostModel()

	// --- 1. Keep-alive and pipelining ------------------------------------
	// Nine requests, one connection: the server accepts once, registers the
	// descriptor once, and the pipelined batch is dispatched a budget at a
	// time from single readiness events.
	s, received, busy := exchange(httpcore.Options{KeepAlive: true}, pipeline(8))
	st := s.Stats()
	fmt.Println("1. keep-alive + pipelining: 9 requests, 1 connection")
	fmt.Printf("   served=%d kept-alive=%d accepts=%d client-bytes=%d cpu=%v\n",
		st.Served, st.KeptAlive, st.Accepted, received, busy)

	// The same nine requests over nine HTTP/1.0 connections pay nine accepts
	// and nine teardowns.
	var total core.Duration
	var accepts int64
	for i := 0; i < 9; i++ {
		one := []byte(httpsim.FormatRequest("/index.html"))
		s, _, busy := exchange(httpcore.Options{}, one)
		total += busy
		accepts += s.Stats().Accepted
	}
	fmt.Printf("   http/1.0 comparison: 9 connections, accepts=%d cpu=%v (%.2fx the keep-alive cpu)\n\n",
		accepts, total, float64(total)/float64(busy))

	// --- 2. The mmap response cache --------------------------------------
	// With the cache enabled, the first request faults the document in: one
	// FileOpen plus one FileReadPage per page. Every later request for the
	// same document is a hit and charges only CacheHit.
	s, _, _ = exchange(httpcore.Options{KeepAlive: true, CacheKB: 64}, pipeline(8))
	st = s.Stats()
	fmt.Println("2. mmap response cache: first request misses, the rest hit")
	fmt.Printf("   cache-misses=%d cache-hits=%d\n", st.CacheMisses, st.CacheHits)
	pages := rcache.Pages(httpsim.DefaultDocumentSize)
	fmt.Printf("   miss charge: FileOpen %v + %d pages x FileReadPage %v = %v\n",
		cost.FileOpen, pages, cost.FileReadPage,
		cost.FileOpen+core.Duration(pages)*cost.FileReadPage)
	fmt.Printf("   hit charge:  CacheHit %v\n\n", cost.CacheHit)

	// --- 3. sendfile versus copy -----------------------------------------
	// Identical exchanges; only the response write path differs. The copy
	// path pays SockWriteCopyPerKB for every body byte it drags through user
	// space, the sendfile path pays SendfilePage per page instead.
	_, _, copyBusy := exchange(httpcore.Options{KeepAlive: true, WriteMode: httpcore.WriteCopy}, pipeline(8))
	_, _, sfBusy := exchange(httpcore.Options{KeepAlive: true, WriteMode: httpcore.WriteSendfile}, pipeline(8))
	fmt.Println("3. write path: copy vs sendfile, same 9-request exchange")
	fmt.Printf("   copy cpu=%v sendfile cpu=%v (saving %v)\n",
		copyBusy, sfBusy, copyBusy-sfBusy)
	fmt.Printf("   per response: copy charges %v/KB of body, sendfile %v/page\n",
		cost.SockWriteCopyPerKB, cost.SendfilePage)

	// Output:
	// 1. keep-alive + pipelining: 9 requests, 1 connection
	//    served=9 kept-alive=8 accepts=1 client-bytes=56326 cpu=7.451ms
	//    http/1.0 comparison: 9 connections, accepts=9 cpu=11.606ms (1.56x the keep-alive cpu)
	//
	// 2. mmap response cache: first request misses, the rest hit
	//    cache-misses=1 cache-hits=8
	//    miss charge: FileOpen 10.00µs + 2 pages x FileReadPage 3.00µs = 16.00µs
	//    hit charge:  CacheHit 800ns
	//
	// 3. write path: copy vs sendfile, same 9-request exchange
	//    copy cpu=7.469ms sendfile cpu=7.154ms (saving 315.00µs)
	//    per response: copy charges 6.00µs/KB of body, sendfile 500ns/page
}
