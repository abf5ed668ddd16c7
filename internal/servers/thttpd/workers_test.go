package thttpd

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

// startWorkers builds an n-worker server on epoll on a fresh SMP kernel and
// network.
func startWorkers(t *testing.T, n int, mode Mode, shard netsim.ShardPolicy) (*simkernel.Kernel, *netsim.Network, *Server) {
	t.Helper()
	k := simkernel.NewKernelSMP(nil, n)
	cfg := netsim.DefaultConfig()
	cfg.Shard = shard
	net := netsim.New(k, cfg)
	sc := DefaultConfig()
	sc.Workers = n
	sc.Mode = mode
	sc.Backend = "epoll"
	s := New(k, net, sc)
	s.Start()
	// Execute the start batches; a full Run would never return, since the
	// dispatch loops re-arm their wait timeouts forever.
	k.Sim.RunUntil(core.Time(core.Millisecond))
	return k, net, s
}

// drive issues count sequential HTTP requests and returns how many complete.
func drive(k *simkernel.Kernel, net *netsim.Network, count int) int {
	completed := 0
	request := []byte("GET /index.html HTTP/1.0\r\n\r\n")
	for i := 0; i < count; i++ {
		var conn *netsim.ClientConn
		conn = net.ConnectWith(k.Now().Add(core.Duration(i)*core.Millisecond), netsim.ConnectOptions{}, &simtest.ConnHooks{
			OnConnected: func(now core.Time) { conn.Send(now, request) },
			OnPeerClosed: func(now core.Time) {
				completed++
			},
		})
	}
	k.Sim.RunUntil(k.Now().Add(30 * core.Second))
	return completed
}

func TestReuseportRegistersOneListenerPerWorker(t *testing.T) {
	k, net, s := startWorkers(t, 4, ModeReuseport, netsim.ShardHash)
	if got := len(net.Listeners()); got != 4 {
		t.Fatalf("listeners = %d, want 4", got)
	}
	completed := drive(k, net, 40)
	if completed != 40 {
		t.Fatalf("completed = %d, want 40", completed)
	}
	served := s.PerWorkerServed()
	total := int64(0)
	for i, n := range served {
		if n == 0 {
			t.Fatalf("worker %d served nothing: %v", i, served)
		}
		total += n
	}
	if total != 40 {
		t.Fatalf("total served = %d, want 40 (%v)", total, served)
	}
	s.Stop()
}

func TestHandoffSingleListenerDealsRoundRobin(t *testing.T) {
	k, net, s := startWorkers(t, 4, ModeHandoff, netsim.ShardHash)
	if got := len(net.Listeners()); got != 1 {
		t.Fatalf("listeners = %d, want 1 (single acceptor)", got)
	}
	completed := drive(k, net, 40)
	if completed != 40 {
		t.Fatalf("completed = %d, want 40", completed)
	}
	if s.Handoffs != 40 {
		t.Fatalf("handoffs = %d, want 40", s.Handoffs)
	}
	for i, n := range s.PerWorkerServed() {
		if n != 10 {
			t.Fatalf("worker %d served %d, want 10 (round-robin): %v", i, n, s.PerWorkerServed())
		}
	}
	s.Stop()
}

// Workers on distinct CPUs must all do work; the kernel's other CPUs see the
// traffic their worker owns.
func TestWorkersSpreadAcrossCPUs(t *testing.T) {
	k, net, s := startWorkers(t, 2, ModeReuseport, netsim.ShardHash)
	if drive(k, net, 30) != 30 {
		t.Fatal("not all requests completed")
	}
	for i := 0; i < 2; i++ {
		if k.Sched.CPU(i).Jobs == 0 {
			t.Fatalf("CPU %d did no work", i)
		}
	}
	s.Stop()
}

// Two identical multi-worker runs must be byte-for-byte deterministic.
func TestPreforkDeterminism(t *testing.T) {
	type outcome struct {
		Completed int
		Served    []int64
		Executed  int64
		Now       core.Time
	}
	run := func() outcome {
		k, net, s := startWorkers(t, 4, ModeReuseport, netsim.ShardHash)
		completed := drive(k, net, 50)
		s.Stop()
		k.Sim.RunUntil(k.Now().Add(5 * core.Second))
		return outcome{Completed: completed, Served: s.PerWorkerServed(), Executed: k.Sim.Executed, Now: k.Now()}
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}
