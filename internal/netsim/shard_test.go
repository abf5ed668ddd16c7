package netsim

// Tests for multi-listener accept sharding (SO_REUSEPORT-style), the
// round-robin policy, IRQ steering to the owning worker's CPU, and the
// AcceptDetach/Adopt descriptor-passing primitives behind the prefork
// server's single-acceptor mode.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/simkernel"
)

// smpTestbed builds an n-CPU kernel with one listening worker per CPU.
func smpTestbed(t *testing.T, n int, shard ShardPolicy) (*simkernel.Kernel, *Network, []*SockAPI, []*simkernel.FD, []*Listener) {
	t.Helper()
	k := simkernel.NewKernelSMP(nil, n)
	cfg := DefaultConfig()
	cfg.Shard = shard
	net := New(k, cfg)
	apis := make([]*SockAPI, n)
	lfds := make([]*simkernel.FD, n)
	ls := make([]*Listener, n)
	for i := 0; i < n; i++ {
		p := k.NewProcOn("worker", k.Sched.CPU(i))
		apis[i] = NewSockAPI(k, p, net)
		i := i
		p.Batch(k.Now(), func() { lfds[i], ls[i] = apis[i].Listen() }, nil)
	}
	k.Sim.Run()
	return k, net, apis, lfds, ls
}

func connectN(k *simkernel.Kernel, net *Network, count int) {
	for i := 0; i < count; i++ {
		net.ConnectWith(k.Now().Add(core.Duration(i)*core.Millisecond), ConnectOptions{}, &testHooks{})
	}
	k.Sim.Run()
}

func TestShardHashSpreadsAcrossListeners(t *testing.T) {
	k, net, _, _, ls := smpTestbed(t, 4, ShardHash)
	if len(net.Listeners()) != 4 {
		t.Fatalf("listeners = %d", len(net.Listeners()))
	}
	connectN(k, net, 64)
	total := 0
	for i, l := range ls {
		if l.Backlog() == 0 {
			t.Fatalf("listener %d received no connections", i)
		}
		total += l.Backlog()
	}
	if total != 64 {
		t.Fatalf("total backlog = %d, want 64", total)
	}
}

func TestShardRoundRobinDealsEvenly(t *testing.T) {
	k, net, _, _, ls := smpTestbed(t, 4, ShardRoundRobin)
	connectN(k, net, 64)
	for i, l := range ls {
		if l.Backlog() != 16 {
			t.Fatalf("listener %d backlog = %d, want 16", i, l.Backlog())
		}
	}
}

// A single listener must behave exactly as the paper's topology regardless of
// the configured policy.
func TestSingleListenerIgnoresPolicy(t *testing.T) {
	k, net, _, _, ls := smpTestbed(t, 1, ShardRoundRobin)
	connectN(k, net, 10)
	if ls[0].Backlog() != 10 {
		t.Fatalf("backlog = %d, want 10", ls[0].Backlog())
	}
}

// SYN interrupts are steered to the CPU of the worker whose accept queue
// receives the connection, not funnelled through CPU 0.
func TestIRQSteeringFollowsSharding(t *testing.T) {
	k, net, _, _, _ := smpTestbed(t, 2, ShardRoundRobin)
	jobs0 := k.Sched.CPU(0).Jobs
	jobs1 := k.Sched.CPU(1).Jobs
	connectN(k, net, 8)
	if d := k.Sched.CPU(0).Jobs - jobs0; d != 4 {
		t.Fatalf("CPU 0 took %d SYN interrupts, want 4", d)
	}
	if d := k.Sched.CPU(1).Jobs - jobs1; d != 4 {
		t.Fatalf("CPU 1 took %d SYN interrupts, want 4", d)
	}
}

func TestAcceptDetachAndAdopt(t *testing.T) {
	k, net, apis, lfds, _ := smpTestbed(t, 2, ShardHash)
	var conn *ClientConn
	conn = net.ConnectWith(k.Now(), ConnectOptions{}, &testHooks{
		OnConnected: func(now core.Time) { conn.Send(now, []byte("GET / HTTP/1.0\r\n\r\n")) },
	})
	k.Sim.Run()

	// The hash picked a listener; detach from whichever holds the connection.
	acceptor := 0
	if net.Listeners()[1].Backlog() == 1 {
		acceptor = 1
	}
	adopter := 1 - acceptor

	var sc *ServerConn
	apis[acceptor].P.Batch(k.Now(), func() {
		var ok bool
		sc, ok = apis[acceptor].AcceptDetach(lfds[acceptor])
		if !ok {
			t.Fatal("AcceptDetach found no pending connection")
		}
	}, nil)
	k.Sim.Run()
	if sc.owner != apis[acceptor].P {
		t.Fatal("detached connection not owned by the acceptor")
	}
	if apis[acceptor].P.NumFDs() != 1 { // just the listener
		t.Fatalf("AcceptDetach must not install a descriptor: %d fds", apis[acceptor].P.NumFDs())
	}

	var fd *simkernel.FD
	apis[adopter].P.Batch(k.Now(), func() {
		fd = apis[adopter].Adopt(sc)
	}, nil)
	k.Sim.Run()
	if fd == nil || fd.Proc != apis[adopter].P {
		t.Fatal("adopted descriptor not in the adopter's table")
	}
	if sc.owner != apis[adopter].P {
		t.Fatal("adoption did not re-steer the connection's interrupts")
	}
	// The request bytes that arrived in between are waiting on the connection.
	apis[adopter].P.Batch(k.Now(), func() {
		data, _ := apis[adopter].Read(fd, 0)
		if len(data) == 0 {
			t.Fatal("request data lost across the handoff")
		}
	}, nil)
	k.Sim.Run()
}
