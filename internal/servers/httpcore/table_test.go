package httpcore

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
)

// acceptIdle opens n client connections that each send a partial request and
// accepts them, returning the new descriptors and their clients.
func (e *env) acceptIdle(t *testing.T, n int) ([]int, []*netsim.ClientConn) {
	t.Helper()
	var clients []*netsim.ClientConn
	for i := 0; i < n; i++ {
		cc, _ := e.connectAndSend(t, httpsim.FormatPartialRequest("/index.html"))
		clients = append(clients, cc)
	}
	var fds []int
	e.p.Batch(e.k.Now(), func() { fds = slices.Clone(e.handler.AcceptAll(e.k.Now(), e.lfd)) }, nil)
	e.k.Sim.Run()
	if len(fds) != n {
		t.Fatalf("accepted %v, want %d connections", fds, n)
	}
	return fds, clients
}

// closeFD closes the connection on fd, if one is open, with a reason no
// Stats tally counts.
func (e *env) closeFD(fd int) {
	if c := e.handler.conns.Get(fd); c != nil {
		e.handler.closeConn(c, CloseServed)
	}
}

// closeFDs closes the given connections, in the given order, in one batch.
func (e *env) closeFDs(fds ...int) {
	e.p.Batch(e.k.Now(), func() {
		for _, fd := range fds {
			e.closeFD(fd)
		}
	}, nil)
	e.k.Sim.Run()
}

// checkTable requires Open, OpenConns, the table and the stats to agree.
func (e *env) checkTable(t *testing.T) {
	t.Helper()
	live := 0
	for fd := 0; fd < e.handler.conns.Len(); fd++ {
		c := e.handler.conns.Get(fd)
		if c == nil {
			continue
		}
		live++
		if c.FD == nil || c.FD.Num != fd {
			t.Fatalf("table slot %d holds a record for %v", fd, c.FD)
		}
	}
	open := e.handler.OpenConns()
	if e.handler.Open() != live || len(open) != live {
		t.Fatalf("Open() = %d, OpenConns = %v, live records = %d", e.handler.Open(), open, live)
	}
	if !slices.IsSorted(open) {
		t.Fatalf("OpenConns = %v, not ascending", open)
	}
	if st := e.handler.Stats; st.Accepted-st.Closed != int64(live) {
		t.Fatalf("accepted %d - closed %d != %d live records", st.Accepted, st.Closed, live)
	}
	if got := e.p.NumFDs(); got != live+1 { // the listener
		t.Fatalf("process holds %d descriptors, want %d connections + the listener", got, live)
	}
}

// TestOpenConnsAscendingAfterOutOfOrderCloses: closes in arbitrary order and
// the lowest-fd reuse that follows leave OpenConns in ascending order.
func TestOpenConnsAscendingAfterOutOfOrderCloses(t *testing.T) {
	e := newEnv(t)
	fds, _ := e.acceptIdle(t, 5)
	e.closeFDs(fds[3], fds[0], fds[2])
	if got, want := e.handler.OpenConns(), []int{fds[1], fds[4]}; !slices.Equal(got, want) {
		t.Fatalf("OpenConns = %v, want %v", got, want)
	}
	e.checkTable(t)
	again, _ := e.acceptIdle(t, 2)
	if want := []int{fds[0], fds[2]}; !slices.Equal(again, want) {
		t.Fatalf("reopened on %v, want the lowest free numbers %v", again, want)
	}
	if got, want := e.handler.OpenConns(), []int{fds[0], fds[1], fds[2], fds[4]}; !slices.Equal(got, want) {
		t.Fatalf("OpenConns = %v, want %v", got, want)
	}
	e.checkTable(t)
}

// TestStaleCloseOnRecycledDescriptor: a close through a record that was
// already closed must not touch the connection that has since reopened on its
// descriptor number, nor double-count anything.
func TestStaleCloseOnRecycledDescriptor(t *testing.T) {
	e := newEnv(t)
	fds, _ := e.acceptIdle(t, 2)
	stale := e.handler.conns.Get(fds[0])
	// Closing fds[0] then fds[1] pools both records; the next accept takes
	// fds[1]'s record and the lowest free number, fds[0].
	e.closeFDs(fds[0], fds[1])
	reopened, _ := e.acceptIdle(t, 1)
	if reopened[0] != fds[0] {
		t.Fatalf("reopened on %d, want recycled %d", reopened[0], fds[0])
	}
	fresh := e.handler.conns.Get(fds[0])
	if fresh == nil || fresh == stale {
		t.Fatalf("recycled descriptor holds %p, want a record other than the stale %p", fresh, stale)
	}
	closed, calls := e.handler.Stats.Closed, len(e.closed)
	e.p.Batch(e.k.Now(), func() {
		e.handler.closeConn(stale, CloseServed)
		e.closeFD(fds[1]) // number no longer open
	}, nil)
	e.k.Sim.Run()
	if e.handler.conns.Get(fds[0]) != fresh || fresh.FD == nil {
		t.Fatal("stale close tore down the connection on the recycled descriptor")
	}
	if e.handler.Stats.Closed != closed || len(e.closed) != calls {
		t.Fatalf("stale closes counted: Closed %d -> %d, OnConnClose calls %d -> %d",
			closed, e.handler.Stats.Closed, calls, len(e.closed))
	}
	e.checkTable(t)
}

// TestOpenCountsLiveRecordsThroughChurn alternates accepts and closes, in
// varying order, and checks after every step that Open() is the number of
// live records in the table.
func TestOpenCountsLiveRecordsThroughChurn(t *testing.T) {
	e := newEnv(t)
	for round := 0; round < 6; round++ {
		e.acceptIdle(t, 1+round%3)
		e.checkTable(t)
		open := e.handler.OpenConns()
		var victims []int
		for i := len(open) - 1; i >= 0; i -= 2 { // every other one, highest first
			victims = append(victims, open[i])
		}
		e.closeFDs(victims...)
		e.checkTable(t)
	}
	e.closeFDs(e.handler.OpenConns()...)
	e.checkTable(t)
	if e.handler.Open() != 0 {
		t.Fatalf("Open() = %d after closing every connection", e.handler.Open())
	}
}

// TestSweepIdleClosesInAscendingOrder: the sweep closes exactly the idle
// connections, lowest descriptor first, also when the table was filled out of
// order, and leaves the active one open.
func TestSweepIdleClosesInAscendingOrder(t *testing.T) {
	e := newEnv(t)
	e.handler.IdleTimeout = 10 * core.Second
	fds, clients := e.acceptIdle(t, 5)
	e.closeFDs(fds[1], fds[3])
	e.acceptIdle(t, 1) // reopens on fds[1]

	// Let everything go idle except fds[2], which trickles a header line.
	e.k.Sim.After(11*core.Second, func(core.Time) {})
	e.k.Sim.Run()
	clients[2].Send(e.k.Now(), []byte("Accept: */*\r\n"))
	e.k.Sim.Run()
	e.p.Batch(e.k.Now(), func() { e.handler.HandleReadable(e.k.Now(), fds[2]) }, nil)
	e.k.Sim.Run()

	e.closed = nil
	var n int
	e.p.Batch(e.k.Now(), func() { n = e.handler.SweepIdle(e.k.Now()) }, nil)
	e.k.Sim.Run()
	want := []int{fds[0], fds[1], fds[4]}
	if n != len(want) || !slices.Equal(e.closed, want) {
		t.Fatalf("sweep closed %d: %v, want %v in that order", n, e.closed, want)
	}
	if got := e.handler.OpenConns(); !slices.Equal(got, []int{fds[2]}) {
		t.Fatalf("OpenConns = %v, want the active %d", got, fds[2])
	}
	e.checkTable(t)
}
