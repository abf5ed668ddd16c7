package compio_test

import (
	"fmt"

	"repro/internal/compio"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

// The completion-based fifth mechanism, in isolation.
//
// This example drives the simulated completion-ring interface (an
// io_uring-shaped design) directly rather than through a server. It shows the
// three properties that distinguish the ring from the readiness mechanisms:
//
//  1. Batched submission — registering interest writes a submission entry
//     into a shared ring instead of making a system call; one Enter is
//     charged per batch of entries, either when the SQ fills or lazily on
//     the next wait.
//  2. Registered buffers — descriptors armed for reading carry a pre-pinned
//     fixed buffer, so socket reads skip the copy-to-user portion of their
//     cost.
//  3. CQ overflow and recovery — the completion queue is bounded; when
//     completions arrive faster than the process reaps them the ring drops
//     the excess, raises an overflow flag and, on the next wait, rebuilds
//     the lost completions with one priced rescan of the interest set.
func Example() {
	k := simkernel.NewKernel(nil)
	net := netsim.New(k, netsim.DefaultConfig())
	proc := k.NewProc("compio-example")
	api := netsim.NewSockAPI(k, proc, net)

	// A deliberately tiny ring: the SQ flushes after 4 queued submissions and
	// the CQ overflows past 2 pending completions, so both backpressure paths
	// are visible in a small example.
	opts := compio.DefaultOptions()
	opts.SQSize = 4
	opts.CQSize = 2
	ring := compio.Open(k, proc, opts)

	// --- 1. Batched submission -------------------------------------------
	// A listener plus three connections. Each Add writes one SQE; none of
	// them enters the kernel until the fourth fills the SQ.
	var lfd *simkernel.FD
	proc.Batch(k.Now(), func() {
		lfd, _ = api.Listen()
		if err := ring.Add(lfd.Num, core.POLLIN); err != nil {
			panic(err)
		}
	}, nil)
	conns := make([]*netsim.ClientConn, 3)
	for i := range conns {
		conns[i] = net.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{})
	}
	k.Sim.Run()

	var fds []*simkernel.FD
	proc.Batch(k.Now(), func() {
		for {
			fd, _, err := api.Accept(lfd)
			if err != nil {
				break
			}
			fds = append(fds, fd)
			fmt.Printf("queued SQE for fd %d: SQ holds %d entries, Enter batches so far: %d\n",
				fd.Num, ring.SQPending(), ring.SQFlushes())
			if err := ring.Add(fd.Num, core.POLLIN); err != nil {
				panic(err)
			}
		}
	}, nil)
	k.Sim.Run()
	fmt.Printf("after registering %d descriptors: SQ holds %d entries, Enter batches: %d\n\n",
		ring.Len(), ring.SQPending(), ring.SQFlushes())

	// --- 2. Registered buffers -------------------------------------------
	// The POLLIN registrations armed each connection with a fixed buffer, so
	// the read below costs SockRead minus the copy-to-user component.
	conns[0].Send(k.Now(), make([]byte, 64))
	k.Sim.Run()
	before := proc.TotalCharged
	proc.Batch(k.Now(), func() {
		api.Read(fds[0], 256)
	}, nil)
	k.Sim.Run()
	fmt.Printf("registered-buffer read charged %v (SockRead %v minus copy %v, plus syscall entry %v)\n\n",
		proc.TotalCharged-before, k.Cost.SockRead, k.Cost.SockReadCopy, k.Cost.SyscallEntry)

	// Completions posted during the accept and read phases are still sitting
	// in the CQ. With the SQ empty and the CQ non-empty this wait is a pure
	// user-space reap: no system call is charged.
	ring.Wait(16, 0, func(events []core.Event, now core.Time) {
		fmt.Printf("reaped %d stale completion(s) without entering the kernel\n\n", len(events))
	})
	k.Sim.Run()

	// --- 3. CQ overflow and recovery -------------------------------------
	// All three connections become readable while the process is away from
	// the ring. The CQ holds two completions; the third is dropped and the
	// overflow flag raised.
	for _, c := range conns {
		c.Send(k.Now(), make([]byte, 64))
	}
	k.Sim.Run()
	fmt.Printf("three completions against a CQ of %d: CQ holds %d, overflowed=%v\n",
		opts.CQSize, ring.CQLen(), ring.Overflowed())

	// The next wait notices the flag, rescans the interest set at driver-poll
	// cost, and delivers every lost completion — nothing is silently missing.
	ring.Wait(16, 0, func(events []core.Event, now core.Time) {
		fmt.Printf("at %v recovery wait returned %d event(s):\n", now, len(events))
		for _, ev := range events {
			fmt.Printf("  fd %d ready for %v\n", ev.FD, ev.Ready)
		}
	})
	k.Sim.Run()
	fmt.Printf("overflow recoveries: %d, overflowed=%v\n\n", ring.Recoveries(), ring.Overflowed())

	stats := ring.MechanismStats()
	fmt.Printf("ring stats: waits=%d submissions=%d events=%d dropped=%d doorbells=%d\n",
		stats.Waits, stats.Enqueued, stats.EventsReturned, stats.Dropped, ring.Doorbells())
	fmt.Printf("simulated CPU time consumed: %v\n", k.CPU.Busy)

	// Output:
	// queued SQE for fd 4: SQ holds 1 entries, Enter batches so far: 0
	// queued SQE for fd 5: SQ holds 2 entries, Enter batches so far: 0
	// queued SQE for fd 6: SQ holds 3 entries, Enter batches so far: 0
	// after registering 4 descriptors: SQ holds 0 entries, Enter batches: 1
	//
	// registered-buffer read charged 5.50µs (SockRead 6.00µs minus copy 2.50µs, plus syscall entry 2.00µs)
	//
	// reaped 2 stale completion(s) without entering the kernel
	//
	// three completions against a CQ of 2: CQ holds 2, overflowed=true
	// at 0.000501s recovery wait returned 3 event(s):
	//   fd 4 ready for POLLIN
	//   fd 5 ready for POLLIN
	//   fd 6 ready for POLLIN
	// overflow recoveries: 1, overflowed=false
	//
	// ring stats: waits=2 submissions=4 events=5 dropped=1 doorbells=2
	// simulated CPU time consumed: 118.40µs
}
