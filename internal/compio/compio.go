// Package compio simulates a completion-based I/O facility shaped like Linux
// io_uring — the modern endpoint of the paper's thesis. The paper's mechanisms
// (/dev/poll, RT signals) move the *interest set* into the kernel so that
// declaring interest stops costing a syscall per wait; compio moves the
// *notifications* there too, so that submitting interest and consuming events
// both become shared-memory ring operations with the syscall paid once per
// batch:
//
//   - submission: Add/Modify/Remove append submission entries (poll-add /
//     poll-remove, io_uring's multishot poll) to a user-side submission queue
//     without entering the kernel. One batched Enter — charged RingEnter plus
//     RingSubmit per drained entry — hands the whole batch to the kernel, at
//     the next Wait or earlier when the SQ fills (backpressure flush);
//   - completion: the driver's wakeup callback publishes a completion entry
//     to the CQ ring. The interrupt-context doorbell (RingCQPost) is paid once
//     per posting batch — completions arriving while the CQ is already
//     non-empty coalesce onto the pending doorbell — which is the amortisation
//     the RT-signal queue lacks (it pays SigEnqueue + SigEnqueuePerFD per
//     event). Reaping a completion is a user-space ring read (RingCQReap), so
//     no result array is ever copied out: the CopiedOut stat stays zero, the
//     mmap'd-ring analogue of /dev/poll's result area;
//   - overflow: the CQ ring is finite. When it fills, further completions are
//     dropped and an overflow flag is raised — the analogue of the RT-signal
//     queue overflowing and raising SIGIO, and of phhttpd's sentinel. Recovery
//     is explicit: the next wait re-enters the kernel and rescans the armed
//     interest set with the device drivers, repopulating the CQ from ground
//     truth, exactly the "fall back to a full scan" recovery the paper's §6
//     prescribes. Unlike RT signals the common case never degrades: the CQ is
//     sized like /dev/poll's result area, so overflow needs a pathological
//     burst;
//   - registered buffers: with Options.RegisteredBuffers the ring pays a
//     one-time RingRegisterBuf at open (pinning the fixed buffer pool) and
//     every read interest arms into a registered buffer, so socket reads skip
//     the per-read copy-out component (Cost.SockReadCopy) — io_uring's
//     IORING_REGISTER_BUFFERS.
//
// The mechanism reuses the shared substrate from internal/interest: the Table
// is the kernel-side armed-interest set (what the drained SQEs built), the
// Ledger is the CQ ring (one slot per descriptor — multishot completions for
// the same descriptor coalesce, which is what keeps the ring from overflowing
// under level-style rearming), and the Engine is the blocking wait state
// machine. Delivery is edge-shaped like EPOLLET — a completion records the
// transition that posted it, with the generation captured at posting time so
// stale completions for a recycled descriptor number are dropped by the
// eventlib generation check — but, as with epoll-et, registration primes the
// current readiness so consumers need no unprompted reads (EdgeStyle=false in
// the backend registry).
//
// Sharded-kernel interaction: the CQ doorbell is charged on the owning
// process's own CPU (Kernel.InterruptOn), which on a sharded run is the lane
// every completion for this ring already executes on — connections are homed
// on their server's lane — so per-lane rings compose with the PR 6 parallel
// kernel without cross-lane writes. On a uniprocessor run InterruptOn is
// identical to Interrupt.
package compio

import (
	"repro/internal/core"
	"repro/internal/interest"
	"repro/internal/simkernel"
)

// Options configure a compio ring pair.
type Options struct {
	// SQSize is the submission ring capacity: the number of submission
	// entries that accumulate syscall-free before the ring forces a flush
	// (one io_uring_enter charged for the whole batch). The next Wait always
	// flushes whatever is pending, so SQSize bounds staleness, not
	// correctness. Larger values amortise RingEnter over more submissions.
	SQSize int
	// CQSize is the completion ring capacity. Completions posted while the
	// ring is full are dropped and raise the overflow flag; the next wait
	// runs the recovery rescan.
	CQSize int
	// RegisteredBuffers arms read interests into kernel-registered fixed
	// buffers: one RingRegisterBuf charge at open, and every socket read on
	// an armed descriptor skips the Cost.SockReadCopy component.
	RegisteredBuffers bool
}

// MaxEvents is the reap capacity of a Wait called with max <= 0.
const MaxEvents = 4096

// DefaultOptions matches the /dev/poll and epoll configurations so
// comparisons are fair: a 4096-entry CQ and result capacity, a 64-entry SQ,
// and registered buffers on (the mechanism's headline configuration).
func DefaultOptions() Options {
	return Options{SQSize: 64, CQSize: 4096, RegisteredBuffers: true}
}

// Compio is one ring pair: the user-side submission queue accumulator, the
// kernel-resident armed-interest set, and the completion ring.
//
// Its counters read differently from the other mechanisms': Enqueued counts
// submission entries, Overflows counts CQ overflow episodes, and Dropped
// counts completions lost to a full CQ (all repaired by recovery). CopiedOut
// stays zero: results are reaped from the shared ring, never copied out.
type Compio struct {
	interest.Set // kernel-side armed interests (drained SQEs)

	opts Options
	cq   *interest.Ledger // the completion ring, one slot per descriptor

	sqPending  int  // submission entries enqueued and not yet drained
	overflowed bool // CQ overflowed; next wait must rescan the interest set

	sqFlushes   int64 // forced SQ-full flushes (backpressure enters)
	cqRecovered int64 // overflow recovery rescans performed
	doorbells   int64 // interrupt-context CQ doorbells actually charged
}

// Open creates a compio ring pair for process p (io_uring_setup). With
// registered buffers enabled the fixed buffer pool is registered here, a
// one-time charge like /dev/poll's mmap of its result area.
func Open(k *simkernel.Kernel, p *simkernel.Proc, opts Options) *Compio {
	if opts.SQSize <= 0 {
		opts.SQSize = 64
	}
	if opts.CQSize <= 0 {
		opts.CQSize = 4096
	}
	c := &Compio{opts: opts, cq: interest.NewLedger()}
	if opts.RegisteredBuffers {
		p.ChargeSyscall(k.Cost.RingRegisterBuf)
	}
	c.Init(k, p, c, interest.Engine{
		Name:    c.Name(),
		Collect: c.collect,
		// Blocking joins the ring's single CQ wait queue.
		OnBlock:         func(bool) { c.P.Charge(c.K.Cost.WaitQueueOp) },
		TimeoutTeardown: func() core.Duration { return c.K.Cost.WaitQueueOp },
	})
	// Tearing down the ring releases the registered buffers, the CQ and
	// any unsubmitted SQEs.
	c.OnClose = func() {
		c.Table.Each(func(e *interest.Entry) { e.File.BufferRegistered = false })
		c.cq.Reset()
		c.sqPending = 0
	}
	return c
}

// Name implements core.Poller.
func (c *Compio) Name() string { return "compio" }

// Options returns the active option set.
func (c *Compio) Options() Options { return c.opts }

// SQPending reports the submission entries awaiting the next Enter.
func (c *Compio) SQPending() int { return c.sqPending }

// CQLen reports the completions currently in the ring (for tests).
func (c *Compio) CQLen() int { return c.cq.Len() }

// Overflowed reports whether the CQ has overflowed since the last recovery.
func (c *Compio) Overflowed() bool { return c.overflowed }

// SQFlushes reports how many SQ-full backpressure flushes have happened.
func (c *Compio) SQFlushes() int64 { return c.sqFlushes }

// Recoveries reports how many CQ-overflow recovery rescans have run.
func (c *Compio) Recoveries() int64 { return c.cqRecovered }

// Doorbells reports how many interrupt-context CQ doorbells were charged —
// one per posting batch, however many completions the batch coalesced.
func (c *Compio) Doorbells() int64 { return c.doorbells }

// Add implements core.Poller: append a multishot poll-add submission for fd.
// The entry is armed immediately (validation is synchronous, as the SQE would
// fail at Enter otherwise) but nothing is charged here beyond the arm — the
// syscall cost is paid per batch when the SQ drains.
func (c *Compio) Add(fd int, events core.EventMask) error {
	e, err := c.Bind(fd, events)
	if err != nil {
		return err
	}
	c.arm(e)
	c.enqueueSQE()
	return nil
}

// Modify implements core.Poller: re-arm the multishot poll with a new mask.
func (c *Compio) Modify(fd int, events core.EventMask) error {
	e, err := c.Find(fd)
	if err != nil {
		return err
	}
	e.Events = events
	c.arm(e)
	c.enqueueSQE()
	return nil
}

// Remove implements core.Poller: a poll-remove submission. Any completion
// still in the CQ for the descriptor is cancelled with the interest.
func (c *Compio) Remove(fd int) error {
	e, err := c.Find(fd)
	if err != nil {
		return err
	}
	e.File.BufferRegistered = false
	c.Drop(e)
	c.cq.Clear(fd)
	c.enqueueSQE()
	return nil
}

// Wait implements core.Poller: one CQ reap, entering the kernel only when
// there is something to submit or nothing to reap. The handler is invoked at
// the virtual instant the reap would have returned.
func (c *Compio) Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time)) {
	if max <= 0 {
		max = MaxEvents
	}
	c.Set.Wait(max, timeout, handler)
}

// arm records the SQE's kernel-side effect: the registered-buffer binding for
// read interests, and the registration-time readiness check (io_uring's poll
// arm races the driver exactly like epoll_ctl does, so pre-existing readiness
// posts a completion immediately and consumers need no unprompted reads).
func (c *Compio) arm(e *interest.Entry) {
	e.File.BufferRegistered = c.opts.RegisteredBuffers && e.Events.Any(core.POLLIN)
	revents := e.File.DriverPoll()
	c.Stats.DriverPolls++
	if revents.Any(e.Events | core.POLLERR | core.POLLHUP) {
		// Posted from syscall context: the app is about to reap anyway, so
		// no doorbell fires (and overflow here is repaired like any other).
		c.post(e.FD, revents, e.File.Gen)
	}
}

// enqueueSQE accounts one submission entry. Submissions are free until the SQ
// fills; a full SQ forces a flush so the ring never blocks a registration —
// the explicit backpressure path.
func (c *Compio) enqueueSQE() {
	c.sqPending++
	c.Stats.Enqueued++
	if c.sqPending >= c.opts.SQSize {
		c.sqFlushes++
		c.flushSQ()
	}
}

// flushSQ drains the submission queue into the kernel: one Enter charged for
// the batch, plus the per-entry consume cost.
func (c *Compio) flushSQ() {
	if c.sqPending == 0 {
		return
	}
	c.P.ChargeSyscall(c.K.Cost.RingEnter + c.K.Cost.RingSubmit.Scale(float64(c.sqPending)))
	c.sqPending = 0
}

// post places a completion in the CQ ring, enforcing the ring capacity. It
// returns true when the posting batch was empty before — the caller owes the
// doorbell. A completion for a descriptor already in the ring coalesces onto
// its slot for free (multishot).
func (c *Compio) post(fd int, mask core.EventMask, gen uint64) (doorbell bool) {
	if c.cq.Ready(fd) {
		c.cq.Mark(fd, mask, gen)
		return false
	}
	if c.cq.Len() >= c.opts.CQSize {
		c.drop()
		return false
	}
	wasEmpty := c.cq.Len() == 0
	c.cq.Mark(fd, mask, gen)
	return wasEmpty
}

// drop loses one completion to a full CQ and raises the overflow flag.
func (c *Compio) drop() {
	c.Stats.Dropped++
	if !c.overflowed {
		c.overflowed = true
		c.Stats.Overflows++
	}
}

// collect performs one reap pass over the CQ ring. The syscall is conditional
// — the headline property of the mechanism: when completions are already
// visible in the shared ring and nothing is pending submission, the reap is
// pure user-space work.
func (c *Compio) collect(firstPass bool, max int, buf []core.Event) []core.Event {
	cost := c.K.Cost
	c.Stats.Waits++
	if !firstPass {
		c.P.Charge(cost.SchedWakeup)
	}
	if c.overflowed {
		c.recover()
	} else if firstPass && (c.sqPending > 0 || c.cq.Len() == 0) {
		// Enter the kernel: submit the pending batch and/or prepare to block
		// (io_uring_enter with GETEVENTS). One entry charge for the batch.
		c.P.Charge(cost.SyscallEntry + cost.RingEnter + cost.RingSubmit.Scale(float64(c.sqPending)))
		c.sqPending = 0
	}
	events := buf
	c.cq.Scan(func(fd int, pending core.EventMask, gen uint64) (keep bool) {
		if len(events) >= max {
			// Reap capacity reached: the rest stays in the ring, unvisited.
			c.cq.Stop()
			return true
		}
		e := c.Table.Lookup(fd)
		if e == nil {
			// Interest cancelled while the completion was in flight.
			return false
		}
		// The completion records the transition that posted it; deliver it
		// once with the generation captured at posting time, like EPOLLET.
		revents := pending & (e.Events | core.POLLERR | core.POLLHUP | core.POLLNVAL)
		if revents == 0 {
			return false
		}
		events = append(events, core.Event{FD: fd, Ready: revents, Gen: gen})
		return false
	})
	if n := len(events); n > 0 {
		c.P.Charge(cost.RingCQReap.Scale(float64(n)))
		c.Stats.EventsReturned += int64(n)
	}
	return events
}

// recover repairs a CQ overflow: enter the kernel (draining any pending
// submissions on the way) and rescan every armed interest with its device
// driver, repopulating the ring from ground truth — the paper's §6 "fall back
// to poll" recovery, priced per armed descriptor. The rescan posts directly
// into the ring without the capacity check: it is authoritative, and the
// Ledger coalesces per descriptor so it cannot grow past the interest set.
func (c *Compio) recover() {
	cost := c.K.Cost
	c.P.Charge(cost.SyscallEntry + cost.RingEnter + cost.RingSubmit.Scale(float64(c.sqPending)))
	c.sqPending = 0
	c.Table.Each(func(e *interest.Entry) {
		revents := e.File.DriverPoll()
		c.Stats.DriverPolls++
		if revents.Any(e.Events | core.POLLERR | core.POLLHUP) {
			c.cq.Mark(e.FD, revents, e.File.Gen)
		}
	})
	c.overflowed = false
	c.cqRecovered++
}

// ReadinessChanged implements simkernel.Watcher: the driver's wakeup callback
// posts a completion to the CQ ring in interrupt context. The doorbell charge
// is paid once per posting batch — only when the ring transitions from empty
// — and lands on the owning process's own CPU, so per-lane rings stay
// lane-local on a sharded run.
func (c *Compio) ReadinessChanged(now core.Time, fd *simkernel.FD, mask core.EventMask) {
	if c.Wants(fd, mask) == nil {
		return
	}
	// An injected overflow storm swallows this post as if a kernel-side burst
	// had already filled the ring: the completion is dropped, the overflow
	// flag raises, and the next wait runs the recovery rescan.
	if c.Storm() {
		c.drop()
		c.Wake()
		return
	}
	if c.post(fd.Num, mask, fd.Gen) {
		c.doorbells++
		c.K.InterruptOn(c.P.CPU(), now, c.K.Cost.RingCQPost, nil)
	}
	// Always wake — on overflow the dropped completion still must not strand
	// a blocked waiter; the wake's collect pass runs the recovery.
	c.Wake()
}

var _ core.Poller = (*Compio)(nil)
var _ core.StatsSource = (*Compio)(nil)
var _ simkernel.Watcher = (*Compio)(nil)
