// Package stockpoll implements the baseline event-notification mechanism of
// the paper: the stock Linux 2.2 poll() system call. The application keeps its
// interest set in user space as a pollfd array and passes the entire array to
// the kernel on every call; the kernel copies it in, invokes the device
// driver's poll callback for every descriptor, manipulates a wait queue per
// descriptor when it has to block, and copies results back out.
//
// All of those per-interest costs are charged on every Wait, which is exactly
// the O(interest set) behaviour whose breakdown under many inactive
// connections the paper's Figures 4, 6 and 8 document.
//
// The interest set and the blocking-wait state machine come from the shared
// engine in internal/interest — the same kernel-resident structures the other
// mechanisms use — but stock poll still charges the full per-call copy-in,
// full-scan and copy-out costs, so the paper's figures are unchanged: the
// refactor moves code, not costs.
//
// The simulated scan is O(registered); the host's is O(candidates). A scan
// calls the driver only for the entries a host-only ledger names — added or
// modified since the last scan, notified by their driver, ready or not open at
// their last visit — in pollfd-array order, and charges DriverPoll once per
// open descriptor as one count-scaled charge. Every other entry is attached
// to its open descriptor and was not ready at its last visit; because every
// readiness gain is announced by a driver notification (DESIGN.md §6), it
// would poll as not ready, so skipping it changes no event, counter or charge.
package stockpoll

import (
	"repro/internal/core"
	"repro/internal/interest"
	"repro/internal/simkernel"
)

// Poller is a stock poll()-based implementation of core.Poller.
type Poller struct {
	// Set holds the interest set. Insertion-order iteration stands in for
	// the application's pollfd array order; Entry.File is the descriptor
	// whose wait queue the poller watches, from the scan that first resolves
	// the entry until Remove or Close.
	interest.Set

	// cand names the entries the next scan must visit (host-only
	// bookkeeping, never charged): added or modified since the last scan,
	// notified, closed, or ready or not open at their last visit.
	cand  *interest.Ledger
	armed bool // poll() is blocked or about to: readiness changes wake it

	// Per-scan state of visit, bound once so a scan allocates nothing.
	visitFn   func(e *interest.Entry) bool
	scanMax   int
	scanReady []core.Event
	notOpen   int
}

// New creates a poll()-based poller for process p.
func New(k *simkernel.Kernel, p *simkernel.Proc) *Poller {
	pl := &Poller{cand: interest.NewLedger()}
	pl.visitFn = pl.visit
	pl.Init(k, p, pl, interest.Engine{
		Name:    "stockpoll",
		Collect: pl.collect,
		// Nothing ready: join each file's wait queue before sleeping. The
		// rescan path already paid its wait-queue teardown inside collect.
		OnBlock: func(firstPass bool) {
			if firstPass {
				pl.P.Charge(pl.K.Cost.WaitQueueOp.Scale(float64(pl.Len())))
			}
			pl.armed = true
		},
		OnFinish: func() { pl.armed = false },
		TimeoutTeardown: func() core.Duration {
			return pl.K.Cost.WaitQueueOp.Scale(float64(pl.Len()))
		},
	})
	return pl
}

// Name implements core.Poller.
func (pl *Poller) Name() string { return "poll" }

// Add implements core.Poller. Maintaining the pollfd array is a user-space
// operation for stock poll, so it costs nothing in the kernel; the price is
// paid on every Wait instead. The descriptor need not be open: its first
// scan reports POLLNVAL.
func (pl *Poller) Add(fd int, events core.EventMask) error {
	if err := pl.Admit(fd); err != nil {
		return err
	}
	pl.Table.Set(fd, events)
	pl.cand.Mark(fd, 0, 0)
	return nil
}

// Modify implements core.Poller.
func (pl *Poller) Modify(fd int, events core.EventMask) error {
	e, err := pl.Find(fd)
	if err != nil {
		return err
	}
	e.Events = events
	pl.cand.Mark(fd, 0, 0)
	return nil
}

// Remove implements core.Poller.
func (pl *Poller) Remove(fd int) error {
	e, err := pl.Find(fd)
	if err != nil {
		return err
	}
	pl.cand.Clear(fd)
	pl.Drop(e)
	return nil
}

// FDs returns the interest set in pollfd-array order (for tests).
func (pl *Poller) FDs() []int { return pl.Table.FDs() }

// Wait implements core.Poller: one poll() invocation over the whole interest
// set. The handler runs at the virtual instant the call would have returned.
func (pl *Poller) Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time)) {
	if max <= 0 {
		max = pl.Len() + 1
	}
	pl.Set.Wait(max, timeout, handler)
}

// collect performs one pass over the pollfd array, charging the per-call
// copy-in (first pass) or the wakeup and wait-queue teardown (rescan), then a
// driver poll callback per open descriptor, ready or not. Only the candidate
// entries are visited on the host; the rest poll as not ready.
func (pl *Poller) collect(firstPass bool, max int, buf []core.Event) []core.Event {
	pl.Stats.Waits++
	cost := pl.K.Cost
	n := pl.Len()
	if firstPass {
		pl.P.Charge(cost.SyscallEntry)
		// The entire pollfd array is copied into the kernel and parsed.
		pl.P.Charge(cost.PollCopyIn.Scale(float64(n)))
		pl.Stats.CopiedIn += int64(n)
	} else {
		// Wakeup path: the process is rescheduled and the wait queues it
		// joined are torn down.
		pl.P.Charge(cost.SchedWakeup)
		pl.P.Charge(cost.WaitQueueOp.Scale(float64(n)))
	}
	pl.scanMax, pl.scanReady, pl.notOpen = max, buf, 0
	pl.Table.EachMarked(pl.cand, pl.visitFn)
	ready := pl.scanReady
	pl.scanReady = nil
	// Every open descriptor's driver poll callback ran, candidate or not.
	polled := n - pl.notOpen
	pl.P.Charge(cost.DriverPoll * core.Duration(polled))
	pl.Stats.DriverPolls += int64(polled)
	if len(ready) > 0 {
		// Results are copied back to user space.
		pl.P.Charge(cost.PollCopyOut.Scale(float64(len(ready))))
		// The non-amortising part of the 2.2 poll path: for each readiness
		// transition that woke us, the wait queues and interest set were
		// re-walked (see CostModel.PollReadyRescan). This is the cost the
		// /dev/poll hints eliminate.
		pl.P.Charge(cost.PollReadyRescan.Scale(float64(n) * float64(len(ready))))
		pl.Stats.CopiedOut += int64(len(ready))
		pl.Stats.EventsReturned += int64(len(ready))
	}
	return ready
}

// visit polls one candidate entry, attaching the poller to its descriptor's
// wait queue on first sight, and reports whether the entry must stay a
// candidate: its descriptor is not open, or it is ready.
func (pl *Poller) visit(e *interest.Entry) bool {
	f, ok := pl.P.Get(e.FD)
	if !ok {
		pl.notOpen++
		pl.scanReady = interest.AppendEvent(pl.scanReady, pl.scanMax, core.Event{FD: e.FD, Ready: core.POLLNVAL})
		return true
	}
	if e.File != f {
		// First resolve, or the number was reopened: the old descriptor's
		// close already dropped its watchers.
		f.AddWatcher(pl)
		e.File = f
	}
	revents := f.Poll() & (e.Events | core.POLLERR | core.POLLHUP | core.POLLNVAL)
	if revents == 0 {
		return false
	}
	pl.scanReady = interest.AppendEvent(pl.scanReady, pl.scanMax, core.Event{FD: e.FD, Ready: revents, Gen: f.Gen})
	return true
}

// ReadinessChanged implements simkernel.Watcher: a driver announced a
// readiness change on a watched descriptor. The entry is revisited by the
// next scan; if poll() is blocked, the rescan batch begins immediately and
// SchedWakeup is charged inside it.
func (pl *Poller) ReadinessChanged(now core.Time, fd *simkernel.FD, mask core.EventMask) {
	pl.cand.Mark(fd.Num, 0, 0)
	if pl.armed {
		pl.Wake()
	}
}

// FDClosed implements simkernel.CloseWatcher: the next scan revisits the
// entry, which then reports POLLNVAL (or resolves the reopened number).
func (pl *Poller) FDClosed(fd *simkernel.FD) { pl.cand.Mark(fd.Num, 0, 0) }

var _ core.Poller = (*Poller)(nil)
var _ core.StatsSource = (*Poller)(nil)
var _ simkernel.Watcher = (*Poller)(nil)
var _ simkernel.CloseWatcher = (*Poller)(nil)
