// Package epoll simulates the Linux epoll interface — the mechanism history
// actually converged on after the paper's /dev/poll and RT-signal experiments
// (epoll_create/epoll_ctl/epoll_wait, merged in Linux 2.5/2.6). It is the
// fourth Poller of the reproduction and a direct application of the
// explicit-event-delivery lineage (Banga, Mogul & Druschel, USENIX '99) the
// paper cites as related work.
//
// Like /dev/poll, epoll keeps the interest set resident in the kernel and
// updates it incrementally, so registration costs are paid once rather than
// per wait. Unlike /dev/poll, epoll_wait does not scan the interest set at
// all: the kernel maintains a ready list that drivers append to, and a wait
// touches only that list — O(ready) work independent of the number of
// registered descriptors. Both trigger modes are modelled:
//
//   - level-triggered (the default): a descriptor stays on the ready list
//     while it remains ready; each epoll_wait re-validates it with the device
//     driver's poll callback, exactly like the kernel's ep_send_events loop;
//   - edge-triggered (EPOLLET): a descriptor is queued once per readiness
//     transition and delivered without re-validation; consumers must drain
//     descriptors fully or they stall.
//
// The whole mechanism is a thin layer over the shared engine in
// internal/interest: the kernel-resident Table is the epoll interest set (the
// real kernel uses a red-black tree; the paper's chained hash table serves the
// same role here), the readiness Ledger is the ready list, and the Engine is
// the blocking epoll_wait state machine.
package epoll

import (
	"repro/internal/core"
	"repro/internal/interest"
	"repro/internal/simkernel"
)

// Options configure an epoll instance.
type Options struct {
	// EdgeTriggered selects EPOLLET semantics for every registered descriptor
	// (the simulation applies one trigger mode per instance).
	EdgeTriggered bool
}

// MaxEvents is the result capacity of a Wait called with max <= 0 (the
// maxevents argument of epoll_wait), matching the /dev/poll result area so
// comparisons are fair.
const MaxEvents = 4096

// DefaultOptions selects level-triggered delivery.
func DefaultOptions() Options {
	return Options{EdgeTriggered: false}
}

// Epoll is one epoll instance: the kernel-resident interest set plus the
// ready list, as created by epoll_create(2).
type Epoll struct {
	interest.Set // interest set (epoll_ctl ADD/MOD/DEL)

	opts  Options
	ready *interest.Ledger // the kernel ready list drivers append to
}

// Open creates an epoll instance for process p, mirroring epoll_create(2).
func Open(k *simkernel.Kernel, p *simkernel.Proc, opts Options) *Epoll {
	ep := &Epoll{opts: opts, ready: interest.NewLedger()}
	ep.Init(k, p, ep, interest.Engine{
		Name:    ep.Name(),
		Collect: ep.collect,
		// Blocking joins the single epoll wait queue.
		OnBlock:         func(bool) { ep.P.Charge(ep.K.Cost.WaitQueueOp) },
		TimeoutTeardown: func() core.Duration { return ep.K.Cost.WaitQueueOp },
	})
	// Closing the epoll descriptor releases the ready list too.
	ep.OnClose = ep.ready.Reset
	return ep
}

// Name implements core.Poller.
func (ep *Epoll) Name() string {
	if ep.opts.EdgeTriggered {
		return "epoll-et"
	}
	return "epoll"
}

// Options returns the active option set.
func (ep *Epoll) Options() Options { return ep.opts }

// Add implements core.Poller: epoll_ctl(EPOLL_CTL_ADD). Registration charges
// the kernel-resident update once; as in the real kernel, the descriptor's
// current readiness is checked at registration time so pre-existing data is
// not lost (important for edge-triggered consumers).
func (ep *Epoll) Add(fd int, events core.EventMask) error {
	e, err := ep.Bind(fd, events)
	if err != nil {
		return err
	}
	ep.P.ChargeSyscall(ep.K.Cost.InterestUpdate)
	ep.primeReadiness(e)
	return nil
}

// Modify implements core.Poller: epoll_ctl(EPOLL_CTL_MOD). The readiness
// check is repeated with the new mask, as ep_modify does.
func (ep *Epoll) Modify(fd int, events core.EventMask) error {
	e, err := ep.Find(fd)
	if err != nil {
		return err
	}
	ep.P.ChargeSyscall(ep.K.Cost.InterestUpdate)
	e.Events = events
	ep.primeReadiness(e)
	return nil
}

// Remove implements core.Poller: epoll_ctl(EPOLL_CTL_DEL). Any pending entry
// on the ready list is discarded with the interest.
func (ep *Epoll) Remove(fd int) error {
	e, err := ep.Find(fd)
	if err != nil {
		return err
	}
	ep.P.ChargeSyscall(ep.K.Cost.InterestUpdate)
	ep.Drop(e)
	ep.ready.Clear(fd)
	return nil
}

// Wait implements core.Poller: one epoll_wait(2). The handler is invoked at
// the virtual instant the call would have returned.
func (ep *Epoll) Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time)) {
	if max <= 0 {
		max = MaxEvents
	}
	ep.Set.Wait(max, timeout, handler)
}

// primeReadiness performs the registration-time readiness check of
// epoll_ctl: the driver poll callback runs once and, if the descriptor is
// already ready for the requested events, it is placed on the ready list.
func (ep *Epoll) primeReadiness(e *interest.Entry) {
	revents := e.File.DriverPoll()
	ep.Stats.DriverPolls++
	if revents.Any(e.Events | core.POLLERR | core.POLLHUP) {
		ep.ready.Mark(e.FD, revents, e.File.Gen)
	}
}

// collect performs one epoll_wait pass: it walks the ready list only, never
// the interest set — the O(ready) scan that distinguishes epoll from both
// stock poll (O(registered) always) and /dev/poll (O(registered) hint checks).
// The walk ends once max events are collected, so a backlog longer than the
// result buffer costs the host nothing until a later wait reaches it.
func (ep *Epoll) collect(firstPass bool, max int, buf []core.Event) []core.Event {
	cost := ep.K.Cost
	ep.Stats.Waits++
	if firstPass {
		ep.P.Charge(cost.SyscallEntry)
	} else {
		ep.P.Charge(cost.SchedWakeup)
	}
	events := buf
	ep.ready.Scan(func(fd int, pending core.EventMask, gen uint64) (keep bool) {
		if len(events) >= max {
			// Result buffer full: end the walk, leaving this entry and the
			// rest queued, untouched, for the next wait.
			ep.ready.Stop()
			return true
		}
		e := ep.Table.Lookup(fd)
		if e == nil {
			// Interest vanished while queued; drop the stale ready entry.
			return false
		}
		want := e.Events | core.POLLERR | core.POLLHUP | core.POLLNVAL
		if ep.opts.EdgeTriggered {
			// EPOLLET: the recorded transition is the event; deliver it once
			// and drop the mark. No driver re-validation happens, so the
			// report keeps the generation of the transition it records.
			revents := pending & want
			if revents == 0 {
				return false
			}
			events = append(events, core.Event{FD: fd, Ready: revents, Gen: gen})
			return false
		}
		// Level-triggered: re-validate with the driver, exactly like
		// ep_send_events re-polling each ready-list entry.
		entry, ok := ep.P.Get(fd)
		if !ok {
			events = append(events, core.Event{FD: fd, Ready: core.POLLNVAL, Gen: gen})
			return false
		}
		revents := entry.DriverPoll() & want
		ep.Stats.DriverPolls++
		if revents == 0 {
			// No longer ready (consumed since it was queued): off the list.
			return false
		}
		events = append(events, core.Event{FD: fd, Ready: revents, Gen: entry.Gen})
		// Still ready: it stays on the ready list, so the next level-triggered
		// wait reports it again until the application drains it.
		return true
	})
	if len(events) > 0 {
		// epoll_wait copies the result array out to user space.
		ep.P.Charge(cost.PollCopyOut.Scale(float64(len(events))))
		ep.Stats.CopiedOut += int64(len(events))
		ep.Stats.EventsReturned += int64(len(events))
	}
	return events
}

// ReadinessChanged implements simkernel.Watcher: the device driver's wakeup
// callback appends the descriptor to the ready list (ep_poll_callback) in
// interrupt context and wakes epoll_wait if it is blocked.
func (ep *Epoll) ReadinessChanged(now core.Time, fd *simkernel.FD, mask core.EventMask) {
	if ep.Wants(fd, mask) == nil {
		return
	}
	if ep.ready.Mark(fd.Num, mask, fd.Gen) {
		ep.K.Interrupt(now, ep.K.Cost.HintPost, nil)
	}
	ep.Wake()
}

var _ core.Poller = (*Epoll)(nil)
var _ core.StatsSource = (*Epoll)(nil)
var _ simkernel.Watcher = (*Epoll)(nil)
