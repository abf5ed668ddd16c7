// Package rtsig implements the POSIX Real-Time signal event-delivery model of
// the paper (§2, §4): an application assigns a signal number to each open
// descriptor with fcntl(fd, F_SETSIG, signum) — here always SIGRTMIN, as
// phhttpd does, so the queue is one FIFO; the kernel appends a siginfo
// carrying the descriptor and the band (event mask) to the process's RT signal
// queue whenever a read, write or close completes; the application keeps the
// signals masked and collects them one at a time with sigwaitinfo().
//
// The queue is a bounded resource (1024 entries by default). On overflow the
// kernel raises SIGIO; the application must flush pending signals and fall
// back to poll() to discover any remaining activity — the recovery path that
// phhttpd implements so expensively (§6).
//
// The package also implements the paper's proposed sigtimedwait4() extension:
// dequeueing a batch of siginfo structs with a single system call (§6, future
// work), which the hybrid server and the ablation benchmarks exercise.
//
// The per-descriptor signal registrations live in the shared kernel-resident
// interest table of internal/interest, and sigwaitinfo's blocking behaviour
// runs on the shared wait engine; only the signal queue itself is
// mechanism-specific.
package rtsig

import (
	"repro/internal/core"
	"repro/internal/interest"
	"repro/internal/simkernel"
)

// DefaultQueueLimit is the kernel's default maximum RT signal queue length
// ("normally set high enough (1024 by default) that it is never exceeded").
const DefaultQueueLimit = 1024

// OverflowFD is the descriptor value reported in the sentinel event delivered
// when the signal queue has overflowed and SIGIO is pending.
const OverflowFD = -1

// OverflowEvent is the sentinel event a Wait delivers to announce a pending
// SIGIO. The application must call Recover and re-scan with poll().
var OverflowEvent = core.Event{FD: OverflowFD, Ready: core.POLLERR}

// Options configure the RT signal queue.
type Options struct {
	// QueueLimit is the maximum number of queued siginfo entries (default 1024).
	QueueLimit int
	// BatchDequeue enables the sigtimedwait4() extension: Wait(max>1) dequeues
	// up to max events per system call instead of exactly one.
	BatchDequeue bool
}

// DefaultOptions matches phhttpd's configuration on the paper's test kernel.
func DefaultOptions() Options {
	return Options{QueueLimit: DefaultQueueLimit, BatchDequeue: false}
}

// Queue is a process's RT signal queue plus its per-descriptor signal
// assignments. It implements core.Poller so servers can treat it like the
// other mechanisms, with Wait mapping to sigwaitinfo()/sigtimedwait4().
type Queue struct {
	// Set holds the F_SETSIG assignments: Entry.Events is the mask of
	// completions that raise a signal, Entry.File the descriptor whose fasync
	// list we joined.
	interest.Set

	opts    Options
	pending sigFIFO // queued siginfo, oldest first

	overflowed       bool
	overflowReported bool
}

// New creates an RT signal queue for process p.
func New(k *simkernel.Kernel, p *simkernel.Proc, opts Options) *Queue {
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = DefaultQueueLimit
	}
	q := &Queue{opts: opts}
	// Blocking in sigwaitinfo() joins no per-descriptor wait queues and a
	// timeout tears nothing down, so OnBlock and TimeoutTeardown stay nil.
	q.Init(k, p, q, interest.Engine{Name: "rtsig", Collect: q.collect})
	return q
}

// Name implements core.Poller.
func (q *Queue) Name() string { return "rtsig" }

// Options returns the active option set.
func (q *Queue) Options() Options { return q.opts }

// QueueLength reports the number of pending siginfo entries; the hybrid server
// uses it as its load threshold (§4).
func (q *Queue) QueueLength() int { return q.pending.len() }

// Overflowed reports whether the queue has overflowed since the last Recover.
func (q *Queue) Overflowed() bool { return q.overflowed }

// Add implements core.Poller by assigning SIGRTMIN to fd, mirroring
// fcntl(fd, F_SETSIG, SIGRTMIN) plus F_SETOWN and O_ASYNC.
func (q *Queue) Add(fd int, events core.EventMask) error {
	if _, err := q.Bind(fd, events); err != nil {
		return err
	}
	q.P.ChargeSyscall(q.K.Cost.FcntlSetSig)
	return nil
}

// Modify implements core.Poller: it updates the event mask used to filter
// completions for fd.
func (q *Queue) Modify(fd int, events core.EventMask) error {
	e, err := q.Find(fd)
	if err != nil {
		return err
	}
	q.P.ChargeSyscall(q.K.Cost.FcntlSetSig)
	e.Events = events
	return nil
}

// Remove implements core.Poller. Siginfo entries already queued for fd remain
// on the queue (the paper: "Events queued before an application closes a
// connection will remain on the RT signal queue, and must be processed and/or
// ignored by applications").
func (q *Queue) Remove(fd int) error {
	e, err := q.Find(fd)
	if err != nil {
		return err
	}
	q.Drop(e)
	return nil
}

// Recover flushes the signal queue after an overflow, mirroring the
// application changing the handler to SIG_DFL to drop pending signals. It
// returns the number of entries flushed; the caller is expected to follow up
// with a poll() over its descriptors to find any remaining activity.
func (q *Queue) Recover() int {
	q.P.ChargeSyscall(q.K.Cost.SigMaskChange)
	flushed := q.pending.len()
	// The flush keeps the ring storage: phhttpd recovers after every
	// overflow, and reallocating the queue each time was measurable.
	q.pending.reset()
	q.overflowed = false
	q.overflowReported = false
	return flushed
}

// Wait implements core.Poller. With max <= 1 (or batch dequeue disabled) it is
// one sigwaitinfo() call returning a single event; with max > 1 and
// BatchDequeue enabled it is the sigtimedwait4() extension returning up to max
// events in one system call. A pending overflow is reported first, as the
// SIGIO sentinel event.
func (q *Queue) Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time)) {
	if max <= 0 || !q.opts.BatchDequeue {
		max = 1
	}
	q.Set.Wait(max, timeout, handler)
}

// collect performs one sigwaitinfo()/sigtimedwait4() dequeue attempt.
func (q *Queue) collect(firstPass bool, max int, buf []core.Event) []core.Event {
	cost := q.K.Cost
	q.Stats.Waits++
	if firstPass {
		q.P.Charge(cost.SyscallEntry)
	} else {
		q.P.Charge(cost.SchedWakeup)
	}
	if q.overflowed && !q.overflowReported {
		// SIGIO announces the overflow; the application learns nothing else
		// from this delivery.
		q.P.Charge(cost.SigDequeue)
		q.overflowReported = true
		q.Stats.EventsReturned++
		return append(buf, OverflowEvent)
	}
	events := buf
	for len(events) < max && !q.pending.empty() {
		si := q.pending.pop()
		if len(events) == 0 {
			q.P.Charge(cost.SigDequeue)
		} else {
			q.P.Charge(cost.SigDequeueBatch)
		}
		events = append(events, core.Event{FD: si.FD, Ready: si.Band, Gen: si.Gen})
		q.Stats.EventsReturned++
	}
	return events
}

// sigFIFO is the pending siginfo queue: a ring over a reused backing array,
// so the enqueue/dequeue churn of a saturated signal path performs no
// allocation at steady state.
type sigFIFO struct {
	buf  []core.Siginfo
	head int
}

func (f *sigFIFO) len() int             { return len(f.buf) - f.head }
func (f *sigFIFO) empty() bool          { return f.head >= len(f.buf) }
func (f *sigFIFO) push(si core.Siginfo) { f.buf = append(f.buf, si) }
func (f *sigFIFO) pop() core.Siginfo {
	si := f.buf[f.head]
	f.head++
	if f.empty() {
		f.reset()
		return si
	}
	// Compact once the dead prefix outweighs the live suffix, so a queue
	// that never fully drains (sustained overload) holds O(pending) memory,
	// not O(total signals).
	if f.head > 64 && f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return si
}
func (f *sigFIFO) reset() {
	f.buf = f.buf[:0]
	f.head = 0
}

// ReadinessChanged implements simkernel.Watcher: an I/O completion on a
// registered descriptor queues an RT signal in interrupt context. The enqueue
// cost includes a per-registered-descriptor component (the fasync list walk),
// which is what makes a large population of idle connections slow the signal
// path down — the effect the paper observed in Figures 12 and 13.
func (q *Queue) ReadinessChanged(now core.Time, fd *simkernel.FD, mask core.EventMask) {
	if q.Wants(fd, mask) == nil {
		return
	}
	cost := q.K.Cost
	enqueueCost := cost.SigEnqueue + cost.SigEnqueuePerFD.Scale(float64(q.Len()))
	q.K.Interrupt(now, enqueueCost, nil)

	// The overflow-storm draw comes first, on every enqueue attempt: an
	// injected storm swallows this enqueue as if a kernel-side burst had
	// already filled the queue, so the signal is dropped, SIGIO raises, and
	// the application must run its recovery rescan.
	if q.Storm() || q.pending.len() >= q.opts.QueueLimit {
		q.Stats.Dropped++
		if !q.overflowed {
			q.overflowed = true
			q.Stats.Overflows++
			q.K.Interrupt(now, cost.SigOverflow, nil)
		}
	} else {
		// The generation records which open of fd.Num this completion belongs
		// to: the siginfo outlives a close of the descriptor (it "remains on
		// the RT signal queue", §4), and by the time it is dequeued the number
		// may name a different connection.
		q.pending.push(core.Siginfo{Band: mask, FD: fd.Num, Gen: fd.Gen})
		q.Stats.Enqueued++
	}

	q.Wake()
}

var _ core.Poller = (*Queue)(nil)
var _ core.StatsSource = (*Queue)(nil)
var _ simkernel.Watcher = (*Queue)(nil)
