// Package devpoll implements the paper's primary contribution: the Linux
// /dev/poll interface (§3). The application's interest set lives inside the
// kernel in a hash table and is maintained incrementally by writing pollfd
// structs to the device (POLLREMOVE deletes an interest); readiness is
// collected with ioctl(DP_POLL). Two further optimisations are modelled
// faithfully:
//
//   - device-driver hints (§3.2): each socket carries a backmap entry, and the
//     driver marks exactly which descriptors changed state, so a DP_POLL scan
//     calls the expensive driver poll callback only for hinted descriptors and
//     for cached results that indicated readiness (which must be re-validated —
//     there are no ready→not-ready hints);
//   - an mmap'd result area (§3.3): DP_ALLOC plus mmap() shares a result buffer
//     between kernel and application, eliminating the per-ready-descriptor
//     copy-out.
//
// The kernel-resident interest table, the hint ledger and the blocking-wait
// state machine all come from the shared engine in internal/interest; this
// package contributes only the /dev/poll semantics and cost charges.
//
// The simulated DP_POLL scan is O(registered): every interest costs a hint
// check (with hints) or a driver poll (without). The host's scan is
// O(candidates): it visits, in table order, only the entries a host-only
// ledger names — written since the last scan, notified by their driver,
// closed, not attached to their open descriptor, or holding a cached result
// that indicated readiness — and charges each per-interest term once, scaled
// by its count. Every other entry is unhinted, and since every readiness gain
// is announced by a driver notification (DESIGN.md §6) it would poll as not
// ready, so skipping it changes no event, counter or charge.
package devpoll

import (
	"repro/internal/core"
	"repro/internal/interest"
	"repro/internal/simkernel"
)

// Options configure which of the paper's optimisations are active; the
// defaults enable everything, and the ablation benchmarks switch them off
// individually.
type Options struct {
	// UseHints enables the device-driver hinting backmap of §3.2.
	UseHints bool
	// UseMmap enables the shared result area of §3.3.
	UseMmap bool
}

// ResultAreaSize is the capacity (in pollfd entries) of the mmap'd result
// area allocated with DP_ALLOC, and the number of results a wait with no
// positive max returns at most.
const ResultAreaSize = 4096

// DefaultOptions enables hints and the mmap result area, as in the paper's
// measured configuration.
func DefaultOptions() Options {
	return Options{UseHints: true, UseMmap: true}
}

// DevPoll is a /dev/poll instance: one open of the device, holding one
// kernel-resident interest set. A process may open /dev/poll more than once to
// maintain several independent sets.
type DevPoll struct {
	interest.Set // kernel-resident interest set; Entry.File is the driver backmap

	opts Options

	hinted *interest.Ledger       // descriptors whose driver posted a hint since the last scan
	cache  core.Paged[cachedPoll] // last result returned by the driver poll, fd-indexed
	// cand names the entries the next scan must visit on the host. It is
	// separate from hinted, whose Mark result decides HintPost charges.
	cand *interest.Ledger

	mmapDone bool

	// Per-scan state of visit, bound once so a scan allocates nothing.
	visitFn    func(e *interest.Entry) bool
	scanMax    int
	scanReady  []core.Event
	visited    int
	hintChecks int
	drvPolls   int
}

// Open opens /dev/poll for process p. It mirrors open("/dev/poll") plus, when
// the mmap result area is enabled, the later DP_ALLOC/mmap setup (charged
// lazily on the first DP_POLL).
func Open(k *simkernel.Kernel, p *simkernel.Proc, opts Options) *DevPoll {
	d := &DevPoll{
		opts:   opts,
		hinted: interest.NewLedger(),
		cand:   interest.NewLedger(),
	}
	d.visitFn = d.visit
	d.Init(k, p, d, interest.Engine{
		Name:    "devpoll",
		Collect: d.collect,
		// Block on the single /dev/poll wait queue.
		OnBlock:         func(bool) { d.P.Charge(d.K.Cost.WaitQueueOp) },
		TimeoutTeardown: func() core.Duration { return d.K.Cost.WaitQueueOp },
	})
	return d
}

// Name implements core.Poller.
func (d *DevPoll) Name() string { return "devpoll" }

// Options returns the active option set.
func (d *DevPoll) Options() Options { return d.opts }

// Add implements core.Poller: a single-entry write() to /dev/poll. The
// descriptor need not be open; its first DP_POLL reports POLLNVAL.
func (d *DevPoll) Add(fd int, events core.EventMask) error {
	if err := d.Admit(fd); err != nil {
		return err
	}
	return d.Update([]core.PollFD{{FD: fd, Events: events}})
}

// Modify implements core.Poller: re-writing an existing descriptor replaces
// its interest (the paper's semantics; Solaris would OR the events in).
func (d *DevPoll) Modify(fd int, events core.EventMask) error {
	if _, err := d.Find(fd); err != nil {
		return err
	}
	return d.Update([]core.PollFD{{FD: fd, Events: events}})
}

// Remove implements core.Poller: a write() carrying POLLREMOVE.
func (d *DevPoll) Remove(fd int) error {
	if _, err := d.Find(fd); err != nil {
		return err
	}
	return d.Update([]core.PollFD{{FD: fd, Events: core.POLLREMOVE}})
}

// Update applies a batch of pollfd updates with a single write() to
// /dev/poll, which is how an application amortises the syscall cost when it
// changes many interests at once (the hybrid server relies on this).
func (d *DevPoll) Update(changes []core.PollFD) error {
	if d.Closed() {
		return core.ErrClosed
	}
	cost := d.K.Cost
	d.P.ChargeSyscall(cost.InterestUpdate.Scale(float64(len(changes))))
	for _, ch := range changes {
		if ch.Events.Has(core.POLLREMOVE) {
			d.removeLocked(ch.FD)
			continue
		}
		e, isNew := d.Table.Upsert(ch.FD)
		d.cand.Mark(ch.FD, 0, 0)
		e.Events = ch.Events
		if isNew {
			// Establish the driver backmap for hints and prime the descriptor
			// so its current state is examined on the next DP_POLL even though
			// no hint has been posted yet.
			var gen uint64
			if entry, ok := d.P.Get(ch.FD); ok {
				entry.AddWatcher(d)
				e.File = entry
				gen = entry.Gen
			}
			d.hinted.Mark(ch.FD, 0, gen)
		}
	}
	return nil
}

// removeLocked drops one interest, its backmap entry, hint and cached result.
func (d *DevPoll) removeLocked(fd int) {
	e := d.Table.Lookup(fd)
	if e == nil {
		return
	}
	d.Drop(e)
	d.hinted.Clear(fd)
	d.cand.Clear(fd)
	if c := d.cache.At(fd); c != nil {
		*c = cachedPoll{}
	}
}

// cachedPoll is one fd's last driver-poll result. The fd-indexed table
// replaces a per-fd hash map: the result cache is consulted for every registered descriptor on
// every DP_POLL scan, squarely on the hot path.
type cachedPoll struct {
	mask  core.EventMask
	valid bool
}

// cacheGet returns the cached driver result for fd, if any.
func (d *DevPoll) cacheGet(fd int) (core.EventMask, bool) {
	c := d.cache.Get(fd)
	return c.mask, c.valid
}

// cachePut records the driver result for fd.
func (d *DevPoll) cachePut(fd int, mask core.EventMask) {
	d.cache.Set(fd, cachedPoll{mask: mask, valid: true})
}

// Wait implements core.Poller: one ioctl(DP_POLL). The handler is invoked at
// the virtual instant the ioctl would have returned.
func (d *DevPoll) Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time)) {
	if max <= 0 {
		max = ResultAreaSize
	}
	if d.opts.UseMmap && max > ResultAreaSize {
		max = ResultAreaSize
	}
	d.Set.Wait(max, timeout, handler)
}

// collect performs one DP_POLL pass over the kernel-resident interest table,
// consulting the hint ledger and the cached results to decide which
// descriptors need the expensive driver poll callback. Only the candidate
// entries are visited on the host; every other entry costs what the walk
// would charge an unhinted, not-ready interest.
func (d *DevPoll) collect(firstPass bool, max int, buf []core.Event) []core.Event {
	cost := d.K.Cost
	d.Stats.Waits++
	if firstPass {
		d.P.Charge(cost.SyscallEntry)
	} else {
		d.P.Charge(cost.SchedWakeup)
	}
	if d.opts.UseMmap && !d.mmapDone {
		// Lazily perform DP_ALLOC + mmap() the first time results are
		// collected through the shared area.
		d.P.Charge(cost.MmapSetup)
		d.mmapDone = true
	}
	// The backmap lock is taken for reading once per scan.
	d.P.Charge(cost.BackmapLock)

	d.scanMax, d.scanReady = max, buf
	d.visited, d.hintChecks, d.drvPolls = 0, 0, 0
	d.Table.EachMarked(d.cand, d.visitFn)
	ready := d.scanReady
	d.scanReady = nil
	if idle := d.Table.Len() - d.visited; d.opts.UseHints {
		// The hint system lets the scan skip the driver entirely.
		d.hintChecks += idle
		d.Stats.HintHits += int64(idle)
	} else {
		d.drvPolls += idle
		d.Stats.DriverPolls += int64(idle)
	}
	d.P.Charge(cost.HintCheck * core.Duration(d.hintChecks))
	d.P.Charge(cost.DriverPoll * core.Duration(d.drvPolls))

	if len(ready) > 0 {
		if !d.opts.UseMmap {
			d.P.Charge(cost.PollCopyOut.Scale(float64(len(ready))))
			d.Stats.CopiedOut += int64(len(ready))
		}
		d.Stats.EventsReturned += int64(len(ready))
	}
	return ready
}

// visit examines one candidate entry exactly as the full DP_POLL walk would,
// counting its charge, and reports whether it must stay a candidate: its
// descriptor is not open or not the one the backmap is attached to (no hint
// can arrive for it), or its driver result indicates readiness.
func (d *DevPoll) visit(e *interest.Entry) bool {
	d.visited++
	fd, want := e.FD, e.Events
	entry, ok := d.P.Get(fd)
	if !ok {
		d.scanReady = interest.AppendEvent(d.scanReady, d.scanMax, core.Event{FD: fd, Ready: core.POLLNVAL})
		return true
	}
	cached, hasCache := d.cacheGet(fd)
	needDriver := d.hinted.Ready(fd) || !d.opts.UseHints
	if !needDriver && hasCache && cached.Any(want|core.POLLERR|core.POLLHUP) {
		// A cached result that indicated readiness must be re-validated
		// every time; there is no ready→not-ready hint.
		needDriver = true
		d.Stats.CacheHits++
	}
	if !needDriver {
		d.hintChecks++
		d.Stats.HintHits++
		return entry != e.File
	}
	revents := entry.Poll()
	d.drvPolls++
	d.Stats.DriverPolls++
	d.cachePut(fd, revents)
	d.hinted.Clear(fd)
	revents &= want | core.POLLERR | core.POLLHUP | core.POLLNVAL
	if revents == 0 {
		return entry != e.File
	}
	d.scanReady = interest.AppendEvent(d.scanReady, d.scanMax, core.Event{FD: fd, Ready: revents, Gen: entry.Gen})
	return true
}

// ReadinessChanged implements simkernel.Watcher: the device driver posts a
// hint to our backmapping list and wakes DP_POLL if it is blocked. Posting the
// hint costs interrupt-context CPU time.
func (d *DevPoll) ReadinessChanged(now core.Time, fd *simkernel.FD, mask core.EventMask) {
	if d.Closed() {
		return
	}
	if d.opts.UseHints {
		if d.hinted.Mark(fd.Num, mask, fd.Gen) {
			d.K.Interrupt(now, d.K.Cost.HintPost, nil)
		}
	}
	d.cand.Mark(fd.Num, 0, 0)
	d.Wake()
}

// FDClosed implements simkernel.CloseWatcher: the next scan revisits the
// entry, which then reports POLLNVAL.
func (d *DevPoll) FDClosed(fd *simkernel.FD) { d.cand.Mark(fd.Num, 0, 0) }

var _ core.Poller = (*DevPoll)(nil)
var _ core.StatsSource = (*DevPoll)(nil)
var _ simkernel.Watcher = (*DevPoll)(nil)
var _ simkernel.CloseWatcher = (*DevPoll)(nil)
