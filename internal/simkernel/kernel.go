package simkernel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
)

// File is the kernel-side view of an open object (a socket, a listener, or the
// /dev/poll device itself). Poll is the device driver's poll callback: it
// reports current readiness without blocking. SetNotifier installs the single
// callback the kernel uses to learn about readiness transitions (the analogue
// of the driver waking a wait queue and, in the paper's extension, posting a
// hint to the backmapping list).
type File interface {
	// Poll reports the file's current readiness (the driver poll callback).
	Poll() core.EventMask
	// SetNotifier installs n to be invoked whenever the file's readiness
	// changes. Passing nil removes the notifier. The kernel installs the
	// descriptor-table entry itself (an *FD is a Notifier), so wiring a
	// descriptor costs no closure.
	SetNotifier(n Notifier)
	// Close releases the underlying object.
	Close(now core.Time)
}

// Notifier receives readiness transitions from a File's device driver.
type Notifier interface {
	Notify(now core.Time, mask core.EventMask)
}

// NotifierFunc adapts a function to the Notifier interface (used by tests).
type NotifierFunc func(now core.Time, mask core.EventMask)

// Notify implements Notifier.
func (f NotifierFunc) Notify(now core.Time, mask core.EventMask) { f(now, mask) }

// Watcher observes readiness transitions on a descriptor. Event mechanisms
// register watchers to implement wait-queue wakeups (stock poll), driver hints
// (/dev/poll backmaps) and asynchronous completion signals (RT signals).
type Watcher interface {
	ReadinessChanged(now core.Time, fd *FD, mask core.EventMask)
}

// Kernel bundles the simulation clock, the server CPUs and the cost model.
// All server-side packages share one Kernel per experiment. CPU is processor 0
// — the whole machine on the paper's uniprocessor testbed, and the default
// interrupt target on an SMP kernel.
type Kernel struct {
	Sim   *Simulator
	Sched *Scheduler
	CPU   *CPU
	Cost  *CostModel

	// Faults is the deterministic fault-injection configuration every layer
	// reads (netsim's socket calls, the interest engine's blocking waits). Its
	// zero value injects nothing and charges nothing; set it before any
	// process, server or connection exists.
	Faults faults.Config
}

// NewKernel creates a uniprocessor kernel with a fresh simulator, the paper's
// testbed. A nil cost model selects DefaultCostModel.
func NewKernel(cost *CostModel) *Kernel {
	return NewKernelSMP(cost, 1)
}

// NewKernelSMP creates a kernel with ncpu processors (at least one). With
// ncpu == 1 it is exactly NewKernel: the uniprocessor model the paper
// measured.
func NewKernelSMP(cost *CostModel, ncpu int) *Kernel {
	if cost == nil {
		cost = DefaultCostModel()
	}
	sim := NewSimulator()
	sched := NewScheduler(sim, ncpu)
	return &Kernel{
		Sim:   sim,
		Sched: sched,
		CPU:   sched.CPU(0),
		Cost:  cost,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() core.Time { return k.Sim.Now() }

// EnableParallel shards the kernel's simulator into numLanes lanes driven by
// the given number of worker goroutines (see Simulator.EnableSharding) and
// homes each CPU on lane (index+1) mod numLanes, keeping lane 0 — the
// experiment-driver lane — free of server CPUs whenever numLanes exceeds the
// CPU count. Must be called before any process, server or event is created so
// every completion path picks up its lane handle.
func (k *Kernel) EnableParallel(numLanes, workers int, lookahead core.Duration) {
	k.Sim.EnableSharding(numLanes, workers, lookahead)
	n := k.Sim.NumLanes()
	for i, c := range k.Sched.CPUs() {
		c.q = k.Sim.LaneQ((i + 1) % n)
	}
}

// Interrupt charges interrupt-context work (packet reception, signal
// enqueueing) to CPU 0 at time now, invoking done at its completion if it is
// non-nil. It returns the completion instant. Work that belongs to a specific
// core (steered IRQs on an SMP host) uses InterruptOn.
func (k *Kernel) Interrupt(now core.Time, cost core.Duration, done func(now core.Time)) core.Time {
	return k.CPU.Exec(now, cost, done)
}

// InterruptOn charges interrupt-context work to the given CPU, modelling IRQ
// steering: on an SMP host the NIC delivers a connection's interrupts to the
// core its worker runs on. A nil cpu selects CPU 0, the uniprocessor default.
func (k *Kernel) InterruptOn(cpu *CPU, now core.Time, cost core.Duration, done func(now core.Time)) core.Time {
	if cpu == nil {
		cpu = k.CPU
	}
	return cpu.Exec(now, cost, done)
}

// FD is an entry in a process's descriptor table. Gen identifies this
// particular open: because POSIX allocates the lowest unused descriptor
// number, a closed number is recycled by the very next open, and a readiness
// report that was in flight when the old descriptor closed carries the same
// number as the new one. The generation is what lets event mechanisms and
// consumers tell the two opens apart — the stale-report hazard the paper warns
// RT-signal applications about (§4).
type FD struct {
	Num  int
	Gen  uint64
	Proc *Proc

	// BufferRegistered marks the descriptor as having a fixed buffer
	// registered with the kernel (compio's registered-buffer reads): socket
	// reads skip the Cost.SockReadCopy component while it is set. Only the
	// compio mechanism sets it; it dies with the descriptor on close.
	BufferRegistered bool

	file     File
	watchers []Watcher
	closed   bool
}

// File returns the underlying open file.
func (fd *FD) File() File { return fd.file }

// Closed reports whether the descriptor has been closed.
func (fd *FD) Closed() bool { return fd.closed }

// Poll reports the file's readiness without charging any CPU cost. Mechanisms
// that model the expense of the driver callback should use DriverPoll.
func (fd *FD) Poll() core.EventMask {
	if fd.closed {
		return core.POLLNVAL
	}
	return fd.file.Poll()
}

// DriverPoll invokes the device driver's poll callback, charging its cost to
// the process's current batch (or directly to the CPU-independent accumulator
// if no batch is active, which only happens in tests).
func (fd *FD) DriverPoll() core.EventMask {
	fd.Proc.Charge(fd.Proc.K.Cost.DriverPoll)
	return fd.Poll()
}

// AddWatcher registers w to be notified of readiness transitions on fd.
func (fd *FD) AddWatcher(w Watcher) {
	for _, existing := range fd.watchers {
		if existing == w {
			return
		}
	}
	fd.watchers = append(fd.watchers, w)
}

// RemoveWatcher unregisters w.
func (fd *FD) RemoveWatcher(w Watcher) {
	for i, existing := range fd.watchers {
		if existing == w {
			fd.watchers = append(fd.watchers[:i], fd.watchers[i+1:]...)
			return
		}
	}
}

// Watchers reports the number of registered watchers (used by tests).
func (fd *FD) Watchers() int { return len(fd.watchers) }

// Notify implements Notifier: it fans a readiness transition out to all
// registered watchers. Files call it (via SetNotifier's installed target)
// whenever their readiness changes.
func (fd *FD) Notify(now core.Time, mask core.EventMask) {
	if fd.closed {
		return
	}
	switch len(fd.watchers) {
	case 0:
	case 1:
		// The overwhelmingly common case: deliver directly. The watcher may
		// remove itself — there is no further iteration to disturb.
		fd.watchers[0].ReadinessChanged(now, fd, mask)
	default:
		// Copy: watchers may remove themselves during delivery. A small stack
		// buffer covers every configuration the servers build (at most one
		// mechanism per fd plus the hybrid's mirrored pair).
		var buf [4]Watcher
		ws := append(buf[:0], fd.watchers...)
		for _, w := range ws {
			w.ReadinessChanged(now, fd, mask)
		}
	}
}

// Proc is a simulated process: a descriptor table plus the batch accounting
// used to charge the cost of a run of system calls to the CPU as one
// scheduling quantum. Each process is pinned to one CPU for its lifetime (hard
// affinity, as a prefork worker in practice); all its batches serialise there.
type Proc struct {
	K    *Kernel
	Name string

	cpu *CPU

	// fds is the descriptor table, indexed by descriptor number (nil = free).
	// POSIX lowest-unused allocation keeps it dense, so lookups are a bounds
	// check and an index — no hashing on the per-syscall path.
	fds     []*FD
	nfds    int    // open descriptors
	freeFD  int    // lowest descriptor number that may be unused
	nextGen uint64 // generation counter stamped onto installed descriptors

	inBatch   bool
	batchCost core.Duration
	deferred  []func(now core.Time)

	// donePool recycles batch-completion records (and their deferred-effect
	// slices and pre-bound callbacks), so submitting a batch to the CPU
	// allocates nothing at steady state. Batches from one process can overlap
	// in flight (the CPU serialises them), so this is a pool, not a single
	// slot.
	donePool []*batchDone

	// TotalCharged accumulates all CPU time charged through this process.
	TotalCharged core.Duration
}

// batchDone carries one batch's completion work: the deferred externally
// visible effects and the caller's done callback. fn is the completion
// closure handed to the CPU, bound once when the record is created and reused
// for the record's whole life.
type batchDone struct {
	p        *Proc
	deferred []func(now core.Time)
	done     func(now core.Time)
	fn       func(now core.Time)
}

// run executes the completion at the batch's finish instant and recycles the
// record.
func (bd *batchDone) run(t core.Time) {
	deferred := bd.deferred
	done := bd.done
	bd.done = nil
	for i, d := range deferred {
		d(t)
		deferred[i] = nil // release the closure for the collector
	}
	bd.deferred = deferred[:0]
	bd.p.donePool = append(bd.p.donePool, bd)
	if done != nil {
		done(t)
	}
}

// NewProc creates a process with an empty descriptor table, pinned to CPU 0.
// Descriptor numbers start at 3, leaving room for the conventional
// stdin/stdout/stderr.
func (k *Kernel) NewProc(name string) *Proc {
	return k.NewProcOn(name, k.CPU)
}

// NewProcOn creates a process pinned to the given CPU (nil selects CPU 0).
func (k *Kernel) NewProcOn(name string, cpu *CPU) *Proc {
	if cpu == nil {
		cpu = k.CPU
	}
	return &Proc{K: k, Name: name, cpu: cpu, freeFD: 3}
}

// CPU returns the processor the process is pinned to.
func (p *Proc) CPU() *CPU { return p.cpu }

// Q returns the scheduling handle of the process's CPU: its home lane on a
// sharded run, the simulator's one lane otherwise.
func (p *Proc) Q() Q { return p.cpu.q }

// Now returns the process's current virtual time: its lane clock on a sharded
// run (the globally correct instant for code executing on this process),
// identical to Kernel.Now on an unsharded one.
func (p *Proc) Now() core.Time { return p.cpu.q.Now() }

// Install allocates the lowest unused descriptor number for f and returns the
// new table entry, mirroring POSIX descriptor allocation: a closed number is
// recycled by the next open. Every install gets a fresh generation so stale
// readiness reports for a previous open of the same number remain
// distinguishable.
func (p *Proc) Install(f File) *FD {
	num := p.freeFD
	for num < len(p.fds) && p.fds[num] != nil {
		num++
	}
	p.freeFD = num + 1
	p.nextGen++
	fd := &FD{Num: num, Gen: p.nextGen, Proc: p, file: f}
	for num >= len(p.fds) {
		p.fds = append(p.fds, nil)
	}
	p.fds[num] = fd
	p.nfds++
	f.SetNotifier(fd)
	return fd
}

// Get returns the descriptor table entry for fd.
func (p *Proc) Get(fd int) (*FD, bool) {
	if fd < 0 || fd >= len(p.fds) || p.fds[fd] == nil {
		return nil, false
	}
	return p.fds[fd], true
}

// NumFDs reports the number of open descriptors.
func (p *Proc) NumFDs() int { return p.nfds }

// FDs returns the open descriptor numbers in ascending order.
func (p *Proc) FDs() []int {
	out := make([]int, 0, p.nfds)
	for n, e := range p.fds {
		if e != nil {
			out = append(out, n)
		}
	}
	return out
}

// CloseFD removes fd from the table and closes the underlying file. The caller
// is responsible for charging the close cost (Cost.SockClose + SyscallEntry).
func (p *Proc) CloseFD(now core.Time, fd int) error {
	e, ok := p.Get(fd)
	if !ok {
		return core.ErrBadFD
	}
	p.fds[fd] = nil
	p.nfds--
	if fd < p.freeFD {
		p.freeFD = fd
	}
	e.closed = true
	e.watchers = nil
	e.file.SetNotifier(nil)
	e.file.Close(now)
	return nil
}

// InBatch reports whether a batch is currently being accumulated.
func (p *Proc) InBatch() bool { return p.inBatch }

// Charge adds d to the cost of the current batch. Outside a batch the cost is
// still accounted in TotalCharged but not scheduled; mechanisms always operate
// inside batches, so this path is only taken by unit tests poking at internals.
func (p *Proc) Charge(d core.Duration) {
	if d < 0 {
		d = 0
	}
	p.TotalCharged += d
	if p.inBatch {
		p.batchCost += d
	}
}

// ChargeSyscall charges the fixed syscall entry/exit cost plus extra.
func (p *Proc) ChargeSyscall(extra core.Duration) {
	p.Charge(p.K.Cost.SyscallEntry + extra)
}

// Defer registers fn to run at the completion instant of the current batch.
// Externally visible effects of system calls (transmitting a response,
// delivering a FIN) are deferred so they become visible only once the CPU has
// actually finished the work that produced them.
func (p *Proc) Defer(fn func(now core.Time)) {
	if !p.inBatch {
		// Outside a batch there is nothing to defer against; run immediately.
		fn(p.Now())
		return
	}
	p.deferred = append(p.deferred, fn)
}

// Batch runs fn as one scheduling quantum of the process at time now: fn
// performs its system calls synchronously, each charging cost via Charge; when
// fn returns, the accumulated cost is submitted to the CPU, deferred effects
// run at the completion instant, and done (if non-nil) is invoked last.
// Nested batches are a programming error.
func (p *Proc) Batch(now core.Time, fn func(), done func(now core.Time)) {
	if p.inBatch {
		panic(fmt.Sprintf("simkernel: nested Batch on process %q", p.Name))
	}
	p.inBatch = true
	p.batchCost = 0
	fn()
	cost := p.batchCost
	p.inBatch = false
	p.batchCost = 0

	var bd *batchDone
	if n := len(p.donePool); n > 0 {
		bd = p.donePool[n-1]
		p.donePool[n-1] = nil
		p.donePool = p.donePool[:n-1]
	} else {
		bd = &batchDone{p: p}
		bd.fn = bd.run
	}
	bd.done = done
	// Hand the accumulated deferred effects to the completion record and take
	// its (drained) slice back, so both backing arrays recycle.
	bd.deferred, p.deferred = p.deferred, bd.deferred[:0]
	p.cpu.Exec(now, cost, bd.fn)
}
