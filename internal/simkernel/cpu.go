package simkernel

import "repro/internal/core"

// CPU models one processor of the simulated server host (the paper's
// 400 MHz AMD K6-2). Work is serialised first-come first-served: a request for
// `cost` of processing that arrives at time `now` starts no earlier than the
// completion of previously accepted work and finishes `cost` later.
//
// Interrupt-context work (network arrivals, signal enqueueing) and process
// context work (the server's event loop) share the same processor, which is
// exactly the contention the paper's overload experiments exercise. An SMP
// host is a Scheduler over several CPUs: work bound to different CPUs overlaps
// in virtual time, while contention within one core still serialises.
type CPU struct {
	sim *Simulator

	// q is the scheduling handle completion events go through: the one lane
	// of an unsharded simulator, the CPU's home lane on a sharded one
	// (assigned by Kernel.EnableParallel). Everything that runs "on" this CPU
	// — batches, interrupts, their completions — executes on that lane.
	q Q

	// Index is the CPU's position in its Scheduler (0 on a uniprocessor).
	Index int

	// busyUntil is the instant at which all currently accepted work completes.
	busyUntil core.Time

	// Busy accumulates total processing time accepted, for utilisation reports.
	Busy core.Duration

	// Jobs counts Exec invocations.
	Jobs int64
}

// NewCPU returns a CPU bound to the given simulator.
func NewCPU(sim *Simulator) *CPU {
	return &CPU{sim: sim, q: sim.LaneQ(0)}
}

// Q returns the CPU's scheduling handle (its home lane on a sharded run).
func (c *CPU) Q() Q { return c.q }

// Exec accepts a unit of work costing cost at virtual time now and schedules
// done (if non-nil) at its completion instant, which is returned. A negative
// cost is treated as zero.
func (c *CPU) Exec(now core.Time, cost core.Duration, done func(now core.Time)) core.Time {
	if cost < 0 {
		cost = 0
	}
	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	finish := start.Add(cost)
	c.busyUntil = finish
	c.Busy += cost
	c.Jobs++
	if done != nil {
		c.q.At(finish, done)
	}
	return finish
}

// BusyUntil reports the completion instant of all accepted work.
func (c *CPU) BusyUntil() core.Time { return c.busyUntil }

// Utilization reports the fraction of virtual time the CPU has been busy,
// measured against the supplied elapsed window. It returns 0 for an empty
// window. The ratio is deliberately not clamped: because the CPU serialises
// work, Busy can never exceed the makespan of the accepted work (BusyUntil),
// so a ratio above 1 against a window covering that makespan means a batch was
// double-charged — a bug the old clamp used to mask. Callers measuring
// mid-run, against a window the accepted work overruns, should widen the
// window to BusyUntil (see WorkWindow).
func (c *CPU) Utilization(elapsed core.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Busy) / float64(elapsed)
}

// WorkWindow returns the wall window that is guaranteed to contain all
// accepted work as of virtual time now: Utilization(WorkWindow(now)) <= 1
// holds for a correctly charging simulation even while work is still queued.
func (c *CPU) WorkWindow(now core.Time) core.Duration {
	if c.busyUntil > now {
		now = c.busyUntil
	}
	return now.Sub(0)
}

// QueueDelay reports how long newly submitted work would wait before starting
// if submitted at time now.
func (c *CPU) QueueDelay(now core.Time) core.Duration {
	if c.busyUntil <= now {
		return 0
	}
	return c.busyUntil.Sub(now)
}
