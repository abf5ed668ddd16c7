package simkernel

import (
	"fmt"

	"repro/internal/core"
)

// Scheduler models the processors of the simulated server host. The paper's
// testbed is a uniprocessor, and a Scheduler over one CPU reproduces it
// exactly; the SMP extension places several CPUs behind one virtual clock so
// that processes pinned to different cores execute their batches concurrently
// in virtual time, while work bound to the same core still serialises
// first-come first-served.
//
// The scheduler deliberately models hard affinity only (each Proc is pinned to
// one CPU for its lifetime, as a prefork worker is in practice): there is no
// migration and no load balancing, so simulation runs stay deterministic and a
// single-CPU scheduler is bit-identical to the original uniprocessor model.
type Scheduler struct {
	cpus []*CPU
}

// NewScheduler creates n CPUs (at least one) bound to the simulator.
func NewScheduler(sim *Simulator, n int) *Scheduler {
	if n < 1 {
		n = 1
	}
	s := &Scheduler{cpus: make([]*CPU, n)}
	for i := range s.cpus {
		c := NewCPU(sim)
		s.cpus[i] = c
	}
	return s
}

// NumCPU reports the number of processors.
func (s *Scheduler) NumCPU() int { return len(s.cpus) }

// CPU returns processor i. Out-of-range indexes are a programming error.
func (s *Scheduler) CPU(i int) *CPU {
	if i < 0 || i >= len(s.cpus) {
		panic(fmt.Sprintf("simkernel: CPU index %d outside [0,%d)", i, len(s.cpus)))
	}
	return s.cpus[i]
}

// CPUs returns the processors in index order. The slice is shared; callers
// must not modify it.
func (s *Scheduler) CPUs() []*CPU { return s.cpus }

// Utilizations reports each CPU's busy fraction against its work window at
// time now (see CPU.WorkWindow): per-CPU utilisation in [0,1] for a correctly
// charging simulation.
func (s *Scheduler) Utilizations(now core.Time) []float64 {
	out := make([]float64, len(s.cpus))
	for i, c := range s.cpus {
		out[i] = c.Utilization(c.WorkWindow(now))
	}
	return out
}

// BusyUntil reports the latest completion instant across all CPUs.
func (s *Scheduler) BusyUntil() core.Time {
	var t core.Time
	for _, c := range s.cpus {
		if c.BusyUntil() > t {
			t = c.BusyUntil()
		}
	}
	return t
}
