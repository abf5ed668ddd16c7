// Package core defines the shared vocabulary of the scalable network I/O
// reproduction: virtual time, poll event masks, the pollfd/dvpoll/siginfo
// structures described in the paper (Provos & Lever, "Scalable Network I/O in
// Linux", FREENIX 2000), and the Poller interface that every event-notification
// mechanism (stock poll(), /dev/poll, POSIX RT signals) implements for the
// simulated servers.
//
// The package has no dependencies so that every other package in the
// repository — the simulated kernel, the network simulator, the mechanisms and
// the servers — can share these types without import cycles.
package core

import (
	"errors"
	"fmt"
	"strings"
)

// Time is an absolute instant of virtual (simulated) time, in nanoseconds
// since the start of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units for virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Forever is a timeout value meaning "block until an event arrives".
const Forever Duration = -1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds of virtual time.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports d as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds reports d as floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats a virtual instant as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// String formats a virtual duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "forever"
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fµs", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// Scale returns d scaled by the factor f, used by the cost model to express
// per-item costs.
func (d Duration) Scale(f float64) Duration { return Duration(float64(d) * f) }

// EventMask is the set of poll events requested for, or reported on, a file
// descriptor. The values match the classic poll(2) bit definitions, plus
// POLLREMOVE which the /dev/poll write() interface uses to delete an interest.
type EventMask uint16

// Poll event bits.
const (
	POLLIN   EventMask = 0x0001 // data available to read, or pending accept
	POLLPRI  EventMask = 0x0002 // urgent data available
	POLLOUT  EventMask = 0x0004 // writing will not block
	POLLERR  EventMask = 0x0008 // error condition (always reported)
	POLLHUP  EventMask = 0x0010 // peer hung up (always reported)
	POLLNVAL EventMask = 0x0020 // invalid descriptor (always reported)

	// POLLREMOVE requests removal of an interest when written to /dev/poll.
	// It mirrors the Solaris /dev/poll extension adopted by the paper.
	POLLREMOVE EventMask = 0x1000
)

// String renders the mask as a "|"-joined list of flag names; bits without a
// name are rendered once, collectively, as a trailing hex literal.
func (m EventMask) String() string {
	if m == 0 {
		return "0"
	}
	type flag struct {
		bit  EventMask
		name string
	}
	flags := []flag{
		{POLLIN, "POLLIN"}, {POLLPRI, "POLLPRI"}, {POLLOUT, "POLLOUT"},
		{POLLERR, "POLLERR"}, {POLLHUP, "POLLHUP"}, {POLLNVAL, "POLLNVAL"},
		{POLLREMOVE, "POLLREMOVE"},
	}
	var b strings.Builder
	for _, f := range flags {
		if m&f.bit != 0 {
			if b.Len() > 0 {
				b.WriteByte('|')
			}
			b.WriteString(f.name)
		}
	}
	if rest := m &^ (POLLIN | POLLPRI | POLLOUT | POLLERR | POLLHUP | POLLNVAL | POLLREMOVE); rest != 0 {
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "0x%x", uint16(rest))
	}
	return b.String()
}

// Has reports whether every bit of want is set in m.
func (m EventMask) Has(want EventMask) bool { return m&want == want }

// Any reports whether any bit of want is set in m.
func (m EventMask) Any(want EventMask) bool { return m&want != 0 }

// PollFD mirrors struct pollfd from Figure 1 of the paper: the descriptor and
// the requested interest mask (the returned events come back as Event).
type PollFD struct {
	FD     int
	Events EventMask
}

// Event is a single readiness report delivered to a server: descriptor FD is
// ready for the operations in Ready. Gen identifies which open of the
// descriptor number the report is about (the generation the kernel stamped on
// the descriptor at open; see simkernel.FD): descriptor numbers are recycled,
// so a report that was in flight when a connection closed carries the same FD
// as a newly accepted connection, and only the generation tells them apart.
// Zero means the mechanism could not attribute the report to a particular
// open (sentinel events such as the RT-signal overflow indication).
type Event struct {
	FD    int
	Ready EventMask
	Gen   uint64
}

// Siginfo mirrors the simplified siginfo struct from Figure 2 of the paper:
// the sigpoll payload carrying the descriptor and the band (event mask) that
// changed. Every queued signal is SIGRTMIN, so the number is not stored. Gen
// records the generation of the descriptor the completion was queued for; the
// real kernel has no such field, which is exactly why the paper warns that
// "events queued before an application closes a connection will remain on the
// RT signal queue, and must be processed and/or ignored by applications" — the
// simulation carries it so the application layer can do that ignoring
// reliably.
type Siginfo struct {
	Band EventMask // si_band: same information as pollfd.revents
	FD   int       // si_fd: the descriptor whose state changed
	Gen  uint64    // generation of the descriptor at enqueue time
}

// Signal numbers used by the RT-signal mechanism. SIGIO is raised when the
// RT signal queue overflows; SIGRTMIN is the signal F_SETSIG assigns.
const (
	SIGIO    = 29
	SIGRTMIN = 33
)

// Errors shared by the event mechanisms.
var (
	// ErrBadFD is returned for operations on descriptors that are not open.
	ErrBadFD = errors.New("core: bad file descriptor")
	// ErrExists is returned when adding an interest that is already present.
	ErrExists = errors.New("core: interest already exists")
	// ErrNotFound is returned when modifying or removing an unknown interest.
	ErrNotFound = errors.New("core: interest not found")
	// ErrClosed is returned for operations on a closed poller or queue.
	ErrClosed = errors.New("core: use of closed poller")
)

// Poller is the server-facing event-notification API. Stock poll(), /dev/poll
// and the RT-signal queue all present this interface to the simulated servers,
// which lets the same server core (thttpd) run on either mechanism and lets the
// hybrid server switch between them.
//
// Wait is asynchronous because the servers run inside a discrete-event
// simulation: the handler is invoked at the virtual instant at which the
// underlying blocking call would have returned, after its CPU cost has been
// charged to the simulated processor.
type Poller interface {
	// Name identifies the mechanism ("poll", "devpoll", "rtsig", ...).
	Name() string

	// Add registers interest in events on fd.
	Add(fd int, events EventMask) error
	// Modify replaces the interest registered for fd.
	Modify(fd int, events EventMask) error
	// Remove deletes the interest registered for fd.
	Remove(fd int) error
	// Interested reports whether fd currently has a registered interest.
	Interested(fd int) bool
	// Len reports the number of registered interests.
	Len() int

	// Wait collects up to max ready events, blocking for at most timeout
	// (Forever blocks indefinitely). The handler receives the ready events and
	// the virtual time at which the call returned.
	Wait(max int, timeout Duration, handler func(events []Event, now Time))

	// Close releases kernel state associated with the poller.
	Close() error
}

// Stats captures mechanism-level counters that the experiments and ablation
// benchmarks report alongside throughput.
type Stats struct {
	Waits          int64 // number of wait invocations (poll/ioctl/sigwaitinfo calls)
	EventsReturned int64 // readiness events delivered to the application
	DriverPolls    int64 // device-driver poll callbacks invoked
	HintHits       int64 // descriptors skipped thanks to driver hints
	CacheHits      int64 // descriptors answered from the cached result
	CopiedIn       int64 // pollfd entries copied user->kernel
	CopiedOut      int64 // pollfd entries copied kernel->user
	Overflows      int64 // RT signal queue overflows (SIGIO raised)
	Enqueued       int64 // RT siginfo entries enqueued
	Dropped        int64 // RT siginfo entries dropped due to overflow
	Interrupts     int64 // blocking waits interrupted by EINTR (fault injection)
}

// Add accumulates o into s, field by field.
func (s *Stats) Add(o Stats) {
	s.Waits += o.Waits
	s.EventsReturned += o.EventsReturned
	s.DriverPolls += o.DriverPolls
	s.HintHits += o.HintHits
	s.CacheHits += o.CacheHits
	s.CopiedIn += o.CopiedIn
	s.CopiedOut += o.CopiedOut
	s.Overflows += o.Overflows
	s.Enqueued += o.Enqueued
	s.Dropped += o.Dropped
	s.Interrupts += o.Interrupts
}

// StatsSource is implemented by mechanisms that expose their Stats.
type StatsSource interface {
	MechanismStats() Stats
}
