// Package faults is the deterministic fault-injection plane of the simulator:
// a seeded configuration of syscall faults (EINTR on blocking waits, EAGAIN on
// accept/read/write), resource exhaustion (a per-process RLIMIT_NOFILE that
// makes accept fail with EMFILE) and connection faults (mid-request and
// mid-response resets, silently vanishing peers).
//
// Every decision is a stateless splitmix64 hash of (seed, stream salt,
// sequence): no generator state is shared between lanes, so a sharded run makes the same
// decisions as a sequential one as long as each decision is keyed by a value
// that is itself thread-invariant (a lane-local sequence counter, a
// driver-assigned connection id). The zero Config injects nothing, performs no
// hashing, and charges nothing — the existing figures are byte-identical with
// the fault plane present but disabled.
package faults

import "repro/internal/core"

// Config parameterises the fault plane. The zero value disables every fault
// class; each injection site checks its rate (or limit) before hashing, so a
// disabled class costs nothing on the hot path.
type Config struct {
	// Seed drives every fault decision; runs with equal seeds inject
	// identical faults at identical points.
	Seed uint64

	// --- syscall faults ---

	// EINTRRate is the probability that one blocking-wait episode (a
	// poll/ioctl/sigwaitinfo/epoll_wait/io_uring_enter that actually blocks)
	// is interrupted by a signal. The wait restarts with a recomputed timeout:
	// the original absolute deadline still bounds it, and readiness arriving
	// during the interrupt window is collected by the restarted call.
	EINTRRate float64
	// EINTRDelay scales how long after blocking the interrupt arrives; the
	// actual delay is deterministic per episode in [EINTRDelay/2, 3/2·EINTRDelay).
	// Zero selects 200µs.
	EINTRDelay core.Duration
	// AcceptEAGAINRate is the probability one accept(2) fails spuriously with
	// EAGAIN, charged like the real failed syscall.
	AcceptEAGAINRate float64
	// ReadEAGAINRate is the probability one read(2) on a socket with buffered
	// data fails spuriously with EAGAIN.
	ReadEAGAINRate float64
	// WriteEAGAINRate is the probability one write/writev/sendfile accepts
	// nothing and fails with EAGAIN, parking the response on write interest.
	WriteEAGAINRate float64

	// --- resource exhaustion ---

	// FDLimit is the per-process RLIMIT_NOFILE: accept(2) fails with EMFILE
	// while the process holds this many descriptors or more. Zero means
	// unlimited. Servers survive it with the reserve-descriptor accept-drain
	// trick plus paced accept backoff.
	FDLimit int
	// OverflowStormRate is the probability that one asynchronously posted
	// notification (an RT signal enqueue, a completion-ring post) lands in the
	// middle of a kernel-side burst that has already filled the queue: the
	// notification is dropped and the overflow flag raises, exactly as a
	// genuine overflow would. The mechanism must run its recovery rescan, so
	// sweeping the rate measures overflow-storm recovery under live traffic.
	// Only the notification-queue mechanisms (RT signals, the completion
	// ring) consult it.
	OverflowStormRate float64

	// --- connection faults ---

	// ResetRate is the fraction of benchmark connections that deterministically
	// reset (RST) mid-exchange: half of them mid-request (the server's next
	// read fails with ECONNRESET), half mid-response (the reset arrives while
	// response bytes are in flight, and a parked write fails with EPIPE).
	ResetRate float64
	// VanishRate is the fraction of benchmark connections whose peer silently
	// disappears after connecting: no FIN, no RST, no window updates — the
	// server only reclaims the connection through its idle sweep.
	VanishRate float64
}

// Stream salts separate the decision streams so one knob's rate change cannot
// shift another knob's decisions.
const (
	saltEINTR  uint64 = 0x45494e5452 // "EINTR"
	saltAccept uint64 = 0x6163636570 // "accep"
	saltRead   uint64 = 0x72656164   // "read"
	saltWrite  uint64 = 0x7772697465 // "write"
	saltFate   uint64 = 0x66617465   // "fate"
	saltCut    uint64 = 0x637574     // "cut"
	saltDelay  uint64 = 0x64656c6179 // "delay"
	saltRetry  uint64 = 0x7265747279 // "retry"
	saltOvf    uint64 = 0x6f7666     // "ovf"
)

// splitmix64 is the mixing function behind every decision (the same finaliser
// netsim's datagram wire uses).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SaltString folds a name (an engine or process name) into a stream salt, so
// per-instance decision streams stay independent without numeric ids.
func SaltString(s string) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// roll returns the deterministic uniform [0,1) variate for one decision.
func (c *Config) roll(salt, seq uint64) float64 {
	return float64(splitmix64(splitmix64(c.Seed^salt)+seq)>>11) / float64(1<<53)
}

// EINTR decides whether blocking episode seq of the wait stream salted with
// salt is interrupted, and if so after how long.
func (c *Config) EINTR(salt, seq uint64) (bool, core.Duration) {
	if c.EINTRRate <= 0 || c.roll(saltEINTR^salt, seq) >= c.EINTRRate {
		return false, 0
	}
	base := c.EINTRDelay
	if base <= 0 {
		base = 200 * core.Microsecond
	}
	// Deterministic delay in [base/2, 3/2·base): soon enough to interrupt the
	// episode it was rolled for under benchmark load, spread enough that
	// storms do not synchronise.
	u := c.roll(saltDelay^salt, seq)
	return true, base/2 + core.Duration(u*float64(base))
}

// AcceptEAGAIN decides whether accept attempt seq on the stream salted with
// salt fails spuriously.
func (c *Config) AcceptEAGAIN(salt, seq uint64) bool {
	return c.AcceptEAGAINRate > 0 && c.roll(saltAccept^salt, seq) < c.AcceptEAGAINRate
}

// ReadEAGAIN decides whether read attempt seq fails spuriously.
func (c *Config) ReadEAGAIN(salt, seq uint64) bool {
	return c.ReadEAGAINRate > 0 && c.roll(saltRead^salt, seq) < c.ReadEAGAINRate
}

// OverflowStorm decides whether notification post seq on the stream salted
// with salt is swallowed by an injected queue-overflow episode.
func (c *Config) OverflowStorm(salt, seq uint64) bool {
	return c.OverflowStormRate > 0 && c.roll(saltOvf^salt, seq) < c.OverflowStormRate
}

// WriteEAGAIN decides whether write attempt seq fails spuriously.
func (c *Config) WriteEAGAIN(salt, seq uint64) bool {
	return c.WriteEAGAINRate > 0 && c.roll(saltWrite^salt, seq) < c.WriteEAGAINRate
}

// ConnFate is a benchmark connection's injected destiny, fixed at connect time
// from its driver-assigned id.
type ConnFate uint8

// Connection fates.
const (
	// FateNone: the connection behaves normally.
	FateNone ConnFate = iota
	// FateResetRequest: the client resets the connection mid-request — after
	// its first bytes are sent but before the exchange completes. The server's
	// next read on the connection fails with ECONNRESET.
	FateResetRequest
	// FateResetResponse: the client resets mid-response, once part of the
	// response has arrived; a response still draining fails with EPIPE.
	FateResetResponse
	// FateVanish: the peer silently disappears after connecting — no FIN, no
	// RST, no reads. Only the server's idle sweep reclaims the connection.
	FateVanish
)

// String names the fate for traces and tests.
func (f ConnFate) String() string {
	switch f {
	case FateResetRequest:
		return "reset-request"
	case FateResetResponse:
		return "reset-response"
	case FateVanish:
		return "vanish"
	default:
		return "none"
	}
}

// FateOf returns the injected fate of connection connID. Fate decisions hash
// the driver-assigned connection id, which is thread-count invariant, so a
// sharded run dooms exactly the connections a sequential run dooms.
func (c *Config) FateOf(connID int64) ConnFate {
	if c.ResetRate <= 0 && c.VanishRate <= 0 {
		return FateNone
	}
	u := c.roll(saltFate, uint64(connID))
	if u < c.ResetRate {
		// Alternate the reset flavour deterministically within the doomed set.
		if splitmix64(c.Seed^saltCut^uint64(connID))&1 == 0 {
			return FateResetRequest
		}
		return FateResetResponse
	}
	if u < c.ResetRate+c.VanishRate {
		return FateVanish
	}
	return FateNone
}

// CutFraction returns the deterministic fraction (in [0.1, 0.9)) of the
// expected transfer after which a doomed connection pulls its trigger: how much
// of the request a mid-request reset lets through, how much of the response a
// mid-response reset waits for.
func (c *Config) CutFraction(connID int64) float64 {
	return 0.1 + 0.8*c.roll(saltCut, uint64(connID))
}

// RetryJitter returns the deterministic jitter factor (in [0.5, 1.5)) applied
// to retry attempt number attempt of connection connID by the load generator's
// capped exponential backoff.
func RetryJitter(seed uint64, connID int64, attempt int) float64 {
	u := float64(splitmix64(splitmix64(seed^saltRetry)+uint64(connID)*31+uint64(attempt))>>11) / float64(1<<53)
	return 0.5 + u
}
