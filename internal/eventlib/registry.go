package eventlib

import (
	"fmt"
	"strings"

	"repro/internal/compio"
	"repro/internal/core"
	"repro/internal/devpoll"
	"repro/internal/epoll"
	"repro/internal/rtsig"
	"repro/internal/simkernel"
	"repro/internal/stockpoll"
)

// Backend describes one registered event-notification mechanism: how to
// construct it and the delivery quirks a generic consumer must know about.
type Backend struct {
	// Name is the registry key ("epoll", "devpoll", "rtsig", "poll", ...).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Open constructs a fresh poller instance with the backend's default
	// options.
	Open func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller
	// EdgeStyle marks transition-driven backends: readiness that existed
	// before interest was registered is never reported, so a server must
	// perform one unprompted read on each freshly accepted descriptor (the
	// paper's RT-signal servers do exactly this).
	EdgeStyle bool
	// Completion marks completion-substrate backends (shared-ring delivery,
	// batched submission) as opposed to readiness-substrate ones. Purely
	// informational — both shapes implement the same Poller contract — but
	// listings print it so the mechanisms can be told apart.
	Completion bool
}

// DeliveryStyle renders the backend's delivery semantics for listings:
// completion vs readiness substrate, edge- vs level-shaped reporting.
func (b Backend) DeliveryStyle() string {
	substrate := "readiness"
	if b.Completion {
		substrate = "completion"
	}
	edge := "level"
	if b.EdgeStyle {
		edge = "edge"
	}
	return substrate + "/" + edge
}

// backends holds the registry in preference order: the mechanism history
// converged on first, the paper's extension, the paper's asynchronous
// mechanism, the baseline last.
var backends = []Backend{
	{
		Name:        "epoll",
		Description: "epoll, level-triggered (the mechanism Linux adopted)",
		Open: func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
			return epoll.Open(k, p, epoll.DefaultOptions())
		},
	},
	{
		Name:        "epoll-et",
		Description: "epoll, edge-triggered (EPOLLET; registration primes readiness, so the consumer contract stays level-shaped)",
		Open: func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
			opts := epoll.DefaultOptions()
			opts.EdgeTriggered = true
			return epoll.Open(k, p, opts)
		},
	},
	{
		Name:        "compio",
		Description: "completion rings, io_uring-shaped: batched submission, registered buffers",
		Open: func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
			return compio.Open(k, p, compio.DefaultOptions())
		},
		// Registration primes current readiness into the CQ, so no unprompted
		// reads are needed even though delivery is transition-shaped.
		Completion: true,
	},
	{
		Name:        "devpoll",
		Description: "/dev/poll with driver hints and the mmap result area (the paper's §3)",
		Open: func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
			return devpoll.Open(k, p, devpoll.DefaultOptions())
		},
	},
	{
		Name:        "rtsig",
		Description: "POSIX RT signal queue, one siginfo per sigwaitinfo (the paper's §2)",
		Open: func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
			return rtsig.New(k, p, rtsig.DefaultOptions())
		},
		EdgeStyle: true,
	},
	{
		Name:        "poll",
		Description: "stock poll(), the paper's baseline",
		Open: func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
			return stockpoll.New(k, p)
		},
	},
}

// Backends returns the registered backends in preference order (epoll first,
// stock poll last). The slice is a copy; mutate freely.
func Backends() []Backend {
	out := make([]Backend, len(backends))
	copy(out, backends)
	return out
}

// Register appends a backend to the registry (lowest preference). It replaces
// an existing backend with the same name in place, preserving its preference
// rank.
func Register(b Backend) {
	for i, existing := range backends {
		if existing.Name == b.Name {
			backends[i] = b
			return
		}
	}
	backends = append(backends, b)
}

// Lookup finds a backend by name; the empty name selects the
// highest-preference backend.
func Lookup(name string) (Backend, bool) {
	if name == "" {
		return backends[0], true
	}
	for _, b := range backends {
		if b.Name == name {
			return b, true
		}
	}
	return Backend{}, false
}

// DescribeBackends renders one line per registered backend — name, delivery
// style, description — for listings and the listed-choices error, so the
// mechanisms can be told apart without reading DESIGN.md.
func DescribeBackends(indent string) string {
	var sb strings.Builder
	for i, b := range backends {
		if i > 0 {
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "%s%-10s %-17s %s", indent, b.Name,
			"["+b.DeliveryStyle()+"]", b.Description)
	}
	return sb.String()
}

// UnknownBackendError is the single source of the listed-choices error for a
// backend name that is not registered.
func UnknownBackendError(name string) error {
	return fmt.Errorf("eventlib: unknown backend %q; choices:\n%s",
		name, DescribeBackends("  "))
}

// OpenBackend constructs the named backend's poller, with the listed-choices
// error for unknown names.
func OpenBackend(k *simkernel.Kernel, p *simkernel.Proc, name string) (core.Poller, Backend, error) {
	b, ok := Lookup(name)
	if !ok {
		return nil, Backend{}, UnknownBackendError(name)
	}
	return b.Open(k, p), b, nil
}
