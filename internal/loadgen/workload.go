package loadgen

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/netsim"
)

// ArrivalKind selects the arrival process that spaces benchmark connections.
// The paper's httperf drives a constant rate; the other processes model the
// overload shapes real servers meet: synchronized flash crowds and the
// heavy-tailed think times web traffic is famous for.
type ArrivalKind int

// Arrival processes.
const (
	// ArrivalConstant issues connections at a fixed interval with uniform
	// jitter: the paper's open-loop httperf schedule.
	ArrivalConstant ArrivalKind = iota
	// ArrivalFlashCrowd alternates burst and quiet phases: during each burst
	// the instantaneous rate is BurstFactor times the configured rate, and
	// the quiet rate is derated so the long-run mean still matches the
	// configured rate. The x axis of a figure therefore remains the offered
	// load even though its delivery is bursty.
	ArrivalFlashCrowd
	// ArrivalPareto draws inter-arrival gaps from a Pareto distribution with
	// shape ParetoAlpha, scaled so the mean gap matches the configured rate:
	// most connections arrive in clumps, punctuated by long silences.
	ArrivalPareto
)

// String names the arrival process.
func (a ArrivalKind) String() string {
	switch a {
	case ArrivalFlashCrowd:
		return "flash-crowd"
	case ArrivalPareto:
		return "pareto"
	default:
		return "constant"
	}
}

// WorkloadKind selects the traffic family a workload drives. The zero value
// is the paper's request/response family; the other kinds exercise the
// millions-mostly-idle regime where the server (push) or a churning peer
// population (dhtchurn) shapes the traffic instead of an open-loop request
// schedule.
type WorkloadKind int

// Traffic families.
const (
	// KindRequest is the paper's family: clients open connections and issue
	// HTTP requests at the configured rate.
	KindRequest WorkloadKind = iota
	// KindPush inverts the direction: clients connect once, subscribe and go
	// silent for the whole run; the server fans a payload out to random
	// member sets on a virtual-time tick, so Config.RequestRate is the
	// offered delivery rate and Config.Connections is both the member
	// population and the delivery budget.
	KindPush
	// KindDHTChurn drives the datagram transport: peers join a rendezvous
	// node at ChurnRate peers/second, each pinging its session socket until
	// a per-peer quota of RequestRate/ChurnRate pings is answered, then
	// leaving. Config.Connections counts peer sessions.
	KindDHTChurn
)

// String names the traffic family.
func (k WorkloadKind) String() string {
	switch k {
	case KindPush:
		return "push"
	case KindDHTChurn:
		return "dhtchurn"
	default:
		return "request"
	}
}

// BackgroundKind selects the behavior of the background connection population
// (Config.InactiveConnections of them).
type BackgroundKind int

// Background client behaviors.
const (
	// BackgroundInactive is the paper's load: clients that send a partial
	// request once and then stay silent, parking themselves in the server's
	// interest set until its idle sweep evicts them.
	BackgroundInactive BackgroundKind = iota
	// BackgroundSlowLoris clients trickle one request byte every
	// TrickleInterval and never complete: each byte costs the server an
	// interrupt, a readiness event, a read and a parser feed, and the
	// steady activity defeats the idle sweep that reclaims inactive
	// connections.
	BackgroundSlowLoris
	// BackgroundStalledReader clients send a complete request but advertise a
	// tiny receive window and never drain it: the server performs the full
	// accept/parse/serve work, then its response jams after StallWindow
	// bytes and the connection occupies a descriptor and a blocked write
	// until the idle sweep gives up on it.
	BackgroundStalledReader
)

// String names the background behavior.
func (b BackgroundKind) String() string {
	switch b {
	case BackgroundSlowLoris:
		return "slow-loris"
	case BackgroundStalledReader:
		return "stalled-reader"
	default:
		return "inactive"
	}
}

// Workload bundles an arrival process, a background-population behavior and a
// client RTT distribution into one named scenario. The zero value is the
// paper's workload exactly: constant arrivals, silent inactive background
// clients, uniform LAN RTTs.
type Workload struct {
	// Name identifies the workload ("" and "constant" are the paper's).
	Name string
	// Description is the one-line summary -list-workloads prints.
	Description string

	// Kind selects the traffic family; the zero value is the paper's
	// request/response family, for which the fields below apply.
	Kind WorkloadKind

	Arrival ArrivalKind
	// BurstPeriod is the flash-crowd cycle length and BurstDuration the
	// high phase within it; BurstFactor multiplies the configured rate
	// during the high phase. BurstFactor*BurstDuration must stay below
	// BurstPeriod so the quiet phase can absorb the excess.
	BurstPeriod   core.Duration
	BurstDuration core.Duration
	BurstFactor   float64
	// ParetoAlpha is the Pareto shape (must exceed 1 so the mean exists;
	// smaller is heavier-tailed).
	ParetoAlpha float64

	Background BackgroundKind
	// TrickleInterval spaces a slow-loris client's bytes.
	TrickleInterval core.Duration
	// StallWindow is the receive window (bytes) a stalled reader advertises.
	StallWindow int

	// RTTMix, when non-empty, draws each benchmark connection's RTT from the
	// given bands instead of the network's LAN RTT.
	RTTMix []netsim.RTTBand

	// Push-family knobs (KindPush). FanoutSize is how many members the
	// server pushes to per tick and PushPayload the pushed message size —
	// both must match the push server's configuration, which the experiment
	// harness derives from them. MemberRate is the rate the member
	// population is connected at before measurement starts.
	FanoutSize  int
	PushPayload int
	MemberRate  float64

	// Churn-family knobs (KindDHTChurn). ChurnRate is the peer join rate in
	// peers/second; PingInterval spaces one peer's keepalive pings; PingSize
	// is the ping datagram size; PeerTimeout is the rendezvous node's
	// session expiry (surfaced here so figures can sweep it alongside the
	// client behavior).
	ChurnRate    float64
	PingInterval core.Duration
	PingSize     int
	PeerTimeout  core.Duration
}

// Workloads returns the registered workload scenarios, the paper's first.
func Workloads() []Workload {
	return []Workload{
		{
			Name:        "constant",
			Description: "the paper's workload: constant-rate arrivals, silent inactive background connections, LAN RTTs",
		},
		{
			Name:          "flashcrowd",
			Description:   "burst trains: 3x the offered rate for 500ms out of every 2s, same long-run mean",
			Arrival:       ArrivalFlashCrowd,
			BurstPeriod:   2 * core.Second,
			BurstDuration: 500 * core.Millisecond,
			BurstFactor:   3,
		},
		{
			Name:        "pareto",
			Description: "heavy-tailed Pareto (alpha=1.5) inter-arrival gaps: clumped arrivals with long silences, same mean rate",
			Arrival:     ArrivalPareto,
			ParetoAlpha: 1.5,
		},
		{
			Name:            "slowloris",
			Description:     "background population trickles one request byte every 250ms and never completes, defeating the idle sweep",
			Background:      BackgroundSlowLoris,
			TrickleInterval: 250 * core.Millisecond,
		},
		{
			Name:        "stalled",
			Description: "background population requests the document but never drains the response: writes jam against a 512-byte window",
			Background:  BackgroundStalledReader,
			StallWindow: 512,
		},
		{
			Name:        "wan",
			Description: "benchmark connection RTTs drawn from a WAN mix (5ms..300ms) instead of the uniform LAN",
			RTTMix:      netsim.DefaultWANMix(),
		},
		{
			Name:        "push",
			Description: "server-push fan-out: members subscribe once and idle while the server pushes to random member sets each tick",
			Kind:        KindPush,
			FanoutSize:  32,
			PushPayload: 512,
			MemberRate:  50000,
		},
		{
			Name:         "dhtchurn",
			Description:  "datagram peer churn: peers join a rendezvous node, ping their session sockets, and leave; sessions expire on a timer sweep",
			Kind:         KindDHTChurn,
			ChurnRate:    200,
			PingInterval: 500 * core.Millisecond,
			PingSize:     64,
			PeerTimeout:  5 * core.Second,
		},
	}
}

// LookupWorkload resolves a workload by name; the empty name selects the
// paper's constant workload.
func LookupWorkload(name string) (Workload, bool) {
	if strings.TrimSpace(name) == "" {
		return Workload{Name: "constant"}, true
	}
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// UnknownWorkloadError is the single source of the listed-choices error for
// workload names, mirroring eventlib's for backends.
func UnknownWorkloadError(name string) error {
	names := make([]string, 0, 8)
	for _, w := range Workloads() {
		names = append(names, w.Name)
	}
	return fmt.Errorf("loadgen: unknown workload %q (choices: %s)",
		name, strings.Join(names, ", "))
}
