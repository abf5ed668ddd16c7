package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/netsim"
)

// Every workload is open loop: loadgen launches connections at constant
// (jittered) arrivals at the stated rate beside a fixed inactive population,
// and times each request in virtual time from its scheduled launch.
// The workload names, and the reason each exists, live in BENCHMARK.json.

// workloadSpec returns the experiments.RunSpec of the named workload at the
// given request budget (the number of ops N every per-op metric divides by).
func workloadSpec(name string, budget int, seed int64) (experiments.RunSpec, error) {
	// The massive-scale convention: TIME-WAIT holds rate x 61 s of ports, so
	// the client port space grows with the run. Every workload also gets a
	// 1024-deep listen backlog: with the default 128, the inactive
	// population's reconnect burst after each 60 s idle sweep refuses a few
	// benchmark connections, and no operation may fail.
	wide := netsim.DefaultConfig()
	wide.PortSpace = 2*budget + 100000
	wide.ListenBacklog = 1024
	deep := netsim.DefaultConfig()
	deep.ListenBacklog = 1024
	spec := experiments.RunSpec{Connections: budget, Seed: seed, Threads: 1}
	switch name {
	case "churn-epoll", "churn-epoll-t2":
		spec.Server = experiments.ServerThttpdEpoll
		spec.RequestRate = 1000
		spec.Inactive = 251
		spec.Network = &wide
		if name == "churn-epoll-t2" {
			spec.Threads = 2
		}
	case "poll-scan":
		spec.Server = experiments.ServerThttpdPoll
		spec.RequestRate = 500
		spec.Inactive = 501
		spec.Network = &deep
	case "push-idle-epoll":
		spec.Server = "push-epoll"
		spec.Workload = "push"
		spec.RequestRate = 1000
		spec.Network = &wide
	default:
		return spec, fmt.Errorf("unknown workload %q", name)
	}
	return spec, nil
}

// fullBudget is every workload's request budget N in a measured run; it gives
// timed runs of roughly 1.3-2 s on a 2-vCPU host (5 s for churn-epoll-t2).
const fullBudget = 300000
