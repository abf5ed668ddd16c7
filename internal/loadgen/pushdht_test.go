package loadgen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/servers/dhtnode"
	"repro/internal/servers/pushcore"
	"repro/internal/simkernel"
)

func TestPushWorkloadDeliversBudget(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())

	wl, ok := LookupWorkload("push")
	if !ok || wl.Kind != KindPush {
		t.Fatalf("push workload missing: %+v ok=%v", wl, ok)
	}
	wl.FanoutSize = 8
	scfg := pushcore.DefaultConfig()
	scfg.Backend = "epoll"
	scfg.FanoutSize = wl.FanoutSize
	scfg.Payload = wl.PushPayload
	scfg.TickInterval = 5 * core.Millisecond
	srv := pushcore.New(k, n, scfg)

	cfg := DefaultConfig(1600, 0)
	cfg.Connections = 100
	cfg.SampleInterval = 100 * core.Millisecond
	cfg.Workload = wl
	gen := New(k, n, cfg)
	srv.OnDeliver = gen.PushDeliver

	var final Result
	gen.OnDone(func(r Result) { final = r; srv.Stop(); k.Sim.Stop() })
	srv.Start()
	gen.Start(0)
	k.Sim.RunUntil(core.Time(30 * core.Second))

	if !gen.Done() {
		t.Fatalf("push run never finished: %+v", gen.Result())
	}
	if final.Issued != 100 || final.Completed != 100 || final.Errors != 0 {
		t.Fatalf("result = issued %d completed %d errors %d (%+v)",
			final.Issued, final.Completed, final.Errors, final.ErrorsBy)
	}
	// The budget is exact: one booked delivery per configured connection.
	if final.Replies != 100 {
		t.Fatalf("replies = %d, want 100", final.Replies)
	}
	if final.MedianLatencyMs <= 0 {
		t.Fatalf("median delivery latency = %v ms", final.MedianLatencyMs)
	}
	// The member population was fully subscribed before measurement started.
	if st := srv.Stats(); st.Subscribed != 100 {
		t.Fatalf("subscribed = %d, want 100", st.Subscribed)
	}
}

func TestDHTChurnWorkloadPingsQuota(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())

	wl, ok := LookupWorkload("dhtchurn")
	if !ok || wl.Kind != KindDHTChurn {
		t.Fatalf("dhtchurn workload missing: %+v ok=%v", wl, ok)
	}
	scfg := dhtnode.DefaultConfig()
	scfg.Backend = "epoll"
	scfg.PeerTimeout = wl.PeerTimeout
	srv := dhtnode.New(k, n, scfg)

	cfg := DefaultConfig(1000, 0) // quota = 1000/200 = 5 pings per peer
	cfg.Connections = 20
	cfg.SampleInterval = 500 * core.Millisecond
	cfg.Workload = wl
	gen := New(k, n, cfg)

	var final Result
	gen.OnDone(func(r Result) { final = r; srv.Stop(); k.Sim.Stop() })
	srv.Start()
	gen.Start(0)
	k.Sim.RunUntil(core.Time(60 * core.Second))

	if !gen.Done() {
		t.Fatalf("dht run never finished: %+v", gen.Result())
	}
	if final.Issued != 20 || final.Completed != 20 || final.Errors != 0 {
		t.Fatalf("result = issued %d completed %d errors %d (%+v)",
			final.Issued, final.Completed, final.Errors, final.ErrorsBy)
	}
	if final.Replies != 100 {
		t.Fatalf("pongs = %d, want 20 peers x 5 pings", final.Replies)
	}
	if st := srv.Stats(); st.Joins != 20 || st.Pongs != 100 {
		t.Fatalf("server joins=%d pongs=%d", st.Joins, st.Pongs)
	}
}

// TestDHTPeerRejoinsAfterSessionExpiry pins the churn interplay: a node
// timeout shorter than the ping interval expires every session between
// pings, so peers must re-enter through the rendezvous address (and the
// node's descriptor churn shows up as expiries), yet the run still
// completes without client-visible errors.
func TestDHTPeerRejoinsAfterSessionExpiry(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())

	wl, _ := LookupWorkload("dhtchurn")
	wl.ChurnRate = 100
	wl.PingInterval = 400 * core.Millisecond
	scfg := dhtnode.DefaultConfig()
	scfg.Backend = "poll"
	scfg.PeerTimeout = 100 * core.Millisecond // expires every idle session
	scfg.SweepInterval = 50 * core.Millisecond
	srv := dhtnode.New(k, n, scfg)

	cfg := DefaultConfig(200, 0) // quota = 2 pongs per peer
	cfg.Connections = 3
	cfg.Profile.Timeout = core.Second
	cfg.Workload = wl
	gen := New(k, n, cfg)

	var final Result
	gen.OnDone(func(r Result) { final = r; srv.Stop(); k.Sim.Stop() })
	srv.Start()
	gen.Start(0)
	k.Sim.RunUntil(core.Time(120 * core.Second))

	if !gen.Done() {
		t.Fatalf("run never finished: %+v", gen.Result())
	}
	if final.Completed != 3 || final.Errors != 0 {
		t.Fatalf("completed=%d errors=%d (%+v)", final.Completed, final.Errors, final.ErrorsBy)
	}
	st := srv.Stats()
	if st.Expired == 0 {
		t.Fatalf("no sessions expired, sweep never churned descriptors: %+v", st)
	}
	if st.Joins <= 3 {
		t.Fatalf("joins = %d, want rejoins beyond the 3 first joins", st.Joins)
	}
}

// TestProfileNormalisation pins that New fills the profile's zero fields with
// the defaults and keeps the fields a caller set.
func TestProfileNormalisation(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	cfg := DefaultConfig(100, 0)
	cfg.Profile.RequestsPerConn = 3
	cfg.Profile.Timeout = 7 * core.Second
	got := New(k, n, cfg).cfg.Profile
	if got.RequestsPerConn != 3 || got.Timeout != 7*core.Second {
		t.Fatalf("set fields not kept: %+v", got)
	}
	if got.PipelineDepth != 1 || got.InactiveRTT != 100*core.Millisecond || got.Jitter != 0.2 {
		t.Fatalf("defaults not filled: %+v", got)
	}
	bare := New(k, n, Config{Profile: ClientProfile{Retry: true}}).cfg.Profile
	if bare.Timeout != 5*core.Second || bare.RequestsPerConn != 1 || bare.RetryMax != 3 || bare.Jitter != 0 {
		t.Fatalf("zero profile not defaulted: %+v", bare)
	}
}
