package loadgen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/servers/thttpd"
	"repro/internal/simkernel"
)

// With no server at all, every attempt is refused: each connection burns its
// full retry budget before recording the one error the no-retry run records
// immediately. Conservation (completed + errors == issued) must hold.
func TestRetryExhaustsBudgetWithoutServer(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	cfg := DefaultConfig(500, 0)
	cfg.Connections = 50
	cfg.Profile.Retry = true
	gen := New(k, n, cfg)
	gen.OnDone(func(Result) { k.Sim.Stop() })
	gen.Start(0)
	k.Sim.RunUntil(core.Time(30 * core.Second))
	res := gen.Result()
	if !gen.Done() {
		t.Fatal("run did not finish")
	}
	if res.Errors != 50 || res.Completed != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Retries != 50*3 {
		t.Fatalf("retries = %d, want %d", res.Retries, 50*3)
	}
	if res.ErrorsBy[ErrRefused] != 50 {
		t.Fatalf("errors by reason = %+v", res.ErrorsBy)
	}
}

// Against a healthy server with injected connection resets, retry converts
// most doomed connections into (late) completions: errors drop, retries are
// counted, and the books still balance.
func TestRetryRecoversInjectedResets(t *testing.T) {
	run := func(retry bool) Result {
		k := simkernel.NewKernel(nil)
		k.Faults = faults.Config{Seed: 7, ResetRate: 0.3}
		n := netsim.New(k, netsim.DefaultConfig())
		scfg := thttpd.DefaultConfig()
		scfg.Backend = "devpoll"
		s := thttpd.New(k, n, scfg)
		s.Start()
		cfg := DefaultConfig(400, 0)
		cfg.Connections = 200
		cfg.SampleInterval = 500 * core.Millisecond
		cfg.Profile.Retry = retry
		gen := New(k, n, cfg)
		gen.OnDone(func(Result) { s.Stop(); k.Sim.Stop() })
		gen.Start(0)
		k.Sim.RunUntil(core.Time(60 * core.Second))
		if !gen.Done() {
			t.Fatal("run did not finish")
		}
		return gen.Result()
	}
	plain := run(false)
	retried := run(true)
	if plain.Errors == 0 {
		t.Fatal("fault plane injected no resets; test needs a doomed population")
	}
	if plain.Retries != 0 {
		t.Fatalf("retries without Retry = %d", plain.Retries)
	}
	if retried.Retries == 0 {
		t.Fatal("no retries recorded with Retry enabled")
	}
	if retried.Errors >= plain.Errors {
		t.Fatalf("retry did not reduce errors: %d -> %d", plain.Errors, retried.Errors)
	}
	for _, res := range []Result{plain, retried} {
		if res.Completed+res.Errors != res.Issued || res.Issued != 200 {
			t.Fatalf("conservation violated: %+v", res)
		}
	}
}

// A stale watchdog armed for a failed attempt must not kill the retry's
// fresh connection: with a server that refuses the first wave (no listener
// until 300 ms in), retried connections complete even though each still has the
// original attempt's timer pending when it relaunches.
func TestRetryOutlivesStaleWatchdog(t *testing.T) {
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	scfg := thttpd.DefaultConfig()
	scfg.Backend = "devpoll"
	s := thttpd.New(k, n, scfg)
	k.Sim.At(core.Time(300*core.Millisecond), func(core.Time) { s.Start() })

	cfg := DefaultConfig(200, 0)
	cfg.Connections = 40
	cfg.SampleInterval = 500 * core.Millisecond
	cfg.Profile.Retry = true
	gen := New(k, n, cfg)
	gen.OnDone(func(Result) { s.Stop(); k.Sim.Stop() })
	gen.Start(0)
	k.Sim.RunUntil(core.Time(60 * core.Second))
	res := gen.Result()
	if !gen.Done() {
		t.Fatal("run did not finish")
	}
	if res.Retries == 0 {
		t.Fatal("expected the first wave to be refused and retried")
	}
	if res.Completed == 0 {
		t.Fatalf("no retried connection completed: %+v", res)
	}
	if res.Completed+res.Errors != res.Issued {
		t.Fatalf("conservation violated: %+v", res)
	}
}
