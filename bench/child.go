package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// Every timed run is a fresh child process running one experiments.RunE,
// which is what a user running benchfig pays: process start, heap growth from
// empty and GC on the second core all count.

// childKind selects what a child process measures.
type childKind string

const (
	childTimed     childKind = "timed"     // one full RunE, no tracers
	childSetup     childKind = "setup"     // RunE stopped at 1 ns of virtual time
	childTraced    childKind = "traced"    // one full RunE under both tracers
	childReference childKind = "reference" // the reference loop (reference.go), no RunE
)

// childTimeout bounds one child so a hung simulation cannot outlive the
// benchmark's own time limit.
const childTimeout = 120 * time.Second

// outputs are a run's simulated results. They are bit-deterministic for a
// workload and seed, whatever the host, thread count or tracers.
type outputs struct {
	Issued       int     `json:"issued"`
	Completed    int     `json:"completed"`
	Replies      int     `json:"replies"`
	Errors       int     `json:"errors"`
	RepliesPerS  float64 `json:"replies_per_s"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	P999Ms       float64 `json:"p999_ms"`
	ErrPct       float64 `json:"err_pct"`
	LatencyCount int64   `json:"latency_count"`
	Waits        int64   `json:"waits"`
	Events       int64   `json:"events"`
	DriverPolls  int64   `json:"driver_polls"`
	CopiedIn     int64   `json:"copied_in"`
	Loops        int64   `json:"loops"`
	CPUUtil      float64 `json:"cpu_util"`
	VirtualNs    int64   `json:"virtual_ns"`
}

func outputsOf(res experiments.RunResult) outputs {
	l := res.Load
	return outputs{
		Issued:       l.Issued,
		Completed:    l.Completed,
		Replies:      l.Replies,
		Errors:       l.Errors,
		RepliesPerS:  l.ReplyRate.Mean,
		P50Ms:        res.Latency.P50,
		P99Ms:        res.Latency.P99,
		P999Ms:       res.Latency.P999,
		ErrPct:       l.ErrorPercent,
		LatencyCount: res.Latency.Count,
		Waits:        res.Primary.Waits,
		Events:       res.Primary.EventsReturned,
		DriverPolls:  res.Primary.DriverPolls,
		CopiedIn:     res.Primary.CopiedIn,
		Loops:        res.EventLoops,
		CPUUtil:      res.CPUUtilization,
		VirtualNs:    int64(res.VirtualTime),
	}
}

// golden extracts the subset of the outputs golden.json records.
func (o outputs) golden() golden {
	return golden{
		RepliesPerS: o.RepliesPerS,
		P50Ms:       o.P50Ms,
		P99Ms:       o.P99Ms,
		P999Ms:      o.P999Ms,
		ErrPct:      o.ErrPct,
		Replies:     o.Replies,
		Errors:      o.Errors,
	}
}

// childResult is what one child reports, plus the parent's rusage readings.
type childResult struct {
	Out     outputs `json:"outputs"`
	Threads int     `json:"threads"`
	WallS   float64 `json:"wall_s"`
	// Runtime counters read around RunE (runtime/metrics).
	Allocs     float64 `json:"allocs"`
	AllocBytes float64 `json:"alloc_bytes"`
	GCCPUFrac  float64 `json:"gc_cpu_frac"`
	// Trace is set by traced children only.
	Trace *traceResult `json:"trace,omitempty"`

	// Filled in by the parent from the child's rusage.
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// RefWallS is the host speed around this child (reference.go): the
	// geometric mean of the wall times of the reference runs on either side.
	RefWallS float64 `json:"ref_wall_s"`
}

// scaledWall is the child's wall time on the reference host.
func (c childResult) scaledWall() float64 { return c.WallS * referenceWallS / c.RefWallS }

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() [4]float64 {
	metrics.Read(runtimeSamples)
	var out [4]float64
	for i, s := range runtimeSamples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// profileHz is the traced child's CPU-profile sampling rate. The default
// 100 Hz gives too few samples on a 1.3 s run to split it across 14 layers;
// Linux delivers the profiling signal at most once per scheduler tick, so
// asking for more than 250 Hz adds nothing on a common kernel.
const profileHz = 250

// cpuNow is the process's user plus system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childMain is the body of a child process: one RunE of the workload at the
// seed, or one reference loop, its result written to stdout as JSON.
func childMain(workload string, seed int64, kind childKind) error {
	if kind == childReference {
		start := time.Now()
		referenceLoop()
		return json.NewEncoder(os.Stdout).Encode(childResult{WallS: time.Since(start).Seconds()})
	}
	spec, err := workloadSpec(workload, fullBudget, seed)
	if err != nil {
		return err
	}
	if kind == childSetup {
		spec.MaxVirtualTime = core.Duration(1)
	}
	var tr *tracer
	var prof bytes.Buffer
	if kind == childTraced {
		var restore func()
		tr, restore = installTracer()
		defer restore()
		// Setting the rate first makes StartCPUProfile's own 100 Hz request
		// fail (it prints a warning to stderr), so the profile runs at
		// profileHz. Samples are only counted: a layer's time is its share
		// of the samples times the CPU time the run used.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	before, cpuBefore := readRuntime(), cpuNow()
	start := time.Now()
	res, err := experiments.RunE(spec)
	wall := time.Since(start)
	after, cpu := readRuntime(), cpuNow()-cpuBefore
	if kind == childTraced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	cr := childResult{
		Out:        outputsOf(res),
		Threads:    res.Threads,
		WallS:      wall.Seconds(),
		Allocs:     after[0] - before[0],
		AllocBytes: after[1] - before[1],
	}
	if cpu := after[3] - before[3]; cpu > 0 {
		cr.GCCPUFrac = (after[2] - before[2]) / cpu
	}
	if tr != nil {
		samples, err := attributeProfile(prof.Bytes())
		if err != nil {
			return err
		}
		cr.Trace = tr.result(samples, cpu)
	}
	return json.NewEncoder(os.Stdout).Encode(cr)
}

// runChild starts a fresh child process of this executable, waits for it and
// returns its result with the CPU time and peak RSS the kernel accounted to it.
func runChild(workload string, seed int64, kind childKind) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", workload, "-child-kind", string(kind), "-seed", fmt.Sprint(seed))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s child of %s (seed %d): %w\n%s",
			kind, workload, seed, err, strings.TrimSpace(stderr.String()))
	}
	var cr childResult
	if err := json.Unmarshal(stdout.Bytes(), &cr); err != nil {
		return childResult{}, fmt.Errorf("%s child of %s: decoding its result: %w", kind, workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		cr.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cr, nil
}
