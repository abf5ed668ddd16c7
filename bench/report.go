package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// describeSpec renders the workload's configuration in one line.
func describeSpec(name string) string {
	spec, err := workloadSpec(name, fullBudget, 1)
	if err != nil {
		return err.Error()
	}
	parts := []string{string(spec.Server)}
	if spec.Workload != "" {
		parts = append(parts, spec.Workload+" workload")
	}
	parts = append(parts, fmt.Sprintf("%.0f req/s", spec.RequestRate), fmt.Sprintf("%d inactive", spec.Inactive),
		fmt.Sprintf("N=%d", spec.Connections), fmt.Sprintf("%d thread(s)", spec.Threads))
	if rpc := spec.Client.RequestsPerConn; rpc > 1 {
		parts = append(parts, fmt.Sprintf("keep-alive %d req/conn", rpc))
	}
	if spec.HTTP.CacheKB > 0 {
		parts = append(parts, fmt.Sprintf("cache %d KB", spec.HTTP.CacheKB))
	}
	if spec.Network != nil {
		parts = append(parts, fmt.Sprintf("backlog %d, %d ports", spec.Network.ListenBacklog, spec.Network.PortSpace))
	}
	return strings.Join(parts, ", ")
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

func printSummary(name string, s summary, bound float64) {
	fmt.Printf("    %-16s %12.6g %-9s n=%-2d q1 %-10.6g q3 %-10.6g spread %-6s bound %s\n",
		name, s.Median, s.Unit, s.N, s.Q1, s.Q3, pct(s.spread()), pct(bound))
}

func printChecks(checks []check) {
	for _, c := range checks {
		status := "ok"
		switch {
		case !c.OK && c.Gating:
			status = "FAIL: " + c.Detail
		case !c.OK:
			status = "DIFFERS (reported, not gating): " + c.Detail
		}
		fmt.Printf("  check %-17s %-24s %s\n", c.Workload, c.Name, status)
	}
}

// printProfileNotes reports whether the traced run carried enough samples and
// how much of it the listed layers explain.
func printProfileNotes(wr *workloadRuns) {
	if len(wr.traced) == 0 {
		return
	}
	m := wr.profiled()
	total := m.samples()
	share, largest := profileCoverage(m.buckets)
	status := "ok"
	if total < minProfiled || share < minCoverage {
		status = "LOW"
	}
	note := ""
	if largest != "" {
		note = ", largest unlisted: " + largest
	}
	fmt.Printf("  profile %-15s %d samples from %d traced runs, listed buckets cover %s of them (want >= %d and >= %s%s): %s\n",
		wr.name, total, len(wr.traced), pct(share), minProfiled, pct(minCoverage), note, status)
}

// printReport prints every metric of the named workloads by name with its
// unit, then the checks.
func printReport(cfg *benchConfig, rf resultFile, runs map[string]*workloadRuns, names []string) {
	h := rf.Host
	fmt.Printf("host: %s/%s, %d CPUs, GOMAXPROCS %d, %s; seed %d\n", h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.Go, rf.Seed)
	layerUnits := map[string]string{}
	for _, d := range cfg.PerLayer {
		layerUnits[d.Name] = d.Unit
	}
	whys := map[string]string{t2Workload: "compared with " + churnWorkload + "; not a benchmark workload"}
	for _, w := range cfg.Workloads {
		whys[w.Name] = w.Why
	}
	for _, name := range names {
		res := rf.Workloads[name]
		fmt.Printf("\n== %s: %s\n   why: %s\n", name, describeSpec(name), whys[name])
		fmt.Println("  end to end (median over the children, times scaled to the reference host; quartiles; spread = IQR/median):")
		for _, d := range cfg.EndToEnd {
			printSummary(d.Name, res.EndToEnd[d.Name], d.Bound)
		}
		wr := runs[name]
		fmt.Printf("    unscaled medians: wall %.4g s, CPU %.4g s; reference loop median %.4g s (%.4g s on the reference host)\n",
			median(wr.samples(func(c childResult) float64 { return c.WallS })),
			median(wr.samples(func(c childResult) float64 { return c.CPUS })),
			median(wr.samples(func(c childResult) float64 { return c.RefWallS })), referenceWallS)
		o := res.Outputs
		fmt.Println("  simulated end to end (exact for the seed; checked against golden.json):")
		fmt.Printf("    %-16s %12.6g 1/s\n", "replies_per_s", o.RepliesPerS)
		fmt.Printf("    %-16s %12.6g ms\n", "p50_ms", o.P50Ms)
		fmt.Printf("    %-16s %12.6g ms\n", "p99_ms", o.P99Ms)
		fmt.Printf("    %-16s %12.6g ms       %d latency samples, %d beyond p99.9\n", "p999_ms", o.P999Ms, o.LatencyCount, o.LatencyCount/1000)
		fmt.Printf("    %-16s %12.6g %%        %d of %d operations failed\n", "err_pct", o.ErrPct, o.Errors, o.Issued)
		fmt.Println("  per layer:")
		for _, d := range cfg.PerLayer {
			if v, ok := res.PerLayer[d.Name]; ok {
				fmt.Printf("    %-36s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
		printProfileNotes(runs[name])
	}
	fmt.Println("\n== layer suite (testing.Benchmark, per op)")
	for _, d := range cfg.PerLayer {
		if v, ok := rf.Layers[d.Name]; ok {
			fmt.Printf("    %-36s %14.6g %s\n", d.Name, v, layerUnits[d.Name])
		}
	}
	if one, ok := rf.Workloads[churnWorkload]; ok {
		if two, ok := rf.Workloads[t2Workload]; ok {
			a, b := one.EndToEnd["wall_s"].Median, two.EndToEnd["wall_s"].Median
			fmt.Printf("\nthreads: %s wall_s %.4g s at 1 thread, %s %.4g s at 2 threads (%.2fx)\n",
				churnWorkload, a, t2Workload, b, ratio(b, a))
		}
	}
	fmt.Println()
	printChecks(rf.Checks)
	if allOK(rf.Checks) {
		fmt.Println("all output checks ok")
	} else {
		fmt.Println("output checks FAILED")
	}
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints, for every workload and end-to-end metric, both
// medians, the change, the bound and the verdict, and whether the simulated
// outputs are identical. It reports false when any metric is worse or, at
// equal seeds, any simulated output differs.
func compareFiles(cfg *benchConfig, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Printf("%-17s %-14s %12s %12s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, w := range cfg.workloadNames() {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wa == nil || wb == nil {
			fmt.Printf("%-17s missing from one side\n", w)
			ok = false
			continue
		}
		for _, d := range cfg.EndToEnd {
			sa, okA := wa.EndToEnd[d.Name]
			sb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				fmt.Printf("%-17s %-14s missing from one side\n", w, d.Name)
				ok = false
				continue
			}
			v := verdict(sa, sb, d.Bound, d.higherIsBetter())
			ok = ok && v != verdictWorse
			fmt.Printf("%-17s %-14s %12.6g %12.6g %9s %7s  %s\n", w, d.Name, sa.Median, sb.Median,
				fmt.Sprintf("%+.2f%%", 100*ratio(sb.Median-sa.Median, sa.Median)), pct(d.Bound), v)
		}
		switch {
		case a.Seed != b.Seed:
			fmt.Printf("%-17s simulated outputs not compared (seeds %d and %d)\n", w, a.Seed, b.Seed)
		case wa.Outputs == wb.Outputs:
			fmt.Printf("%-17s simulated outputs identical\n", w)
		default:
			fmt.Printf("%-17s simulated outputs DIFFER: %+v vs %+v\n", w, wa.Outputs, wb.Outputs)
			ok = false
		}
	}
	return ok, nil
}
