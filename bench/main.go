// Command bench is the repository's end-to-end benchmark. It drives the
// public experiments.RunE from outside: each timed run is a fresh child
// process running one simulation of a fixed workload, and each layer is
// timed through its own public functions. See README.md.
//
// From the repository root:
//
//	bash bench/run.sh                          full run: every workload, traced runs, layer suite
//	bash bench/run.sh -out a.json              ... and write the results file
//	bash bench/run.sh -compare a.json b.json   judge b against a
//	bash bench/run.sh -workload poll-scan -seed 3 -seconds 10 -trace 0
//	                                           one workload; the last line is a JSON result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		workload     = flag.String("workload", "", "measure one workload and end with a one-line JSON result (default: all workloads)")
		seed         = flag.Int64("seed", 1, "workload seed, passed to RunSpec.Seed")
		seconds      = flag.Int("seconds", 10, "with -workload: how long to keep launching timed runs")
		trace        = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics instead of the end-to-end ones")
		out          = flag.String("out", "", "full run: write the results JSON to this file")
		compare      = flag.Bool("compare", false, "compare two results files given as arguments: a.json b.json")
		updateGolden = flag.Bool("update-golden", false, "record the simulated outputs at the golden seeds into bench/golden.json")
		child        = flag.String("child", "", "internal: run one simulation of this workload and print its result")
		childKindArg = flag.String("child-kind", string(childTimed), "internal: timed, setup or traced")
	)
	flag.Parse()
	if *child != "" {
		exitOn(childMain(*child, *seed, childKind(*childKindArg)))
		return
	}
	root, err := findRoot()
	exitOn(err)
	cfg, err := loadConfig(root)
	exitOn(err)
	switch {
	case *compare:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("bench: -compare needs two results files"))
		}
		ok, err := compareFiles(cfg, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if !ok {
			os.Exit(1)
		}
	case *updateGolden:
		exitOn(writeGoldens(cfg, root))
	case *workload != "":
		goldens, err := loadGoldens(root)
		exitOn(err)
		if !runContract(cfg, goldens, *workload, *seed, *seconds, *trace == 1) {
			os.Exit(1)
		}
	default:
		goldens, err := loadGoldens(root)
		exitOn(err)
		ok, err := runFull(cfg, goldens, *seed, *out)
		exitOn(err)
		if !ok {
			os.Exit(1)
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// contractMetric is one entry of the one-line result's metrics.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

// runContract measures one workload and prints, as its last line, the JSON
// result: the end-to-end metrics, or with trace the per-layer ones. Simulated
// operations attempted and failed are the generator's issued and failed
// connections summed over the timed children.
func runContract(cfg *benchConfig, goldens goldenFile, workload string, seed int64, seconds int, trace bool) bool {
	if !cfg.hasWorkload(workload) {
		exitOn(fmt.Errorf("bench: workload %q is not in %s", workload, configName))
	}
	wr, err := measure(workload, seed, seconds, trace)
	exitOn(err)
	checks := wr.checks(goldens, seed)
	printChecks(checks)
	res := contractResult{Correct: allOK(checks), Metrics: map[string]contractMetric{}}
	for _, c := range wr.timed {
		res.Attempted += c.Out.Issued
		res.Failed += c.Out.Errors
	}
	if trace {
		layers, err := runLayers()
		exitOn(err)
		values := wr.perLayer(layers)
		printProfileNotes(wr)
		for _, d := range cfg.PerLayer {
			res.Metrics[d.Name] = contractMetric{Value: values[d.Name], Unit: d.Unit}
		}
	} else {
		for name, s := range wr.endToEnd(cfg.EndToEnd) {
			res.Metrics[name] = contractMetric{Value: s.Median, Unit: s.Unit}
		}
	}
	line, err := json.Marshal(res)
	exitOn(err)
	fmt.Println(string(line))
	return res.Correct
}

// hostInfo records where a results file was measured.
type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func currentHost() hostInfo {
	return hostInfo{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed      int64                      `json:"seed"`
	Host      hostInfo                   `json:"host"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Layers    map[string]float64         `json:"layers"`
	Checks    []check                    `json:"checks"`
}

type workloadResult struct {
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
	Outputs  outputs            `json:"outputs"`
}

func (cfg *benchConfig) hasWorkload(name string) bool {
	for _, w := range cfg.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (cfg *benchConfig) workloadNames() []string {
	names := make([]string, len(cfg.Workloads))
	for i, w := range cfg.Workloads {
		names[i] = w.Name
	}
	return names
}

// fullRunWorkloads are the workloads a full run and -update-golden cover:
// BENCHMARK.json's, plus churn-epoll-t2 beside churn-epoll. churn-epoll-t2 is
// not a benchmark workload, because two simulation threads on a 2-CPU host
// time the scheduler as much as the program; a full run keeps its wall time
// on record next to the one-thread number and compares its outputs with
// churn-epoll's.
func (cfg *benchConfig) fullRunWorkloads() []string {
	names := cfg.workloadNames()
	if cfg.hasWorkload(churnWorkload) {
		names = append(names, t2Workload)
	}
	return names
}

// runFull runs every workload: a set-up and a timed child per workload in
// interleaved rounds, traced children, then the layer suite. It prints the
// report and reports whether every output check passed.
func runFull(cfg *benchConfig, goldens goldenFile, seed int64, outPath string) (bool, error) {
	names := cfg.fullRunWorkloads()
	runs := map[string]*workloadRuns{}
	for _, name := range names {
		runs[name] = newWorkloadRuns(name)
	}
	var h hostClock
	for round := 1; round <= fullRounds; round++ {
		for _, name := range names {
			cr, err := runs[name].addRound(&h, seed, true)
			if err != nil {
				return false, err
			}
			fmt.Fprintf(os.Stderr, "round %d/%d %-17s wall %.3f s, reference %.3f s\n", round, fullRounds, name, cr.WallS, cr.RefWallS)
		}
	}
	for _, name := range names {
		if err := runs[name].addTraced(&h, seed); err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "traced %-17s %d runs\n", name, len(runs[name].traced))
	}
	if ref, ok := runs[churnWorkload]; ok {
		if t2, ok := runs[t2Workload]; ok {
			t2.ref = &ref.timed[0].Out
		}
	}
	fmt.Fprintln(os.Stderr, "layer suite")
	layers, err := runLayers()
	if err != nil {
		return false, err
	}

	rf := resultFile{Seed: seed, Host: currentHost(), Workloads: map[string]*workloadResult{}, Layers: layers}
	for _, name := range names {
		wr := runs[name]
		rf.Workloads[name] = &workloadResult{
			EndToEnd: wr.endToEnd(cfg.EndToEnd),
			PerLayer: wr.perLayer(nil),
			Outputs:  wr.timed[0].Out,
		}
		rf.Checks = append(rf.Checks, wr.checks(goldens, seed)...)
	}
	printReport(cfg, rf, runs, names)
	if outPath != "" {
		data, err := json.MarshalIndent(rf, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
		fmt.Printf("results written to %s\n", outPath)
	}
	return allOK(rf.Checks), nil
}

// writeGoldens records every workload's simulated outputs at the golden
// seeds.
func writeGoldens(cfg *benchConfig, root string) error {
	g := goldenFile{}
	for _, seed := range goldenSeeds {
		key := fmt.Sprint(seed)
		g[key] = map[string]golden{}
		for _, name := range cfg.fullRunWorkloads() {
			cr, err := runChild(name, seed, childTimed)
			if err != nil {
				return err
			}
			g[key][name] = cr.Out.golden()
			fmt.Fprintf(os.Stderr, "seed %d %-17s %+v\n", seed, name, cr.Out.golden())
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root), append(data, '\n'), 0o644)
}
