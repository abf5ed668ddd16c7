package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric as BENCHMARK.json declares it. The JSON is the only
// place units, directions and bounds are written down; the program reads them
// from there.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// higherIsBetter reports the metric's direction.
func (m metricDef) higherIsBetter() bool { return m.Better == "higher" }

// benchConfig is the part of BENCHMARK.json the program reads.
type benchConfig struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// golden is the simulated outputs recorded for one workload at one seed.
type golden struct {
	RepliesPerS float64 `json:"replies_per_s"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	ErrPct      float64 `json:"err_pct"`
	Replies     int     `json:"replies"`
	Errors      int     `json:"errors"`
}

// goldenFile maps seed (as a string, JSON keys being strings) to workload to
// the outputs recorded for it. It is written by -update-golden only.
type goldenFile map[string]map[string]golden

// goldenSeeds are the seeds -update-golden records.
var goldenSeeds = []int64{1, 2}

const (
	configName = "BENCHMARK.json"
	goldenName = "golden.json"
)

// findRoot returns the repository root: the directory holding BENCHMARK.json,
// which is the working directory when the benchmark runs and its parent when
// the package's tests run.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, configName)); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("bench: " + configName + " not found in . or ..; run from the repository root")
}

func loadConfig(root string) (*benchConfig, error) {
	data, err := os.ReadFile(filepath.Join(root, configName))
	if err != nil {
		return nil, err
	}
	var cfg benchConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", configName, err)
	}
	for _, w := range cfg.Workloads {
		if _, err := workloadSpec(w.Name, 1, 1); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", configName, err)
		}
	}
	for _, m := range cfg.EndToEnd {
		if _, ok := childMetrics[m.Name]; !ok && m.Name != setupMetric {
			return nil, fmt.Errorf("bench: %s: no measurement for end-to-end metric %q", configName, m.Name)
		}
	}
	return &cfg, nil
}

func goldenPath(root string) string { return filepath.Join(root, "bench", goldenName) }

func loadGoldens(root string) (goldenFile, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", goldenName, err)
	}
	return g, nil
}

// lookup returns the golden outputs for a workload at a seed, if recorded.
func (g goldenFile) lookup(workload string, seed int64) (golden, bool) {
	out, ok := g[fmt.Sprint(seed)][workload]
	return out, ok
}
