package main

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/experiments"
)

// TestPointIDsMatchBaseline pins that the gated table and every committed
// baseline name the same points, so an emit can be gated against them.
func TestPointIDsMatchBaseline(t *testing.T) {
	var want []string
	for _, p := range experiments.BenchPoints() {
		want = append(want, p.ID)
	}
	sort.Strings(want)
	files, err := filepath.Glob("../../BENCH_PR*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed baseline found (%v)", err)
	}
	for _, path := range files {
		f, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range f.Entries {
			got = append(got, e.ID)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s ids = %v\nwant the table's %v", path, got, want)
		}
	}
}
