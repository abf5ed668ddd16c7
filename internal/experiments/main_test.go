package experiments

import (
	"os"
	"runtime/debug"
	"testing"
)

// TestMain runs the package's tests at GOGC 400. A simulated run's live heap
// is a few MB, so at the default 100 the collector runs every few MB
// allocated. Measured on two CPUs: TestFigureGoldens takes about 7.5 instead
// of 10 s and the rest of the package about 5.5 instead of 7 s, for about
// 30 MB more peak RSS. No test here depends on when the collector runs: the
// heap budgets read the live heap after runtime.GC and the allocation budgets
// count mallocs.
func TestMain(m *testing.M) {
	debug.SetGCPercent(400)
	os.Exit(m.Run())
}
