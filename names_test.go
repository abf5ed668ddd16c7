package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// readerAllowlist names the declarations in internal/ and cmd/ that no
// non-test code reads but that stay, each with the reader that keeps it: an
// Example whose output block prints it, a test in another package that
// probes an invariant through it, or the tool that reads it by reflection.
// Keys are package.Name, package.Type.Method or package.Type.Field.
var readerAllowlist = map[string]string{
	// Read by encoding/json when benchgate loads a baseline.
	"main.File.Schema": "encoding/json, benchgate's baseline loader",

	// Printed by an Example's output block.
	"compio.Compio.SQPending":  "compio/example_test.go: Example",
	"compio.Compio.CQLen":      "compio/example_test.go: Example",
	"compio.Compio.SQFlushes":  "compio/example_test.go: Example",
	"compio.Compio.Recoveries": "compio/example_test.go: Example",
	"compio.Compio.Doorbells":  "compio/example_test.go: Example",
	"eventlib.Base.NumEvents":  "eventlib/example_test.go: ExampleNew",
	"experiments.DefaultSpec":  "faults/example_test.go: ExampleConfig",
	"loadgen.Result.Retries":   "faults/example_test.go: ExampleConfig",
	"dhtnode.Server.LivePeers": "dhtnode/example_test.go: Example",
	"pushcore.SubscribeSize":   "pushcore/example_test.go: Example",

	// Invariant probes and counters that tests read.
	"core.SIGIO":                      "core/core_test.go: TestSignalConstants",
	"core.SIGRTMIN":                   "core/core_test.go: TestSignalConstants",
	"core.Minute":                     "eventlib/timers_test.go: TestTimerWheelMatchesReferenceHeap",
	"experiments.RunResult.Secondary": "experiments/chaos_test.go: TestChaosGracefulDegradation",
	"loadgen.Result.Finished":         "loadgen/books_test.go: TestMergedSamplesMatchRateSampler",
	"loadgen.Result.OfferedRate":      "loadgen/loadgen_test.go: TestGeneratorCompletesAgainstHealthyServer",
	"loadgen.Generator.Done":          "loadgen/loadgen_test.go: TestGeneratorCompletesAgainstHealthyServer",
	"loadgen.ArrivalConstant":         "loadgen/workload_test.go: TestLookupWorkload",
	"loadgen.BackgroundInactive":      "loadgen/workload_test.go: TestLookupWorkload",
	"netsim.DgramSock.Drops":          "netsim/datagram_test.go: TestDatagramGenerationStress",
	"netsim.Network.Listeners":        "thttpd/workers_test.go: TestReuseportRegistersOneListenerPerWorker",
	"netsim.Network.PortsInTimeWait":  "loadgen/pushdht_test.go: TestPushBudgetEndsRunWithoutTeardown",
	"netsim.SockAPI.EMFILECount":      "netsim/netsim_test.go: TestFDLimitLeavesConnectionQueued",
	"rcache.Stats.Hits":               "httpcore/keepalive_test.go: TestResponseCacheChargesHitMissAsymmetry",
	"rcache.Stats.Misses":             "httpcore/keepalive_test.go: TestResponseCacheChargesHitMissAsymmetry",
	"rcache.Stats.Inserts":            "httpcore/keepalive_test.go: TestResponseCacheChargesHitMissAsymmetry",
	"rcache.Stats.Evictions":          "rcache/rcache_test.go: TestLRUEvictionOrder",
	"rcache.Stats.Uncacheable":        "rcache/rcache_test.go: TestPinnedEntriesAreNotEvicted",
	"hybrid.Server.ModeTime":          "hybrid/hybrid_test.go: TestSwitchesToPollingUnderBurstAndBack",
	"hybrid.Server.OpenConnections":   "hybrid/hybrid_test.go: TestBothInterestSetsMaintainedConcurrently",
	"phhttpd.Server.OpenConnections":  "phhttpd/phhttpd_test.go: TestServesRequestsViaRTSignals",
	"thttpd.Server.OpenConnections":   "thttpd/thttpd_test.go: TestServesRequestsOnStockPoll",
	"pushcore.Server.Members":         "experiments/heap_test.go: TestHeldMemberHeapBudget",
	"simkernel.CostModel.Clone":       "simkernel/kernel_test.go: TestCostModelClone",
	"simkernel.CPU.Jobs":              "thttpd/workers_test.go: TestWorkersSpreadAcrossCPUs",
	"simkernel.FD.Watchers":           "interest/conformance_test.go: TestConformanceRemoveLeavesWatchers",
	"simkernel.Proc.TotalCharged":     "devpoll/devpoll_test.go: TestInterestManagementChargesKernelCosts",

	// The reference the merged reply-rate samples are compared against.
	"metrics.NewRateSampler":     "loadgen/books_test.go: TestMergedSamplesMatchRateSampler",
	"metrics.RateSampler.Record": "loadgen/books_test.go: TestMergedSamplesMatchRateSampler",
	"metrics.RateSampler.Finish": "loadgen/books_test.go: TestMergedSamplesMatchRateSampler",
}

// declared is one checked declaration: its allowlist key, its bare name and
// where it is.
type declared struct {
	key, name string
	field     bool
	pos       token.Position
}

// nameUses counts, per identifier, the uses outside declarations, split into
// reads and writes (the left side of an assignment or increment, or the key
// of a composite literal).
type nameUses struct{ reads, writes int }

// TestExportedNamesHaveReaders fails for an exported func, method, type,
// const, var or struct field declared in internal/ or cmd/ that no non-test
// code in internal/, cmd/ or bench/ names, and for a struct field, exported
// or not, whose every non-test use stores to it. Names match by identifier
// alone, so a name shared with anything read passes: the check is a lower
// bound. internal/simtest is test support and is neither checked nor counted
// as a reader. A name that stays for a test or Example is listed in
// readerAllowlist with that reader; an entry whose name is now read, or no
// longer declared, fails too.
func TestExportedNamesHaveReaders(t *testing.T) {
	fset := token.NewFileSet()
	var decls []declared
	declIdents := map[*ast.Ident]bool{}
	uses := map[string]*nameUses{}
	for _, root := range []string{"internal", "cmd", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("internal", "simtest") || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if root != "bench" {
				decls = append(decls, declarations(fset, f, declIdents)...)
			}
			countUses(f, declIdents, uses)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	read := func(d declared) bool {
		u := uses[d.name]
		return u != nil && (u.reads > 0 || (!d.field && u.writes > 0))
	}
	seen := map[string]declared{}
	var unread []string
	for _, d := range decls {
		seen[d.key] = d
		if _, kept := readerAllowlist[d.key]; read(d) || kept {
			continue
		}
		what := "no non-test reader"
		if uses[d.name] != nil {
			what = "written but never read outside tests"
		}
		unread = append(unread, d.pos.String()+": "+d.key+": "+what)
	}
	sort.Strings(unread)
	for _, s := range unread {
		t.Error(s)
	}

	var stale []string
	for key, reader := range readerAllowlist {
		d, ok := seen[key]
		switch {
		case !ok:
			stale = append(stale, key+" (kept for "+reader+") is no longer declared")
		case read(d):
			stale = append(stale, key+" (kept for "+reader+") now has a non-test reader")
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Error("stale allowlist entry: " + s)
	}
}

// declarations returns the file's checked declarations and marks their
// identifiers in declIdents: exported package-level names, exported methods
// (keyed by receiver type), and every named struct field, exported or not, of
// a package-level type (keyed by that type).
func declarations(fset *token.FileSet, f *ast.File, declIdents map[*ast.Ident]bool) []declared {
	pkg := f.Name.Name
	var out []declared
	add := func(id *ast.Ident, key string, field bool) {
		declIdents[id] = true
		if id.Name == "_" || (!field && !id.IsExported()) {
			return
		}
		out = append(out, declared{key: key, name: id.Name, field: field, pos: fset.Position(id.Pos())})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			key := pkg + "." + decl.Name.Name
			if decl.Recv != nil {
				key = pkg + "." + receiverName(decl.Recv.List[0].Type) + "." + decl.Name.Name
			}
			add(decl.Name, key, false)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, pkg+"."+id.Name, false)
					}
				case *ast.TypeSpec:
					add(spec.Name, pkg+"."+spec.Name.Name, false)
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							add(id, pkg+"."+spec.Name.Name+"."+id.Name, true)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName returns the type name of a method receiver, without pointer
// or type parameters.
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// countUses adds the file's identifier uses, outside the declarations marked
// in declIdents, to uses. The selector stored through by an assignment or an
// increment, and the key of a composite literal element, count as writes;
// every other use counts as a read.
func countUses(f *ast.File, declIdents map[*ast.Ident]bool, uses map[string]*nameUses) {
	writes := map[*ast.Ident]bool{}
	stored := func(x ast.Expr) {
		for {
			switch e := x.(type) {
			case *ast.ParenExpr:
				x = e.X
			case *ast.IndexExpr:
				x = e.X
			case *ast.SelectorExpr:
				writes[e.Sel] = true
				return
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					stored(lhs)
				}
			}
		case *ast.IncDecStmt:
			stored(n.X)
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				}
			}
		case *ast.Ident:
			if declIdents[n] {
				return true
			}
			u := uses[n.Name]
			if u == nil {
				u = &nameUses{}
				uses[n.Name] = u
			}
			if writes[n] {
				u.writes++
			} else {
				u.reads++
			}
		}
		return true
	})
}
