package incr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"runtime"
	"strings"
	"testing"
)

// Allocation pins of the maintainer, beside tuple's and eval's: a
// batch allocates for the relations it grows, not per firing and not
// per checked fact.

// TestApplyAllocations holds a batch on the benchmark's shape — some 135
// of T's 2 134 facts deleted, 129 of them for good — under a ceiling 10 %
// above the 130 it takes. Rederiving fact by fact through a freshly
// compiled probe rule took 57 673 allocations a batch; delete–rederive,
// set-at-a-time, some 2 700; support counting on the Unreach layer, with
// a string key and a clone per changed firing, 2 086; forking the view's
// state for every batch, to match the losses against, 286; staging every
// round of a layer's insertion run into a fresh set, 221; into two
// sets kept for the run and appended (or, past a tombstone, inserted)
// into the state, 148.
//
// Each layer's deletion step reuses a pooled state. The race detector's
// pool drops a quarter of them, and a batch that misses one allocates
// some 130 times more to build it: under the race detector 182–209 were
// measured over eleven runs, and the ceiling is a quarter above the
// highest.
func TestApplyAllocations(t *testing.T) {
	v, ops, _ := denseGraph(t, nil)
	i := 0
	perPair := testing.AllocsPerRun(len(ops)/2, func() {
		for range 2 {
			op := ops[i%len(ops)]
			if _, err := v.Apply(op[0], op[1]); err != nil {
				t.Fatal(err)
			}
			i++
		}
	})
	limit := 143.0
	if raceEnabled {
		limit = 261
	}
	if perBatch := perPair / 2; perBatch > limit {
		t.Errorf("Apply allocates %.0f times per batch on the dense graph, want <= %.0f", perBatch, limit)
	}
}

// TestLeafCutAgainAllocates holds a cut after the first on the tree of
// BenchmarkDeleteTreeLeafAgain, whose closure holds 90 114 facts, to the
// bytes of its batch: under 64 KB. A view that forked its state for
// every batch copied T whole on each, some 6 MB.
func TestLeafCutAgainAllocates(t *testing.T) {
	last := 1<<(treeDepth+1) - 2
	v, leafEdge := treeView(t, treeDepth)
	if _, err := v.Delete("G", leafEdge(last)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := v.Delete("G", leafEdge(last-1)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("the second leaf cut allocated %d bytes, want < 64 KB", n)
	}
}

// TestCompilesOnlyAtViewBuild: every plan a view fires is compiled
// while Materialize runs. (The planner reschedules a compiled rule when
// a relation crosses a size decade; that is eval's own memoized replan,
// not a compilation incr asks for.) And a view is built from its own
// layers: incr.go does not import the declarative engines, whose
// evaluation would compile the program a second time.
func TestCompilesOnlyAtViewBuild(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "incr.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if imp.Path.Value == `"unchained/internal/declarative"` {
			t.Errorf("incr.go imports internal/declarative: a view materializes through its own layers")
		}
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name == "Materialize" || fn.Name.Name == "compileVariants" {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Compile") {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "eval" {
					t.Errorf("%s calls eval.%s: a view compiles at build time only", fn.Name.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}
