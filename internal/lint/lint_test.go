package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// typecheck parses and type-checks one file as package path, with
// deps (path -> source) available for import.
func typecheck(t *testing.T, path, src string, deps map[string]string) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*types.Package{}
	var check func(path, src string) *types.Package
	imp := importerFunc(func(p string) (*types.Package, error) {
		if pkg, ok := pkgs[p]; ok {
			return pkg, nil
		}
		if src, ok := deps[p]; ok {
			return check(p, src), nil
		}
		return importer.Default().Import(p)
	})
	var lastInfo *types.Info
	var lastFiles []*ast.File
	check = func(path, src string) *types.Package {
		f, err := parser.ParseFile(fset, strings.ReplaceAll(path, "/", "_")+".go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", path, err)
		}
		pkgs[path] = pkg
		lastInfo, lastFiles = info, []*ast.File{f}
		return pkg
	}
	pkg := check(path, src)
	return &Pass{Fset: fset, Files: lastFiles, Pkg: pkg, Info: lastInfo}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

const tupleDep = `package tuple
type Tuple []int
`

func messages(ds []Diag) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Message)
	}
	return out
}

func TestTupleMutFlagsSharedWrites(t *testing.T) {
	p := typecheck(t, "x/internal/eval", `package eval
import "x/internal/tuple"

func bad(t tuple.Tuple) { t[0] = 1 }

func badIncDec(t tuple.Tuple) { t[0]++ }

func badNested(ts []tuple.Tuple) { ts[0][1] = 2 }

func okFresh() tuple.Tuple {
	t := make(tuple.Tuple, 2)
	t[0] = 1
	return t
}

func okLiteral() tuple.Tuple {
	t := tuple.Tuple{0, 0}
	t[1] = 2
	return t
}

func okAppend(in tuple.Tuple) tuple.Tuple {
	t := append(tuple.Tuple(nil), in...)
	t[0] = 9
	return t
}

func okRead(t tuple.Tuple) int { return t[0] }

func okOtherSlice(s []int) { s[0] = 1 }

func okScratch(scratch []int, v int) tuple.Tuple {
	scratch[0] = v
	return tuple.Tuple(scratch)
}

func badScratchView(scratch []int) {
	view := tuple.Tuple(scratch)
	view[0] = 1
}
`, map[string]string{"x/internal/tuple": tupleDep})
	ds := TupleMut(p)
	if len(ds) != 4 {
		t.Fatalf("got %d diags, want 4: %v", len(ds), messages(ds))
	}
	for _, d := range ds {
		if !strings.Contains(d.Message, "shared tuple payload") {
			t.Errorf("message: %q", d.Message)
		}
		if pos := p.Fset.Position(d.Pos); !pos.IsValid() {
			t.Errorf("invalid position for %q", d.Message)
		}
	}
}

func TestTupleMutSkipsTuplePackageItself(t *testing.T) {
	p := typecheck(t, "x/internal/tuple2/internal/tuple", `package tuple
type Tuple []int
func (t Tuple) set(i, v int) { t[i] = v }
`, nil)
	if ds := TupleMut(p); len(ds) != 0 {
		t.Fatalf("flagged internal/tuple itself: %v", messages(ds))
	}
}

const astDep = `package ast
type Term struct{ Var string; Const uint32 }
type Atom struct{ Pred string; Args []Term }
type Literal struct{ Atom Atom }
type Rule struct{ Head, Body []Literal }
type Program struct{ Rules []Rule }
`

func TestASTMutFlagsSharedWrites(t *testing.T) {
	p := typecheck(t, "x/internal/opt", `package opt
import "x/internal/ast"

func badProgram(p *ast.Program, r ast.Rule) { p.Rules[0] = r }

func badBody(r ast.Rule, l ast.Literal) { r.Body[1] = l }

func badArgs(a ast.Atom, t ast.Term) { a.Args[0] = t }

func okFresh(r ast.Rule, l ast.Literal) []ast.Literal {
	body := make([]ast.Literal, len(r.Body))
	body[0] = l
	return body
}

func okAppend(rs []ast.Rule, r ast.Rule) []ast.Rule {
	out := append([]ast.Rule(nil), rs...)
	out[0] = r
	return out
}

func okRead(p *ast.Program) ast.Rule { return p.Rules[0] }

func okOtherSlice(s []string) { s[0] = "x" }
`, map[string]string{"x/internal/ast": astDep})
	ds := ASTMut(p)
	if len(ds) != 3 {
		t.Fatalf("got %d diags, want 3: %v", len(ds), messages(ds))
	}
	for _, d := range ds {
		if !strings.Contains(d.Message, "shared AST slice") {
			t.Errorf("message: %q", d.Message)
		}
		if pos := p.Fset.Position(d.Pos); !pos.IsValid() {
			t.Errorf("invalid position for %q", d.Message)
		}
	}
}

func TestASTMutSkipsASTPackageItself(t *testing.T) {
	p := typecheck(t, "x/y/internal/ast", astDep+`
func (p *Program) set(i int, r Rule) { p.Rules[i] = r }
`, nil)
	if ds := ASTMut(p); len(ds) != 0 {
		t.Fatalf("flagged internal/ast itself: %v", messages(ds))
	}
}

// parseOnly builds a syntax-only Pass (what stageloop needs).
func parseOnly(t *testing.T, path, src string) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Pass{Fset: fset, Files: []*ast.File{f}, Path: path}
}

// stageLoopBad is a hand-rolled stage loop: it polls and brackets its
// stages itself instead of plugging a step into the driver.
const stageLoopBad = `package core
func eval(col Col, opt Opt) {
	for i := 0; i < 10; i++ {
		if err := opt.Interrupted(i); err != nil {
			return
		}
		col.BeginStage()
		col.EndStage(1)
	}
}
type Col interface{ BeginStage(); EndStage(int) }
type Opt interface{ Interrupted(int) error }
`

// stageLoopGood runs its stages through the driver.
const stageLoopGood = `package core
func eval(col Col, opt Opt) {
	opt.Loop(col, 10, nil, func(int) (int, error) { return 1, nil })
}
type Col interface{}
type Opt interface{ Loop(Col, int, func(int) error, func(int) (int, error)) (int, error) }
`

func TestStageloopFlagsProtocolCalls(t *testing.T) {
	ds := Stageloop(parseOnly(t, "x/internal/core", stageLoopBad))
	if len(ds) != 3 {
		t.Fatalf("got %d diags, want one per protocol call: %v", len(ds), messages(ds))
	}
	for i, name := range []string{"Interrupted", "BeginStage", "EndStage"} {
		if !strings.HasPrefix(ds[i].Message, name+" called outside the stage-loop driver") {
			t.Errorf("diag %d: %q", i, ds[i].Message)
		}
	}
}

func TestStageloopAcceptsDriverStep(t *testing.T) {
	if ds := Stageloop(parseOnly(t, "x/internal/core", stageLoopGood)); len(ds) != 0 {
		t.Fatalf("false positive: %v", messages(ds))
	}
}

func TestStageloopFlagsCallOutsideAnyLoop(t *testing.T) {
	// The parent rule let a BeginStage outside a for-loop through; a
	// single stage goes through the driver like any other.
	p := parseOnly(t, "x/internal/declarative", `package declarative
func one(col Col) { col.BeginStage(); col.EndStage() }
type Col interface{ BeginStage(); EndStage() }
`)
	if ds := Stageloop(p); len(ds) != 2 {
		t.Fatalf("single-stage protocol calls: %v", messages(ds))
	}
}

func TestStageloopSkipsNonEnginePackages(t *testing.T) {
	if ds := Stageloop(parseOnly(t, "x/internal/stats", stageLoopBad)); len(ds) != 0 {
		t.Fatalf("flagged non-engine package: %v", messages(ds))
	}
	p := parseOnly(t, "x/internal/stats", stageLoopBad)
	p.AllPackages = true
	if ds := Stageloop(p); len(ds) != 3 {
		t.Fatalf("AllPackages filter override broken: %v", messages(ds))
	}
}

func TestStageloopSkipsTestFiles(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "core_test.go", stageLoopBad, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pass{Fset: fset, Files: []*ast.File{f}, Path: "x/internal/core"}
	if ds := Stageloop(p); len(ds) != 0 {
		t.Fatalf("flagged _test.go: %v", messages(ds))
	}
}

// TestEngineSuffixes pins the engine list to the packages that exist.
func TestEngineSuffixes(t *testing.T) {
	for _, s := range enginePackages {
		if !isEnginePackage("unchained/" + s) {
			t.Errorf("suffix %q does not match itself", s)
		}
	}
	if isEnginePackage("unchained/internal/ast") {
		t.Error("ast must not be an engine package")
	}
}

const drainLoopBad = `package eval
func drain(it Cursor) int {
	n := 0
	for {
		v, _ := it.Next()
		n += v
	}
}
type Cursor interface{ Next() (int, bool) }
`

const drainLoopGood = `package eval
func drain(it Cursor) int {
	n := 0
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		n += v
	}
	return n
}
type Cursor interface{ Next() (int, bool) }
`

func TestStageloopFlagsExitlessDrainLoop(t *testing.T) {
	ds := Stageloop(parseOnly(t, "x/internal/eval", drainLoopBad))
	if len(ds) != 1 || !strings.Contains(ds[0].Message, "drain loop") {
		t.Fatalf("diags: %v", messages(ds))
	}
}

func TestStageloopAcceptsDrainLoopWithBreak(t *testing.T) {
	if ds := Stageloop(parseOnly(t, "x/internal/eval", drainLoopGood)); len(ds) != 0 {
		t.Fatalf("false positive: %v", messages(ds))
	}
}

func TestStageloopDrainLoopReturnEscapes(t *testing.T) {
	p := parseOnly(t, "x/internal/eval", `package eval
func drain(it Cursor) int {
	for {
		v, ok := it.Next()
		if !ok {
			return v
		}
	}
}
type Cursor interface{ Next() (int, bool) }
`)
	if ds := Stageloop(p); len(ds) != 0 {
		t.Fatalf("return should count as an exit: %v", messages(ds))
	}
}

func TestStageloopDrainLoopNestedBreakDoesNotCount(t *testing.T) {
	// The only break binds to the inner switch, so the outer for {}
	// still never terminates.
	p := parseOnly(t, "x/internal/eval", `package eval
func drain(it Cursor) int {
	n := 0
	for {
		v, _ := it.Next()
		switch v {
		case 0:
			break
		default:
			n += v
		}
	}
}
type Cursor interface{ Next() (int, bool) }
`)
	if ds := Stageloop(p); len(ds) != 1 {
		t.Fatalf("switch-bound break must not satisfy the drain check: %v", messages(ds))
	}
}

func TestStageloopConditionedLoopNotADrainLoop(t *testing.T) {
	// for-loops with a condition terminate on their own terms; only
	// bare for {} loops are held to the break/return rule.
	p := parseOnly(t, "x/internal/eval", `package eval
func drain(it Cursor) int {
	n := 0
	for i := 0; i < 10; i++ {
		v, _ := it.Next()
		n += v
	}
	return n
}
type Cursor interface{ Next() (int, bool) }
`)
	if ds := Stageloop(p); len(ds) != 0 {
		t.Fatalf("conditioned loop flagged: %v", messages(ds))
	}
}
