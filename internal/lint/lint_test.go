package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// analyzers are the checks every module package must pass.
var analyzers = []struct {
	name string
	run  func(*Pass) []Diag
}{
	{"tuplemut", TupleMut},
	{"astmut", ASTMut},
}

// unit is one package of `go list -deps -test -export -json`: a package,
// its in-package test variant "p [p.test]", or its external test
// package "p_test [p.test]".
type unit struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	ImportMap               map[string]string
	Standard, DepOnly       bool
}

// lintModule type-checks every unit `go list` reports for the
// patterns, run at the module root, against its dependencies' export
// data, and returns the analyzers' findings as "file:line:col:
// analyzer: message", sorted, each once (a package and its test
// variant share the package's files). Standard-library units,
// dependencies recompiled for another package's test and generated
// test mains are skipped.
func lintModule(t *testing.T, patterns ...string) []string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-test", "-export", "-json"}, patterns...)...)
	cmd.Dir = filepath.Join("..", "..")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var units []unit
	export := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var u unit
		if err := dec.Decode(&u); err != nil {
			t.Fatal(err)
		}
		export[u.ImportPath] = u.Export
		if !u.Standard && !u.DepOnly && !strings.HasSuffix(u.ImportPath, ".test") {
			units = append(units, u)
		}
	}
	var findings []string
	for _, u := range units {
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range u.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(u.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		// The gc importer reads each direct import's export data, under
		// the variant of it this unit was built against.
		gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(export[path])
		})
		imp := importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := u.ImportMap[path]; ok {
				path = mapped
			}
			return gc.Import(path)
		})
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(u.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", u.ImportPath, err)
		}
		// Without the " [p.test]" suffix, so that a test variant of
		// internal/tuple or internal/ast keeps its own-package exemption.
		path, _, _ := strings.Cut(u.ImportPath, " ")
		pass := &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info, Path: path}
		for _, a := range analyzers {
			for _, d := range a.run(pass) {
				findings = append(findings, fmt.Sprintf("%s: %s: %s", fset.Position(d.Pos), a.name, d.Message))
			}
		}
	}
	slices.Sort(findings)
	return slices.Compact(findings)
}

// TestAnalyzersPassOnModule: no package of the module, test files
// included, writes through a shared tuple payload or AST slice.
func TestAnalyzersPassOnModule(t *testing.T) {
	for _, f := range lintModule(t, "./...") {
		t.Error(f)
	}
}

// TestAnalyzersFlagFixture: the deliberately broken fixture trips every
// analyzer exactly where it should, and the reused-scratch shape of the
// matcher and the firing kernel is not flagged.
func TestAnalyzersFlagFixture(t *testing.T) {
	got := lintModule(t, "./internal/lint/testdata/fixture")
	want := []string{
		"fixture.go:15:2: tuplemut: write through shared tuple payload t[0]",
		"fixture.go:32:2: tuplemut: write through shared tuple payload view[0]",
		"fixture.go:39:2: astmut: in-place write to shared AST slice p.Rules[0]",
	}
	if len(got) != len(want) {
		t.Fatalf("%d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("finding %s\nwant %s", got[i], w)
		}
	}
}

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
