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
