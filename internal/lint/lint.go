// Package lint holds the repo's custom static analyzers.
// TestAnalyzersPassOnModule runs them over every package of the
// module, test files included, as part of `go test ./...`. They
// enforce two shared-payload invariants the type system cannot
// express:
//
//   - tuplemut: tuple.Tuple values share their backing array across
//     copy-on-write instance snapshots, so writing through an index
//     (t[i] = v) outside internal/tuple mutates every holder of the
//     payload. Only freshly-allocated tuples (make/append/composite
//     literal in the same function) may be written in place.
//   - astmut: ast.Program values are shared — the daemon's parse cache
//     serves one program to every concurrent request, and the
//     optimizer hands rewritten programs back while callers may retain
//     the original — so writing through a slice of AST nodes
//     (p.Rules[i] = r, body[j] = lit) outside internal/ast mutates
//     every holder. Rewrite passes must build fresh slices
//     (copy-on-write), so only writes into freshly-allocated slices
//     are allowed.
//
// The analyzers use go/ast and go/types only, so nothing outside the
// standard library runs them: the test type-checks each package against
// the export data `go list -export` reports for its imports.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diag is one analyzer finding.
type Diag struct {
	Pos     token.Pos
	Message string
}

// Pass is the per-package unit of work: parsed files plus type
// information. The analyzers require Info and report nothing when it
// is nil.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	// Pkg and Info are the type-checked package (nil for syntax-only
	// callers).
	Pkg  *types.Package
	Info *types.Info
	// Path is the package import path (the analyzers skip the package
	// that owns the payload; falls back to Pkg.Path() when empty).
	Path string
}

func (p *Pass) path() string {
	if p.Path != "" {
		return p.Path
	}
	if p.Pkg != nil {
		return p.Pkg.Path()
	}
	return ""
}

// calleeName returns the bare method/function name of a call: the
// selector for x.F(...) or the identifier for F(...).
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.Ident:
		return fn.Name
	}
	return ""
}

// isTupleType reports whether t is (an alias of) the named type Tuple
// from a package whose path ends in internal/tuple.
func isTupleType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Tuple" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/tuple")
}

// freshVars collects the objects of identifiers bound, anywhere in
// the function, to a fresh allocation of a type matching want:
// make(...), append (which reallocates or extends a local), or a
// composite literal. Writes through those are private by construction.
func freshVars(info *types.Info, fn ast.Node, want func(types.Type) bool) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || !want(obj.Type()) {
			return
		}
		switch r := rhs.(type) {
		case *ast.CallExpr:
			if n := calleeName(r); n == "make" || n == "append" {
				fresh[obj] = true
			}
		case *ast.CompositeLit:
			fresh[obj] = true
		}
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					record(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					record(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})
	return fresh
}

// TupleMut flags index-assignments through tuple.Tuple values outside
// internal/tuple, unless the base is a local identifier bound to a
// fresh allocation in the same function.
func TupleMut(p *Pass) []Diag {
	if p.Info == nil || strings.HasSuffix(p.path(), "internal/tuple") {
		return nil
	}
	return flagIndexWrites(p, isTupleType,
		"write through shared tuple payload %s: tuples alias across copy-on-write snapshots; build a fresh tuple instead (see internal/tuple)")
}

// flagIndexWrites is the engine behind TupleMut and ASTMut: it flags
// index-assignments (x[i] = v, x[i]++) through values whose type
// matches want, exempting identifiers bound to a fresh allocation in
// the same function.
func flagIndexWrites(p *Pass, want func(types.Type) bool, format string) []Diag {
	var diags []Diag
	flag := func(idx *ast.IndexExpr, fresh map[types.Object]bool) {
		tv, ok := p.Info.Types[idx.X]
		if !ok || !want(tv.Type) {
			return
		}
		if id, ok := idx.X.(*ast.Ident); ok {
			obj := p.Info.Uses[id]
			if obj == nil {
				obj = p.Info.Defs[id]
			}
			if obj != nil && fresh[obj] {
				return
			}
		}
		diags = append(diags, Diag{
			Pos:     idx.Pos(),
			Message: fmt.Sprintf(format, types.ExprString(idx)),
		})
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fresh := freshVars(p.Info, fn, want)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						if idx, ok := lhs.(*ast.IndexExpr); ok {
							flag(idx, fresh)
						}
					}
				case *ast.IncDecStmt:
					if idx, ok := st.X.(*ast.IndexExpr); ok {
						flag(idx, fresh)
					}
				}
				return true
			})
		}
	}
	return diags
}

// astNodeNames are the internal/ast building blocks whose slices
// alias across every holder of a program.
var astNodeNames = map[string]bool{
	"Program": true,
	"Rule":    true,
	"Literal": true,
	"Atom":    true,
	"Term":    true,
}

// isASTSlice reports whether t is (an alias of) a slice whose element
// type is one of internal/ast's node types.
func isASTSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	named, ok := types.Unalias(sl.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return astNodeNames[obj.Name()] && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/ast")
}

// ASTMut flags index-assignments through slices of internal/ast node
// types ([]ast.Rule, []ast.Literal, []ast.Term, ...) outside
// internal/ast itself, unless the slice is a local identifier bound
// to a fresh allocation in the same function. Shared ast.Program
// values reach every concurrent request of the daemon's parse cache
// and remain live in callers across optimizer rewrites, so passes
// must copy-on-write.
func ASTMut(p *Pass) []Diag {
	if p.Info == nil || strings.HasSuffix(p.path(), "internal/ast") {
		return nil
	}
	return flagIndexWrites(p, isASTSlice,
		"in-place write to shared AST slice %s: programs are shared across cached sessions and optimizer rewrites; build a fresh slice instead (copy-on-write, see internal/opt)")
}
