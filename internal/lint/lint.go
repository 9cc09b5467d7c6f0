// Package lint holds the repo's custom static analyzers, run against
// every build via `go vet -vettool` (cmd/vet-unchained) and `make
// vet-custom`. They enforce three engine-layer invariants the type
// system cannot express:
//
//   - stageloop: engines do not write their own stage loop. The stage
//     protocol — poll the context, BeginStage, EndStage — lives in one
//     place, the driver (engine.Options.Loop), which is what guarantees
//     that a request deadline interrupts every engine (the property
//     internal/serve relies on). A call to BeginStage, EndStage or
//     Interrupted from an engine package is a finding: plug a step into
//     the driver instead.
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
// The analyzers are dependency-free (go/ast + go/types only) so the
// vet tool builds without golang.org/x/tools.
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

// Pass is the per-package unit of work: parsed files plus (optionally)
// type information. Stageloop is purely syntactic and runs without
// types; TupleMut requires Info and reports nothing when it is nil.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	// Pkg and Info are the type-checked package (nil for syntax-only
	// callers).
	Pkg  *types.Package
	Info *types.Info
	// Path is the package import path (used for the engine-package
	// filter; falls back to Pkg.Path() when empty).
	Path string
	// AllPackages disables stageloop's engine-package filter, for
	// fixtures and tests living outside the engine tree.
	AllPackages bool
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

// enginePackages are the import-path suffixes of the packages that
// run their stages through the driver (internal/engine itself, which
// hosts it, is not among them).
var enginePackages = []string{
	"internal/core",
	"internal/declarative",
	"internal/while",
	"internal/nondet",
	"internal/incr",
	"internal/magic",
	"internal/active",
	// eval hosts the iterator drain loops stageloop also checks.
	"internal/eval",
}

func isEnginePackage(path string) bool {
	for _, s := range enginePackages {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// isTestFile reports whether the node's file is a _test.go file.
func isTestFile(fset *token.FileSet, n ast.Node) bool {
	return strings.HasSuffix(fset.Position(n.Pos()).Filename, "_test.go")
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

// containsCall reports whether the subtree lexically contains a call
// to a function or method with the given bare name.
func containsCall(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && calleeName(call) == name {
			found = true
			return false
		}
		return true
	})
	return found
}

// drainLoopExits reports whether a condition-less for-loop body can
// leave the loop: a break binding to this loop (not swallowed by a
// nested loop, switch, or select — labeled breaks are trusted), or a
// return/goto anywhere in the body.
func drainLoopExits(body *ast.BlockStmt) bool {
	exits := false
	var walk func(root ast.Node, nested bool)
	walk = func(root ast.Node, nested bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if exits || n == nil {
				return false
			}
			switch st := n.(type) {
			case *ast.BranchStmt:
				switch st.Tok {
				case token.BREAK:
					if !nested || st.Label != nil {
						exits = true
					}
				case token.GOTO:
					exits = true
				}
			case *ast.ReturnStmt:
				exits = true
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if n != root { // breaks inside bind to the inner statement
					walk(n, true)
					return false
				}
			}
			return true
		})
	}
	walk(body, false)
	return exits
}

// checkDrainLoops flags condition-less for-loops that pull an
// iterator (a .Next() call) but provide no way out: the streaming
// executor's drain loops end by checking Next's ok result, so a drain
// loop with no break/return spins forever once written.
func checkDrainLoops(f *ast.File) []Diag {
	var diags []Diag
	ast.Inspect(f, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil || loop.Init != nil || loop.Post != nil {
			return true
		}
		if !containsCall(loop.Body, "Next") || drainLoopExits(loop.Body) {
			return true
		}
		diags = append(diags, Diag{
			Pos:     loop.Pos(),
			Message: "iterator drain loop has no break or return: Next() is pulled forever once the cursor is exhausted",
		})
		return true
	})
	return diags
}

// stageProtocol names the calls only the driver may make.
var stageProtocol = map[string]bool{"BeginStage": true, "EndStage": true, "Interrupted": true}

// Stageloop flags stage-protocol calls made outside the driver, and
// iterator drain loops with no exit path.
func Stageloop(p *Pass) []Diag {
	if !p.AllPackages && !isEnginePackage(p.path()) {
		return nil
	}
	var diags []Diag
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		diags = append(diags, checkDrainLoops(f)...)
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && stageProtocol[calleeName(call)] {
				diags = append(diags, Diag{
					Pos:     call.Pos(),
					Message: calleeName(call) + " called outside the stage-loop driver: plug a step into (engine.Options).Loop, which polls the context and brackets the stage",
				})
			}
			return true
		})
	}
	return diags
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
