package unchained

import (
	"context"
	"strings"
	"testing"

	"unchained/internal/ast"
)

func TestSessionQuickstartFlow(t *testing.T) {
	s := NewSession()
	prog, err := s.Parse(`
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	edb, err := s.Facts(`G(a,b). G(b,c).`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.EvalContext(context.Background(), prog, edb, MinimalModel)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Out.Has("T", Tuple{s.Sym("a"), s.Sym("c")}) {
		t.Fatalf("T(a,c) missing:\n%s", s.Format(res.Out))
	}
}

func TestSessionAllSemanticsOnPositiveProgram(t *testing.T) {
	s := NewSession()
	prog := s.MustParse(`T(X,Y) :- G(X,Y). T(X,Y) :- G(X,Z), T(Z,Y).`)
	edb := s.MustFacts(`G(a,b). G(b,c). G(c,a).`)
	var outs []*Instance
	for _, sem := range []Semantics{MinimalModel, Stratified, WellFounded, Inflationary, NonInflationary, Invent} {
		res, err := s.EvalContext(context.Background(), prog, edb, sem)
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		outs = append(outs, res.Out)
	}
	for i := 1; i < len(outs); i++ {
		if !outs[0].Equal(outs[i]) {
			t.Fatalf("semantics %d disagrees on positive program", i)
		}
	}
}

func TestSessionWellFounded3(t *testing.T) {
	s := NewSession()
	prog := s.MustParse(`Win(X) :- Moves(X,Y), !Win(Y).`)
	edb := s.MustFacts(`Moves(a,b). Moves(b,a).`)
	wfs, err := s.EvalWellFounded3Context(context.Background(), prog, edb)
	if err != nil {
		t.Fatal(err)
	}
	if wfs.Total() {
		t.Fatalf("2-cycle game should have unknowns")
	}
}

func TestSessionNondet(t *testing.T) {
	s := NewSession()
	prog := s.MustParse(`!G(X,Y) :- G(X,Y), G(Y,X).`)
	edb := s.MustFacts(`G(a,b). G(b,a).`)
	res, err := s.RunNondetContext(context.Background(), prog, DialectNDatalogNegNeg, edb, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Relation("G").Len() != 1 {
		t.Fatalf("orientation left %d edges", res.Out.Relation("G").Len())
	}
	eff, err := s.EffectsContext(context.Background(), prog, DialectNDatalogNegNeg, edb)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.States) != 2 {
		t.Fatalf("eff = %d states", len(eff.States))
	}
}

func TestSessionWithOrder(t *testing.T) {
	s := NewSession()
	edb := s.MustFacts(`R(a). R(b).`)
	ordered := s.WithOrder(edb)
	if ordered.Relation("Succ") == nil || ordered.Relation("Succ").Len() != 1 {
		t.Fatalf("order not attached")
	}
}

func TestSemanticsNames(t *testing.T) {
	for name, sem := range SemanticsByName {
		if sem.String() == "" {
			t.Errorf("unnamed semantics for %q", name)
		}
	}
	if SemanticsByName["datalog"] != MinimalModel || SemanticsByName["invent"] != Invent {
		t.Fatalf("name map wrong")
	}
	if !strings.Contains(MinimalModel.String(), "minimal") {
		t.Fatalf("String wrong")
	}
}

func TestSessionFormatDeterministic(t *testing.T) {
	s := NewSession()
	edb := s.MustFacts(`G(b,a). G(a,b).`)
	if s.Format(edb) != "G(a,b).\nG(b,a).\n" {
		t.Fatalf("Format = %q", s.Format(edb))
	}
}

func TestSessionEvalErrorPropagation(t *testing.T) {
	s := NewSession()
	prog := s.MustParse(`Win(X) :- Moves(X,Y), !Win(Y).`)
	edb := s.MustFacts(`Moves(a,b).`)
	if _, err := s.EvalContext(context.Background(), prog, edb, MinimalModel); err == nil {
		t.Fatalf("negation accepted by minimal-model semantics")
	}
	if _, err := s.EvalContext(context.Background(), prog, edb, Stratified); err == nil {
		t.Fatalf("nonstratifiable program accepted by stratified semantics")
	}
	if _, err := s.EvalContext(context.Background(), prog, edb, Inflationary); err != nil {
		t.Fatalf("inflationary should accept the win program: %v", err)
	}
}

func TestSessionProvenance(t *testing.T) {
	s := NewSession()
	prog := s.MustParse(`T(X,Y) :- G(X,Y). T(X,Y) :- G(X,Z), T(Z,Y).`)
	edb := s.MustFacts(`G(a,b). G(b,c).`)
	out, prov, err := s.EvalProvenanceContext(context.Background(), prog, edb)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("T").Len() != 3 {
		t.Fatalf("|T| = %d", out.Relation("T").Len())
	}
	e, ok := prov.Why("T", Tuple{s.Sym("a"), s.Sym("c")})
	if !ok || len(prov.Render(e)) == 0 {
		t.Fatalf("provenance missing")
	}
}

func TestSessionMaterializeAndQuery(t *testing.T) {
	s := NewSession()
	prog := s.MustParse(`T(X,Y) :- G(X,Y). T(X,Y) :- G(X,Z), T(Z,Y).`)
	edb := s.MustFacts(`G(a,b). G(b,c).`)
	v, err := s.MaterializeContext(context.Background(), prog, edb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Insert("G", Tuple{s.Sym("c"), s.Sym("d")}); err != nil {
		t.Fatal(err)
	}
	if !v.Has("T", Tuple{s.Sym("a"), s.Sym("d")}) {
		t.Fatalf("incremental insert not propagated")
	}
	ans, _, err := s.QueryContext(context.Background(), prog, ast.NewAtom("T", ast.C(s.Sym("a")), ast.V("Y")), edb)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Fatalf("query answers = %d, want 2", ans.Len())
	}
}

func TestSessionSemiPositive(t *testing.T) {
	s := NewSession()
	prog := s.MustParse(`R(X) :- S(X). R(Y) :- R(X), G(X,Y), !Blocked(Y).`)
	edb := s.MustFacts(`S(a). G(a,b). G(b,c). Blocked(c).`)
	res, err := s.EvalContext(context.Background(), prog, edb, SemiPositive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Relation("R").Len() != 2 {
		t.Fatalf("R = %d", res.Out.Relation("R").Len())
	}
}

// TestOptimizeKeepsTheTextOrderUnderLiteralOrder: WithLiteralOrder
// pins the textual join order, and no optimizer pass orders a rule
// body (the planner alone chooses a join order, at enumeration time),
// so WithOptimize leaves the text's order with or without it.
func TestOptimizeKeepsTheTextOrderUnderLiteralOrder(t *testing.T) {
	s := NewSession()
	prog := s.MustParse("p(X) :- e(X,Y), f(Y,Z), label(Z,red).\n")
	for _, opts := range [][]Opt{nil, {WithLiteralOrder()}} {
		cfg := buildConfig(context.Background(), append(opts, WithOptimize(Opt2)))
		if got := s.optimizeEval(prog, nil, Stratified, cfg).Rules[0].Body[0].Atom.Pred; got != "e" {
			t.Fatalf("Opt2 (%d options) puts %s first, want the text's e", len(opts), got)
		}
	}
}
