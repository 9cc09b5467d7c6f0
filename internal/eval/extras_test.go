package eval

import (
	"testing"

	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

func TestRuleAccessors(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`T(X,Y) :- G(X,Z), !H(Z), T(Z,Y).`, u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	pos := cr.PositiveBodyLits()
	if len(pos) != 2 || pos[0] == pos[1] {
		t.Fatalf("PositiveBodyLits = %v", pos)
	}
	heads := cr.Heads()
	if len(heads) != 1 || heads[0].Pred != "T" {
		t.Fatalf("Heads = %+v", heads)
	}
}

func TestCompileDeltaSchedulesDeltaFirst(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`T(X,Y) :- G(X,Z), T(Z,Y).`, u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	// Delta plan for the T literal (body index 1). Semantics must be
	// unchanged: same results as the normal plan.
	dv := cr.Delta(1)
	in := parser.MustParseFacts(`G(a,b). G(b,c). T(b,c). T(c,d).`, u)
	count := func(rule *Rule, delta *tuple.Instance, lit int) int {
		ctx := &Ctx{In: in, Adom: ActiveDomain(u, nil, in), Delta: delta, DeltaLit: lit, Scan: false}
		if delta == nil {
			ctx.DeltaLit = -1
		}
		n := 0
		rule.Enumerate(ctx, func(Binding) bool { n++; return true })
		return n
	}
	if a, b := count(cr, nil, -1), count(dv, nil, -1); a != b {
		t.Fatalf("full enumeration differs: %d vs %d", a, b)
	}
	delta := parser.MustParseFacts(`T(c,d).`, u)
	if a, b := count(cr, delta, 1), count(dv, delta, 1); a != b {
		t.Fatalf("delta enumeration differs: %d vs %d", a, b)
	}
}

func TestBodySupportsSkipsNegationAndForall(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`A(X) :- P(X), !Q(X), forall Y (R(Y)).`, u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	in := parser.MustParseFacts(`P(a). R(a).`, u)
	ctx := &Ctx{In: in, Adom: ActiveDomain(u, nil, in), DeltaLit: -1}
	var got []Fact
	cr.Enumerate(ctx, func(b Binding) bool {
		got = cr.BodySupports(b)
		return false
	})
	if len(got) != 1 || got[0].Pred != "P" {
		t.Fatalf("supports = %+v, want just P(a)", got)
	}
}
