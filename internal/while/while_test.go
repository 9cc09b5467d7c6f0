package while

import (
	"errors"
	"strings"
	"testing"

	"unchained/internal/fo"
	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

func facts(t *testing.T, u *value.Universe, src string) *tuple.Instance {
	t.Helper()
	in, err := parser.ParseFacts(src, u)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func render(u *value.Universe, in *tuple.Instance, pred string) string {
	r := in.Relation(pred)
	if r == nil {
		return ""
	}
	var out []string
	for _, tp := range r.SortedTuples(u) {
		out = append(out, tp.String(u))
	}
	return strings.Join(out, " ")
}

// tcFixpoint is the fixpoint program for transitive closure:
//
//	T += G(x,y);
//	while change do T += ∃z (T(x,z) ∧ G(z,y))
func tcFixpoint() *Program {
	return &Program{Stmts: []Stmt{
		Assign{Rel: "T", Vars: []string{"X", "Y"}, F: fo.AtomF("G", fo.V("X"), fo.V("Y")), Cumulative: true},
		Loop{Body: []Stmt{
			Assign{Rel: "T", Vars: []string{"X", "Y"}, Cumulative: true,
				F: fo.ExistsF([]string{"Z"},
					fo.AndF(fo.AtomF("T", fo.V("X"), fo.V("Z")), fo.AtomF("G", fo.V("Z"), fo.V("Y"))))},
		}},
	}}
}

// goodFixpoint is the fixpoint program of Example 4.4:
//
//	Good += ∅; while change do Good += ∀y (G(y,x) → Good(y))
func goodFixpoint() *Program {
	return &Program{Stmts: []Stmt{
		Loop{Body: []Stmt{
			Assign{Rel: "Good", Vars: []string{"X"}, Cumulative: true,
				F: fo.ForallF([]string{"Y"},
					fo.Implies(fo.AtomF("G", fo.V("Y"), fo.V("X")), fo.AtomF("Good", fo.V("Y"))))},
		}},
	}}
}

func TestFixpointTC(t *testing.T) {
	u := value.New()
	in := facts(t, u, `G(a,b). G(b,c). G(c,d).`)
	res, err := Run(tcFixpoint(), in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(u, res.Out, "T"); got != "(a,b) (a,c) (a,d) (b,c) (b,d) (c,d)" {
		t.Fatalf("T = %q", got)
	}
	if !tcFixpoint().Fixpoint() {
		t.Fatalf("TC program should be in the fixpoint fragment")
	}
}

func TestGoodNodesFixpointExample44(t *testing.T) {
	cases := []struct{ graph, want string }{
		{`G(a,b). G(b,c).`, "(a) (b) (c)"},
		{`G(a,b). G(b,c). G(c,a).`, ""},
		{`G(a,b). G(b,a). G(b,c). G(d,e).`, "(d) (e)"},
	}
	for _, c := range cases {
		u := value.New()
		in := facts(t, u, c.graph)
		res, err := Run(goodFixpoint(), in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(u, res.Out, "Good"); got != c.want {
			t.Errorf("graph %q: Good = %q, want %q", c.graph, got, c.want)
		}
	}
}

func TestDestructiveAssignment(t *testing.T) {
	u := value.New()
	in := facts(t, u, `P(a). P(b). Q(b).`)
	p := &Program{Stmts: []Stmt{
		Assign{Rel: "P", Vars: []string{"X"}, F: fo.AtomF("Q", fo.V("X"))},
	}}
	res, err := Run(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(u, res.Out, "P"); got != "(b)" {
		t.Fatalf("P = %q after destructive assign", got)
	}
	if p.Fixpoint() {
		t.Fatalf("destructive program misclassified as fixpoint")
	}
}

func TestWhileNonTerminationDetected(t *testing.T) {
	// Flip R between {a} and ∅ forever: R := ¬R(x) ∧ x = a ... use
	// complement: R := {x | ¬R(x)} over adom {a} flips ∅ <-> {a}...
	// with adom {a,b} it flips between {a,b} and ∅? ¬∅ = {a,b},
	// ¬{a,b} = ∅: a 2-cycle.
	u := value.New()
	in := facts(t, u, `P(a). P(b).`)
	p := &Program{Stmts: []Stmt{
		Loop{Body: []Stmt{
			Assign{Rel: "R", Vars: []string{"X"}, F: fo.NotF(fo.AtomF("R", fo.V("X")))},
		}},
	}}
	_, err := Run(p, in, u, nil)
	if !errors.Is(err, ErrNonTerminating) {
		t.Fatalf("err = %v, want ErrNonTerminating", err)
	}
}

func TestIterLimit(t *testing.T) {
	u := value.New()
	in := facts(t, u, `G(a,b). G(b,c). G(c,d). G(d,e). G(e,f).`)
	_, err := Run(tcFixpoint(), in, u, &Options{MaxStages: 1})
	if !errors.Is(err, ErrIterLimit) {
		t.Fatalf("err = %v, want ErrIterLimit", err)
	}
}

func TestSequencingAndNesting(t *testing.T) {
	// Two-phase program: compute T = TC(G), then S := sinks of T
	// (nodes with no outgoing T edge) — exercises sequencing after a
	// loop and a destructive final assignment.
	u := value.New()
	in := facts(t, u, `G(a,b). G(b,c).`)
	p := tcFixpoint()
	p.Stmts = append(p.Stmts, Assign{
		Rel: "S", Vars: []string{"X"},
		F: fo.ForallF([]string{"Y"}, fo.NotF(fo.AtomF("T", fo.V("X"), fo.V("Y")))),
	})
	res, err := Run(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(u, res.Out, "S"); got != "(c)" {
		t.Fatalf("S = %q", got)
	}
	if res.Stages < 2 {
		t.Fatalf("Stages = %d", res.Stages)
	}
}

func TestInputNotMutated(t *testing.T) {
	u := value.New()
	in := facts(t, u, `G(a,b).`)
	if _, err := Run(tcFixpoint(), in, u, nil); err != nil {
		t.Fatal(err)
	}
	if in.Relation("T") != nil {
		t.Fatalf("input mutated")
	}
}

func TestEmptyLoopBodyTerminates(t *testing.T) {
	u := value.New()
	in := facts(t, u, `P(a).`)
	p := &Program{Stmts: []Stmt{Loop{}}}
	res, err := Run(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Out.Equal(in) {
		t.Fatalf("empty loop changed state")
	}
}
