package ast

import (
	"strings"
	"testing"
	"unsafe"

	"unchained/internal/value"
)

func tcProgram(u *value.Universe) *Program {
	// T(X,Y) :- G(X,Y).  T(X,Y) :- G(X,Z), T(Z,Y).
	return NewProgram(
		R(PosLit(NewAtom("T", V("X"), V("Y"))), PosLit(NewAtom("G", V("X"), V("Y")))),
		R(PosLit(NewAtom("T", V("X"), V("Y"))), PosLit(NewAtom("G", V("X"), V("Z"))), PosLit(NewAtom("T", V("Z"), V("Y")))),
	)
}

func TestEDBIDB(t *testing.T) {
	u := value.New()
	p := tcProgram(u)
	if got := p.IDB(); len(got) != 1 || got[0] != "T" {
		t.Fatalf("IDB = %v", got)
	}
	if got := p.EDB(); len(got) != 1 || got[0] != "G" {
		t.Fatalf("EDB = %v", got)
	}
	if got := p.Preds(); len(got) != 2 {
		t.Fatalf("Preds = %v", got)
	}
}

func TestSchemaInference(t *testing.T) {
	u := value.New()
	p := tcProgram(u)
	sch, err := p.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if sch["T"] != 2 || sch["G"] != 2 {
		t.Fatalf("schema = %v", sch)
	}
}

func TestSchemaConflict(t *testing.T) {
	p := NewProgram(
		R(PosLit(NewAtom("P", V("X"))), PosLit(NewAtom("G", V("X"), V("X")))),
		R(PosLit(NewAtom("P", V("X"), V("Y"))), PosLit(NewAtom("G", V("X"), V("Y")))),
	)
	if _, err := p.Schema(); err == nil {
		t.Fatalf("arity conflict not detected")
	}
	if err := p.Validate(DialectDatalog); err == nil {
		t.Fatalf("Validate should surface schema conflict")
	}
}

func TestHeadOnlyVars(t *testing.T) {
	r := R(PosLit(NewAtom("P", V("X"), V("N"))), PosLit(NewAtom("Q", V("X"))))
	ho := r.HeadOnlyVars()
	if len(ho) != 1 || ho[0] != "N" {
		t.Fatalf("HeadOnlyVars = %v", ho)
	}
}

func TestVarsOrder(t *testing.T) {
	r := R(PosLit(NewAtom("P", V("A"))), PosLit(NewAtom("Q", V("B"), V("A"))), PosLit(NewAtom("S", V("C"))))
	got := r.AppendVars(nil)
	want := []string{"A", "B", "C"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
}

func TestConstants(t *testing.T) {
	u := value.New()
	a := u.Sym("a")
	one := u.Int(1)
	p := NewProgram(
		R(PosLit(NewAtom("P", C(a))), PosLit(NewAtom("Q", C(one), V("X"))), Neq(V("X"), C(a))),
	)
	consts := p.Constants()
	if len(consts) != 2 {
		t.Fatalf("Constants = %v", consts)
	}
}

func TestValidateDatalogRejectsUnsafeHead(t *testing.T) {
	p := NewProgram(R(PosLit(NewAtom("P", V("X"), V("Y"))), PosLit(NewAtom("Q", V("X")))))
	if err := p.Validate(DialectDatalog); err == nil {
		t.Fatalf("unsafe head variable accepted")
	}
	if err := p.Validate(DialectDatalogNew); err != nil {
		t.Fatalf("Datalog¬new should accept head-only vars: %v", err)
	}
}

func TestValidateNegVarViaAdomIsLegal(t *testing.T) {
	// CT(X,Y) :- !T(X,Y). : head vars occur in the body (in a
	// negative literal); the paper's semantics ranges them over the
	// active domain, so plain Datalog¬ accepts this.
	p := NewProgram(R(PosLit(NewAtom("CT", V("X"), V("Y"))), Neg(NewAtom("T", V("X"), V("Y")))))
	if err := p.Validate(DialectDatalogNeg); err != nil {
		t.Fatalf("Datalog¬ should accept adom-ranged head vars: %v", err)
	}
	// But the N-Datalog dialects require positive boundness
	// (Definition 5.1), so they reject it.
	if err := p.Validate(DialectNDatalogNeg); err == nil {
		t.Fatalf("N-Datalog¬ should reject non-positively-bound head vars")
	}
}

func TestValidateBottomOnlyInHeads(t *testing.T) {
	p := NewProgram(Rule{Head: []Literal{PosLit(NewAtom("P"))}, Body: []Literal{Bottom()}})
	if err := p.Validate(DialectNDatalogBot); err == nil {
		t.Fatalf("⊥ in body accepted")
	}
	p2 := NewProgram(Rule{Head: []Literal{Bottom()}, Body: []Literal{PosLit(NewAtom("Q"))}})
	if err := p2.Validate(DialectNDatalogBot); err != nil {
		t.Fatalf("⊥ head rejected: %v", err)
	}
	if err := p2.Validate(DialectNDatalogNeg); err == nil {
		t.Fatalf("⊥ accepted outside N-Datalog¬⊥")
	}
}

func TestValidateForallRestrictions(t *testing.T) {
	inner := Forall([]string{"Y"}, PosLit(NewAtom("P", V("X"))), Neg(NewAtom("Q", V("X"), V("Y"))))
	p := NewProgram(R(PosLit(NewAtom("A", V("X"))), inner))
	if err := p.Validate(DialectNDatalogAll); err != nil {
		t.Fatalf("forall rule rejected: %v", err)
	}
	if err := p.Validate(DialectNDatalogNeg); err == nil {
		t.Fatalf("forall accepted outside N-Datalog¬∀")
	}
	nested := Forall([]string{"Y"}, Forall([]string{"Z"}, PosLit(NewAtom("P", V("Z")))))
	p2 := NewProgram(R(PosLit(NewAtom("A")), nested))
	if err := p2.Validate(DialectNDatalogAll); err == nil {
		t.Fatalf("nested forall accepted")
	}
	empty := Forall(nil, PosLit(NewAtom("P", V("X"))))
	p3 := NewProgram(R(PosLit(NewAtom("A", V("X"))), PosLit(NewAtom("P", V("X"))), empty))
	if err := p3.Validate(DialectNDatalogAll); err == nil {
		t.Fatalf("forall without quantified vars accepted")
	}
}

func TestValidateEmptyHead(t *testing.T) {
	p := NewProgram(Rule{Body: []Literal{PosLit(NewAtom("P"))}})
	if err := p.Validate(DialectDatalog); err == nil {
		t.Fatalf("empty head accepted")
	}
}

func TestDialectIncludes(t *testing.T) {
	// Figure 1 syntactic inclusions.
	cases := []struct {
		big, small Dialect
		want       bool
	}{
		{DialectDatalogNeg, DialectDatalog, true},
		{DialectDatalogNegNeg, DialectDatalogNeg, true},
		{DialectDatalogNew, DialectDatalogNeg, true},
		{DialectNDatalogNegNeg, DialectNDatalogNeg, true},
		{DialectNDatalogNew, DialectNDatalogNeg, true},
		{DialectNDatalogNeg, DialectNDatalogNew, false},
		{DialectDatalog, DialectDatalogNeg, false},
		{DialectDatalogNeg, DialectDatalogNegNeg, false},
		{DialectNDatalogNeg, DialectDatalogNegNeg, false},
	}
	for _, c := range cases {
		if got := c.big.Includes(c.small); got != c.want {
			t.Errorf("%v includes %v = %v, want %v", c.big, c.small, got, c.want)
		}
	}
}

func TestDialectStrings(t *testing.T) {
	for d := DialectDatalog; d <= DialectNDatalogNew; d++ {
		if s := d.String(); s == "" || strings.HasPrefix(s, "Dialect(") {
			t.Errorf("missing String for dialect %d", d)
		}
	}
}

func TestRuleString(t *testing.T) {
	u := value.New()
	a := u.Sym("a")
	r := MultiR(
		[]Literal{PosLit(NewAtom("A", V("X"))), Neg(NewAtom("B", V("X")))},
		PosLit(NewAtom("C", V("X"), C(a))),
		Neq(V("X"), C(a)),
	)
	got := r.String(u)
	want := "A(X), !B(X) :- C(X,a), X != a."
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	fact := R(PosLit(NewAtom("Delay")))
	if fact.String(u) != "Delay." {
		t.Fatalf("fact String = %q", fact.String(u))
	}
}

// TestLiteralLayout pins the literal to an atom, one pointer for a
// ∀-literal's parts and a position: a parsed rule keeps one array of
// literals, and a field every kind carries is paid by every literal.
func TestLiteralLayout(t *testing.T) {
	if n := unsafe.Sizeof(Literal{}); n > 88 {
		t.Errorf("a Literal is %d bytes, want <= 88", n)
	}
}
