package parser

import (
	"strings"
	"testing"
	"testing/quick"

	"unchained/internal/ast"
	"unchained/internal/value"
)

func TestParseTransitiveClosure(t *testing.T) {
	u := value.New()
	prog, err := Parse(`
		% transitive closure (paper Section 3.1)
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
	`, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(prog.Rules))
	}
	if err := prog.Validate(ast.DialectDatalog); err != nil {
		t.Fatalf("TC should be valid Datalog: %v", err)
	}
	if got := prog.Rules[1].String(u); got != "T(X,Y) :- G(X,Z), T(Z,Y)." {
		t.Fatalf("round-trip = %q", got)
	}
	if idb := prog.IDB(); len(idb) != 1 || idb[0] != "T" {
		t.Fatalf("IDB = %v", idb)
	}
	if edb := prog.EDB(); len(edb) != 1 || edb[0] != "G" {
		t.Fatalf("EDB = %v", edb)
	}
}

func TestParseNegationForms(t *testing.T) {
	u := value.New()
	prog, err := Parse(`
		CT(X,Y) :- !T(X,Y).
		CT2(X,Y) :- not T(X,Y).
	`, u)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range prog.Rules {
		if len(r.Body) != 1 || !r.Body[0].Neg {
			t.Fatalf("rule %d: negation not parsed: %+v", i, r.Body)
		}
	}
	if err := prog.Validate(ast.DialectDatalogNeg); err != nil {
		t.Fatalf("should be valid Datalog¬: %v", err)
	}
	if err := prog.Validate(ast.DialectDatalog); err == nil {
		t.Fatalf("negation must be rejected by pure Datalog")
	}
}

func TestParseHeadNegationAndMultiHead(t *testing.T) {
	u := value.New()
	prog, err := Parse(`!G(X,Y) :- G(X,Y), G(Y,X).
		A(X), !B(X) :- C(X).`, u)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Rules[0].Head[0].Neg {
		t.Fatalf("head negation lost")
	}
	if len(prog.Rules[1].Head) != 2 {
		t.Fatalf("multi-head lost")
	}
	if err := prog.Rules[0:1]; false {
		_ = err
	}
	if err := (&ast.Program{Rules: prog.Rules[:1]}).Validate(ast.DialectDatalogNegNeg); err != nil {
		t.Fatalf("orientation rule should be valid Datalog¬¬: %v", err)
	}
	if err := prog.Validate(ast.DialectDatalogNeg); err == nil {
		t.Fatalf("head negation must be rejected by Datalog¬")
	}
	if err := prog.Validate(ast.DialectNDatalogNegNeg); err != nil {
		t.Fatalf("should be valid N-Datalog¬¬: %v", err)
	}
}

func TestParseEquality(t *testing.T) {
	u := value.New()
	prog, err := Parse(`Ans(X) :- P(X), X != Y, Q(Y).
		Same(X) :- P(X), X = a.`, u)
	if err != nil {
		t.Fatal(err)
	}
	b := prog.Rules[0].Body
	if b[1].Kind != ast.LitEq || !b[1].Neg {
		t.Fatalf("inequality not parsed: %+v", b[1])
	}
	b2 := prog.Rules[1].Body
	if b2[1].Kind != ast.LitEq || b2[1].Neg {
		t.Fatalf("equality not parsed: %+v", b2[1])
	}
	if b2[1].Right().IsVar() || u.Name(b2[1].Right().Const) != "a" {
		t.Fatalf("constant side wrong")
	}
	if err := prog.Validate(ast.DialectNDatalogNeg); err != nil {
		t.Fatalf("should be valid N-Datalog¬: %v", err)
	}
	if err := prog.Validate(ast.DialectDatalogNeg); err == nil {
		t.Fatalf("equality must be rejected by Datalog¬")
	}
}

func TestParseForallAndBottom(t *testing.T) {
	u := value.New()
	prog, err := Parse(`
		Answer(X) :- forall Y (P(X), !Q(X,Y)).
		bottom :- DoneWithProj, Q(X,Y), !Proj(X).
	`, u)
	if err != nil {
		t.Fatal(err)
	}
	fa := prog.Rules[0].Body[0]
	if fa.Kind != ast.LitForall || len(fa.ForallVars()) != 1 || fa.ForallVars()[0] != "Y" {
		t.Fatalf("forall not parsed: %+v", fa)
	}
	if len(fa.ForallBody()) != 2 {
		t.Fatalf("forall body size %d", len(fa.ForallBody()))
	}
	if prog.Rules[1].Head[0].Kind != ast.LitBottom {
		t.Fatalf("bottom head not parsed")
	}
	if err := (&ast.Program{Rules: prog.Rules[:1]}).Validate(ast.DialectNDatalogAll); err != nil {
		t.Fatalf("forall rule should be valid N-Datalog¬∀: %v", err)
	}
	if err := (&ast.Program{Rules: prog.Rules[1:]}).Validate(ast.DialectNDatalogBot); err != nil {
		t.Fatalf("bottom rule should be valid N-Datalog¬⊥: %v", err)
	}
}

func TestParseZeroAryAndEmptyBody(t *testing.T) {
	u := value.New()
	prog, err := Parse(`
		Delay.
		Delay2 :- .
		Good(X) :- Delay, !Bad(X).
	`, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules[0].Body) != 0 || prog.Rules[0].Head[0].Atom.Pred != "Delay" {
		t.Fatalf("fact rule wrong: %+v", prog.Rules[0])
	}
	if len(prog.Rules[1].Body) != 0 {
		t.Fatalf("empty-body arrow rule wrong")
	}
	if prog.Rules[2].Body[0].Atom.Arity() != 0 {
		t.Fatalf("0-ary body atom wrong")
	}
}

func TestParseConstantsKinds(t *testing.T) {
	u := value.New()
	prog, err := Parse(`Age("Ann", 31). Edge(a, -2).`, u)
	if err != nil {
		t.Fatal(err)
	}
	args := prog.Rules[0].Head[0].Atom.Args
	if u.Name(args[0].Const) != "Ann" {
		t.Fatalf("string constant: %q", u.Name(args[0].Const))
	}
	if n, ok := u.IntVal(args[1].Const); !ok || n != 31 {
		t.Fatalf("int constant")
	}
	args2 := prog.Rules[1].Head[0].Atom.Args
	if n, ok := u.IntVal(args2[1].Const); !ok || n != -2 {
		t.Fatalf("negative int constant")
	}
}

func TestParseArrowVariant(t *testing.T) {
	u := value.New()
	prog, err := Parse(`T(X,Y) <- G(X,Y).`, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules[0].Body) != 1 {
		t.Fatalf("'<-' arrow not accepted")
	}
}

func TestParseAnonymousVars(t *testing.T) {
	u := value.New()
	prog, err := Parse(`P(X) :- Q(X,_), R(_).`, u)
	if err != nil {
		t.Fatal(err)
	}
	vars := prog.Rules[0].BodyVars()
	if len(vars) != 3 {
		t.Fatalf("anonymous vars should be distinct: %v", vars)
	}
}

func TestParseStringEscapes(t *testing.T) {
	u := value.New()
	prog, err := Parse(`P("a\"b\\c\n\t").`, u)
	if err != nil {
		t.Fatal(err)
	}
	got := u.Name(prog.Rules[0].Head[0].Atom.Args[0].Const)
	if got != "a\"b\\c\n\t" {
		t.Fatalf("escapes: %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	u := value.New()
	cases := []string{
		`T(X,Y) :- G(X,Y)`,       // missing dot
		`T(X,Y :- G(X,Y).`,       // bad paren
		`:- G(X,Y).`,             // empty head
		`T(X) :- G(X,"unclosed.`, // unterminated string
		`T(X) :- G(X,Y,.`,        // bad term
		`T(X) : G(X).`,           // bad arrow
		`T(X) :- forall (P(X)).`, // forall without variable
		`T(X) :- G(X) extra`,     // trailing junk / missing dot
		`T(X) :- X = .`,          // missing term after =
		`T(@) :- G(X).`,          // bad character
		`P("bad \q escape").`,    // unknown escape
		`T(X) :- G(X, -).`,       // dash without digit
	}
	for _, src := range cases {
		if _, err := Parse(src, u); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseFacts(t *testing.T) {
	u := value.New()
	in, err := ParseFacts(`G(a,b). G(b,c). P(1).`, u)
	if err != nil {
		t.Fatal(err)
	}
	if in.Facts() != 3 {
		t.Fatalf("facts = %d", in.Facts())
	}
	if !in.Has("G", []value.Value{u.Sym("a"), u.Sym("b")}) {
		t.Fatalf("G(a,b) missing")
	}
}

func TestParseFactsRejectsRulesAndVars(t *testing.T) {
	u := value.New()
	if _, err := ParseFacts(`T(X) :- G(X).`, u); err == nil {
		t.Fatalf("rule accepted as fact")
	}
	if _, err := ParseFacts(`G(a,X).`, u); err == nil {
		t.Fatalf("variable accepted in fact")
	}
	if _, err := ParseFacts(`!G(a,b).`, u); err == nil {
		t.Fatalf("negated fact accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Printing a parsed program and re-parsing it yields the same
	// structure (checked via the printed form being a fixpoint).
	srcs := []string{
		"T(X,Y) :- G(X,Y).\nT(X,Y) :- G(X,Z), T(Z,Y).\n",
		"CT(X,Y) :- !T(X,Y).\n",
		"A(X), !B(X) :- C(X), X != Y, D(Y).\n",
		"Answer(X) :- forall Y (P(X), !Q(X,Y)).\n",
		"Win(X) :- Moves(X,Y), !Win(Y).\n",
	}
	for _, src := range srcs {
		u := value.New()
		p1, err := Parse(src, u)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := p1.String(u)
		p2, err := Parse(printed, u)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if p2.String(u) != printed {
			t.Fatalf("round trip not a fixpoint:\n%s\nvs\n%s", printed, p2.String(u))
		}
	}
}

func TestParseRuleSingle(t *testing.T) {
	u := value.New()
	r, err := ParseRule(`T(X,Y) :- G(X,Y).`, u)
	if err != nil {
		t.Fatal(err)
	}
	if r.Head[0].Atom.Pred != "T" {
		t.Fatalf("wrong head")
	}
	if _, err := ParseRule(`A. B.`, u); err == nil {
		t.Fatalf("two rules accepted by ParseRule")
	}
}

func TestLexerPositions(t *testing.T) {
	u := value.New()
	_, err := Parse("T(X) :- G(X).\nT(Y :- G(Y).", u)
	if err == nil || !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error should mention line 2: %v", err)
	}
}

func TestParseIdentifierProperty(t *testing.T) {
	// Any lower-case identifier parses as a constant fact argument.
	f := func(raw uint32) bool {
		shift := rune(raw % 26)
		name := "c" + strings.Map(func(r rune) rune {
			return 'a' + (r-'a'+shift)%26
		}, "xyz")
		u := value.New()
		in, err := ParseFacts("P("+name+").", u)
		if err != nil {
			return false
		}
		return in.Has("P", []value.Value{u.Sym(name)})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
