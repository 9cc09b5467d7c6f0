package parser

import (
	"testing"

	"unchained/internal/ast"
	"unchained/internal/value"
)

func TestParseLiterals(t *testing.T) {
	u := value.New()
	ls, err := ParseLiterals(`InStock(Item), !Reserved(O, Item), X != a`, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 3 {
		t.Fatalf("parsed %d literals", len(ls))
	}
	if !ls[1].Neg || ls[2].Kind != ast.LitEq {
		t.Fatalf("literal kinds wrong: %+v", ls)
	}
}

func TestParseLiteralsErrors(t *testing.T) {
	u := value.New()
	for _, src := range []string{
		``,              // empty
		`P(X),`,         // dangling comma
		`P(X) Q(X)`,     // missing comma
		`P(X) :- Q(X)`,  // rule syntax not allowed
		`P(X.`,          // bad token
		`1 = `,          // missing right side
		`forall (P(X))`, // quantifier without vars
		`not`,           // dangling not
	} {
		if _, err := ParseLiterals(src, u); err == nil {
			t.Errorf("ParseLiterals(%q) succeeded", src)
		}
	}
}

func TestParseLiteralsLeadingConstantEquality(t *testing.T) {
	u := value.New()
	ls, err := ParseLiterals(`1 = X, "s" != Y`, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 2 || ls[0].Kind != ast.LitEq || !ls[1].Neg {
		t.Fatalf("constant-leading equalities wrong: %+v", ls)
	}
}

func TestParseAtomExported(t *testing.T) {
	u := value.New()
	a, err := ParseAtom(`Order(O, Item)`, u)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pred != "Order" || a.Arity() != 2 {
		t.Fatalf("atom wrong: %+v", a)
	}
	zero, err := ParseAtom(`Done`, u)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Pred != "Done" || zero.Arity() != 0 {
		t.Fatalf("0-ary atom wrong: %+v", zero)
	}
	for _, src := range []string{``, `P(X) extra`, `P(X,`, `123`} {
		if _, err := ParseAtom(src, u); err == nil {
			t.Errorf("ParseAtom(%q) succeeded", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	u := value.New()
	defer func() {
		if recover() == nil {
			t.Fatalf("MustParse did not panic on bad input")
		}
	}()
	MustParse(`T(X :- G(X).`, u)
}

func TestMustParseFactsPanics(t *testing.T) {
	u := value.New()
	defer func() {
		if recover() == nil {
			t.Fatalf("MustParseFacts did not panic on a rule")
		}
	}()
	MustParseFacts(`T(X) :- G(X).`, u)
}

func TestForallParseErrors(t *testing.T) {
	u := value.New()
	for _, src := range []string{
		`A(X) :- forall Y P(X,Y).`,    // missing parens
		`A(X) :- forall (P(X)).`,      // no quantified vars
		`A(X) :- forall Y (P(X,Y).`,   // unbalanced
		`A(X) :- forall Y (P(X,Y),).`, // dangling comma
	} {
		if _, err := Parse(src, u); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestHeadEqualityRejectedByValidate(t *testing.T) {
	u := value.New()
	p, err := Parse(`X = Y :- P(X), P(Y).`, u)
	if err != nil {
		t.Fatal(err) // parses as a literal...
	}
	if err := p.Validate(ast.DialectNDatalogNegNeg); err == nil {
		t.Fatalf("equality head accepted by validation")
	}
}

func TestTokenKindStrings(t *testing.T) {
	for k := TokEOF; k <= TokPlusEq; k++ {
		if k.String() == "?" {
			t.Errorf("token kind %d has no String", k)
		}
	}
}
