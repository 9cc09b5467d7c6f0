package while

import (
	"strings"
	"testing"

	"unchained/internal/parser"
	"unchained/internal/value"
)

const tcWhileSrc = `
	% transitive closure, then the complement
	T(X,Y) += G(X,Y);
	while change do {
		T(X,Y) += exists Z (T(X,Z) and G(Z,Y));
	}
	CT(X,Y) := not T(X,Y);
`

func TestParseAndRunTC(t *testing.T) {
	u := value.New()
	prog, err := Parse(tcWhileSrc, u)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Fixpoint() {
		t.Fatalf("program with ':=' misclassified as fixpoint")
	}
	in := parser.MustParseFacts(`G(a,b). G(b,c).`, u)
	res, err := Run(prog, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Relation("T").Len() != 3 {
		t.Fatalf("|T| = %d, want 3", res.Out.Relation("T").Len())
	}
	if res.Out.Relation("CT").Len() != 6 {
		t.Fatalf("|CT| = %d, want 6", res.Out.Relation("CT").Len())
	}
}

func TestParsedMatchesBuiltAST(t *testing.T) {
	// The parsed TC program agrees with the hand-built one on a
	// nontrivial graph.
	u := value.New()
	parsed := MustParse(`
		T(X,Y) += G(X,Y);
		while change do {
			T(X,Y) += exists Z (T(X,Z) and G(Z,Y));
		}
	`, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,a). G(c,d).`, u)
	r1, err := Run(parsed, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(tcFixpoint(), in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Out.Equal(r2.Out) {
		t.Fatalf("parsed and built programs disagree")
	}
}

func TestParseGoodNodes(t *testing.T) {
	u := value.New()
	prog := MustParse(`
		while change do {
			Good(X) += forall Y (G(Y,X) implies Good(Y));
		}
	`, u)
	if !prog.Fixpoint() {
		t.Fatalf("all-cumulative program should be fixpoint")
	}
	in := parser.MustParseFacts(`G(a,b). G(b,c).`, u)
	res, err := Run(prog, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Relation("Good").Len() != 3 {
		t.Fatalf("Good = %d, want 3 (chain has no cycles)", res.Out.Relation("Good").Len())
	}
}

func TestParseEqualityAndConstants(t *testing.T) {
	u := value.New()
	prog := MustParse(`
		OnlyA(X) := P(X) and X = a;
		NotA(X) := P(X) and X != a;
		Nums(X) := Q(X, 42);
	`, u)
	in := parser.MustParseFacts(`P(a). P(b). Q(c, 42). Q(d, 7).`, u)
	res, err := Run(prog, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Relation("OnlyA").Len() != 1 || res.Out.Relation("NotA").Len() != 1 {
		t.Fatalf("equality selection wrong")
	}
	if res.Out.Relation("Nums").Len() != 1 {
		t.Fatalf("integer constant selection wrong")
	}
	// The program constant 'a' reached Consts (it participates in the
	// active domain even if absent from the input).
	if len(prog.Consts) == 0 {
		t.Fatalf("program constants not collected")
	}
}

func TestParseOrAndParens(t *testing.T) {
	u := value.New()
	prog := MustParse(`A(X) := P(X) or (Q(X) and not R(X));`, u)
	in := parser.MustParseFacts(`P(a). Q(b). Q(c). R(c).`, u)
	res, err := Run(prog, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Relation("A").Len() != 2 {
		t.Fatalf("A = %d, want 2 (a and b)", res.Out.Relation("A").Len())
	}
}

func TestParseErrors(t *testing.T) {
	u := value.New()
	cases := []string{
		`T(X) += G(X)`,                        // missing ';'
		`T(X) = G(X);`,                        // bad operator
		`T(a) := G(a);`,                       // constant column
		`while change { T(X) += G(X); }`,      // missing 'do'
		`while do { }`,                        // missing 'change'
		`T(X) := exists (G(X));`,              // quantifier without vars
		`T(X) := G(X) and;`,                   // dangling and
		`T(X) := (G(X);`,                      // unbalanced paren
		`T(X) := X;`,                          // bare term
		`T(X) := G(X) @;`,                     // bad character
		`while change do { T(X) += G(X); } }`, // stray brace
	}
	for _, src := range cases {
		if _, err := Parse(src, u); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseNestedLoops(t *testing.T) {
	u := value.New()
	prog := MustParse(`
		while change do {
			A(X) += B(X);
			while change do {
				B(X) += C(X);
			}
		}
	`, u)
	in := parser.MustParseFacts(`C(a). C(b).`, u)
	res, err := Run(prog, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Relation("A").Len() != 2 {
		t.Fatalf("nested loop result wrong")
	}
}

func TestErrorMentionsPosition(t *testing.T) {
	u := value.New()
	_, err := Parse("T(X) += G(X);\nU(Y) = H(Y);", u)
	if err == nil || !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error should cite line 2: %v", err)
	}
}

func TestParseMoreErrorPaths(t *testing.T) {
	u := value.New()
	cases := []string{
		`T(X) := "unterminated;`,        // string
		`T(X) := P("bad \q");`,          // escape
		`T(X) := P(X) and not;`,         // dangling not
		`T(X) := exists X, (P(X));`,     // missing body after comma? actually vars then paren
		`T(X) := forall X P(X);`,        // missing parens
		`T(X) := 3 and P(X);`,           // constant not a formula
		`T(X) := P(X) or 4;`,            // ditto
		`T(X) := X != ;`,                // missing rhs
		`T(X) := P(X, -);`,              // dash without digit
		`while change do T(X) += P(X);`, // missing braces
		`T(X) +- P(X);`,                 // bad operator token
		`:= P(X);`,                      // missing target
		`T(X) := P(X) implies;`,         // dangling implies
		`T(X) := (P(X) or Q(X);`,        // unbalanced paren
		`T() := P(X);`,                  // formula free vars mismatch at runtime, parse OK?
	}
	for _, src := range cases[:len(cases)-1] {
		if _, err := Parse(src, u); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
	// The last case parses but fails at run time (free-var mismatch).
	prog, err := Parse(cases[len(cases)-1], u)
	if err != nil {
		t.Fatalf("zero-column assignment should parse: %v", err)
	}
	in := parser.MustParseFacts(`P(a).`, u)
	if _, err := Run(prog, in, u, nil); err == nil {
		t.Errorf("free-variable mismatch not reported at run time")
	}
}

func TestMustParsePanicsOnBadSource(t *testing.T) {
	u := value.New()
	defer func() {
		if recover() == nil {
			t.Fatalf("MustParse did not panic")
		}
	}()
	MustParse(`T(X := P(X);`, u)
}

// TestWTokenKindStrings: error messages name a punctuation token by its
// kind, so every kind in the language's table is named as it is spelled.
func TestWTokenKindStrings(t *testing.T) {
	for _, p := range punct {
		if want := "'" + p.Text + "'"; p.Kind.String() != want {
			t.Errorf("token kind of %q is named %s, want %s", p.Text, p.Kind, want)
		}
	}
}

func TestParseIntsAndStringsInFormulas(t *testing.T) {
	u := value.New()
	prog := MustParse(`A(X) := Q(X, -5) and R(X, "hi\n");`, u)
	in := parser.MustParseFacts(`Q(a, -5). R(a, "hi\n"). Q(b, -5).`, u)
	res, err := Run(prog, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Relation("A").Len() != 1 {
		t.Fatalf("A = %d, want 1", res.Out.Relation("A").Len())
	}
}

func TestParseExistsMultipleVars(t *testing.T) {
	u := value.New()
	prog := MustParse(`Connected() := exists X, Y (G(X,Y));`, u)
	_ = prog
	in := parser.MustParseFacts(`G(a,b).`, u)
	res, err := Run(prog, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Relation("Connected").Len() != 1 {
		t.Fatalf("0-ary assignment failed")
	}
}
