package declarative

import (
	"errors"
	"testing"

	"unchained/internal/gen"
	"unchained/internal/order"
	"unchained/internal/parser"
	"unchained/internal/value"
)

// evenSrc is the semi-positive parity walk (negation on EDB R only).
const evenSrc = `
	OddUpto(X)  :- First(X), R(X).
	EvenUpto(X) :- First(X), !R(X).
	OddUpto(Y)  :- Succ(X,Y), EvenUpto(X), R(Y).
	OddUpto(Y)  :- Succ(X,Y), OddUpto(X), !R(Y).
	EvenUpto(Y) :- Succ(X,Y), OddUpto(X), R(Y).
	EvenUpto(Y) :- Succ(X,Y), EvenUpto(X), !R(Y).
	EvenAns :- Last(X), EvenUpto(X).
`

func TestSemiPositiveEvenness(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for k := 0; k <= n; k++ {
			u := value.New()
			base := gen.UnarySubset(u, "R", "Dom", n, k, int64(10*n+k))
			in := order.WithOrder(base, u)
			p := parser.MustParse(evenSrc, u)
			res, err := EvalSemiPositive(p, in, u, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Out.Relation("EvenAns") != nil && res.Out.Relation("EvenAns").Len() > 0
			if got != (k%2 == 0) {
				t.Errorf("n=%d k=%d: even=%v", n, k, got)
			}
		}
	}
}

func TestSemiPositiveRejectsIDBNegation(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
		CT(X,Y) :- !T(X,Y).
	`, u)
	_, err := EvalSemiPositive(p, nil, u, nil)
	var spErr *SemiPositiveErr
	if !errors.As(err, &spErr) {
		t.Fatalf("err = %v, want SemiPositiveErr", err)
	}
	if spErr.Pred != "T" {
		t.Fatalf("wrong relation named: %s", spErr.Pred)
	}
}

func TestSemiPositiveMatchesStratified(t *testing.T) {
	// On semi-positive programs the two engines coincide.
	u := value.New()
	p := parser.MustParse(`
		R(X) :- S(X).
		R(Y) :- R(X), G(X,Y), !Blocked(Y).
	`, u)
	in := parser.MustParseFacts(`
		S(a). G(a,b). G(b,c). G(c,d). Blocked(c).
	`, u)
	sp, err := EvalSemiPositive(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := EvalStratified(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Out.Equal(st.Out) {
		t.Fatalf("semi-positive and stratified disagree")
	}
	// Blocked stops propagation: R = {a, b}.
	if sp.Out.Relation("R").Len() != 2 {
		t.Fatalf("R = %d tuples", sp.Out.Relation("R").Len())
	}
}

func TestSemiPositiveRejectsPureDatalogViolations(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`!T(X) :- G(X).`, u)
	if _, err := EvalSemiPositive(p, nil, u, nil); err == nil {
		t.Fatalf("head negation accepted")
	}
}
