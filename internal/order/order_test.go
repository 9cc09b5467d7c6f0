package order

import (
	"testing"

	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

func TestWithOrderShape(t *testing.T) {
	u := value.New()
	in := parser.MustParseFacts(`R(b). R(a). P(c).`, u)
	out := WithOrder(in, u)
	if in.Relation(SuccName) != nil {
		t.Fatalf("input mutated")
	}
	succ := out.Relation(SuccName)
	if succ == nil || succ.Len() != 2 {
		t.Fatalf("Succ = %v", succ)
	}
	// Order is a < b < c (symbol order).
	a, b, c := u.Sym("a"), u.Sym("b"), u.Sym("c")
	if !out.Has(SuccName, tuple.Tuple{a, b}) || !out.Has(SuccName, tuple.Tuple{b, c}) {
		t.Fatalf("Succ content wrong: %s", out.String(u))
	}
	if !out.Has(FirstName, tuple.Tuple{a}) || !out.Has(LastName, tuple.Tuple{c}) {
		t.Fatalf("First/Last wrong")
	}
}

func TestWithOrderEmptyDomain(t *testing.T) {
	u := value.New()
	out := WithOrder(tuple.NewInstance(), u)
	if out.Relation(FirstName).Len() != 0 || out.Relation(SuccName).Len() != 0 {
		t.Fatalf("empty domain should give empty order relations")
	}
}

func TestWithOrderSingleton(t *testing.T) {
	u := value.New()
	in := parser.MustParseFacts(`R(a).`, u)
	out := WithOrder(in, u)
	a := u.Sym("a")
	if !out.Has(FirstName, tuple.Tuple{a}) || !out.Has(LastName, tuple.Tuple{a}) {
		t.Fatalf("singleton: first and last must coincide")
	}
	if out.Relation(SuccName).Len() != 0 {
		t.Fatalf("singleton: Succ should be empty")
	}
}
