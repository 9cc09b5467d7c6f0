package nondet

import (
	"errors"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// tagSrc tags each element of P with a freshly invented value, one
// firing at a time (N-Datalog¬new, Theorem 5.7).
const tagSrc = `
	Tagged(X), Tag(X,N) :- P(X), !Tagged(X).
`

func TestNDatalogNewTagging(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tagSrc, u)
	if err := p.Validate(ast.DialectNDatalogNew); err != nil {
		t.Fatalf("tag program invalid: %v", err)
	}
	if err := p.Validate(ast.DialectNDatalogNegNeg); err == nil {
		t.Fatalf("invention accepted by N-Datalog¬¬")
	}
	in := parser.MustParseFacts(`P(a). P(b). P(c).`, u)
	res, err := Run(p, ast.DialectNDatalogNew, in, u, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	tags := res.Out.Relation("Tag")
	if tags == nil || tags.Len() != 3 {
		t.Fatalf("Tag = %v, want 3 tuples", tags)
	}
	seen := map[value.Value]bool{}
	tags.Each(func(tp tuple.Tuple) bool {
		if !u.IsFresh(tp[1]) {
			t.Errorf("tag %v not invented", tp[1])
		}
		if seen[tp[1]] {
			t.Errorf("invented tag reused")
		}
		seen[tp[1]] = true
		return true
	})
	if res.Steps != 3 {
		t.Fatalf("steps = %d, want 3 (one firing per element)", res.Steps)
	}
}

func TestNDatalogNewReproducible(t *testing.T) {
	// Same seed, fresh universes: the runs are isomorphic and — since
	// invention order is determined by the choice sequence — actually
	// print identically.
	render := func(seed int64) string {
		u := value.New()
		p := parser.MustParse(tagSrc, u)
		in := parser.MustParseFacts(`P(a). P(b). P(c).`, u)
		res, err := Run(p, ast.DialectNDatalogNew, in, u, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Out.String(u)
	}
	if render(7) != render(7) {
		t.Fatalf("same seed produced different runs")
	}
}

func TestNDatalogNewDivergesWithLimit(t *testing.T) {
	// Every firing invents a new value, so the run never terminates.
	u := value.New()
	p := parser.MustParse(`Q(N) :- P(X).`, u)
	in := parser.MustParseFacts(`P(a).`, u)
	_, err := Run(p, ast.DialectNDatalogNew, in, u, 1, &Options{MaxStages: 25})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

func TestEffectsRejectsInvention(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tagSrc, u)
	in := parser.MustParseFacts(`P(a).`, u)
	if _, err := Effects(p, ast.DialectNDatalogNew, in, u, nil); err == nil {
		t.Fatalf("Effects accepted an inventing program")
	}
}

func TestNDatalogNewFreshValuesEnterAdom(t *testing.T) {
	// An invented value joins the active domain and can be picked up
	// by later firings of other rules.
	u := value.New()
	p := parser.MustParse(`
		Made(N), Done :- Seed(X), !Done.
		Copy(M) :- Made(M).
	`, u)
	in := parser.MustParseFacts(`Seed(s).`, u)
	res, err := Run(p, ast.DialectNDatalogNew, in, u, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	made := res.Out.Relation("Made")
	cp := res.Out.Relation("Copy")
	if made == nil || made.Len() != 1 || cp == nil || cp.Len() != 1 {
		t.Fatalf("Made/Copy wrong:\n%s", res.Out.String(u))
	}
	var mv, cv value.Value
	made.Each(func(tp tuple.Tuple) bool { mv = tp[0]; return true })
	cp.Each(func(tp tuple.Tuple) bool { cv = tp[0]; return true })
	if mv != cv || !u.IsFresh(mv) {
		t.Fatalf("copy did not propagate the invented value")
	}
}
