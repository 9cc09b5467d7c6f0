package opt

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/parser"
	"unchained/internal/stratify"
	"unchained/internal/value"
	"unchained/programs"
)

// subsumedBoth returns the positions of the rules the analyzer's
// Opportunities flags as subsumed (I006) and of the rules the
// optimizer's subsume pass removes without assumptions.
func subsumedBoth(t *testing.T, src string) (flagged, removed []string) {
	t.Helper()
	u := value.New()
	p, err := parser.Parse(src, u)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	ix := ast.NewIndex(p)
	for _, d := range Opportunities(ix, stratify.NewGraph(ix)) {
		if d.Code == "I006" && strings.Contains(d.Message, "subsumed by") {
			flagged = append(flagged, d.Pos.String())
		}
	}
	for _, rw := range Optimize(p, u, &Options{Level: O2, NoAssume: true}).Rewrites {
		if rw.Pass == "subsume" {
			removed = append(removed, rw.Pos.String())
		}
	}
	sort.Strings(flagged)
	sort.Strings(removed)
	return flagged, removed
}

// TestSubsumptionHasOneRelation: what the analyzer reports as
// subsumed is what the optimizer removes as subsumed — on the shipped
// programs, and on generated ones seeded with exact duplicates,
// renamed variants (of which the first in source order stands, in
// both) and specialisations of their rules.
func TestSubsumptionHasOneRelation(t *testing.T) {
	some := 0
	check := func(name, src string, wantSome bool) {
		flagged, removed := subsumedBoth(t, src)
		if len(removed) > 0 {
			some++
		}
		if strings.Join(flagged, " ") != strings.Join(removed, " ") {
			t.Errorf("%s: Opportunities flags %v, subsume removes %v\n%s", name, flagged, removed, src)
		}
		if wantSome && len(removed) == 0 {
			t.Errorf("%s: nothing subsumed\n%s", name, src)
		}
	}
	for _, c := range programs.Cases {
		check(c.Program, programs.Source(c.Program), false)
	}
	check("variants", "p(X,Y) :- e(X,Y).\np(A,B) :- e(A,B).\np(U,V) :- e(U,V).\n", true)
	check("specialised first", "p(X,a) :- e(X,a), f(X).\np(X,Y) :- e(X,Y).\np(A,B) :- e(A,B).\n", true)

	rng := rand.New(rand.NewSource(14))
	vars := []string{"X", "Y", "Z"}
	for n := 0; n < 300; n++ {
		// Safe base rules: the head and the negated atoms use
		// variables of the positive atoms only.
		var rules []string
		for i := rng.Intn(4) + 2; i > 0; i-- {
			a, b := vars[rng.Intn(3)], vars[rng.Intn(3)]
			body := []string{fmt.Sprintf("e%d(%s,%s)", rng.Intn(2), a, b)}
			if rng.Intn(2) == 0 {
				body = append(body, fmt.Sprintf("f(%s)", b))
			}
			if rng.Intn(3) == 0 {
				body = append(body, fmt.Sprintf("!g(%s)", a))
			}
			rules = append(rules, fmt.Sprintf("p%d(%s,%s) :- %s.", rng.Intn(2), a, b, strings.Join(body, ", ")))
		}
		for i := rng.Intn(4) + 1; i > 0; i-- {
			r := rules[rng.Intn(len(rules))]
			switch rng.Intn(3) {
			case 0: // exact duplicate
			case 1: // variant
				r = strings.NewReplacer("X", "A", "Y", "B", "Z", "C").Replace(r)
			case 2: // specialisation
				if rng.Intn(2) == 0 {
					r = strings.ReplaceAll(r, vars[rng.Intn(3)], "a")
				} else {
					r = strings.TrimSuffix(r, ".") + ", h(" + r[strings.Index(r, "(")+1:strings.Index(r, ",")] + ")."
				}
			}
			at := rng.Intn(len(rules) + 1)
			rules = append(rules[:at:at], append([]string{r}, rules[at:]...)...)
		}
		check(fmt.Sprintf("generated %d", n), strings.Join(rules, "\n")+"\n", false)
	}
	if some < 150 {
		t.Errorf("only %d programs had a subsumed rule: the generator no longer exercises the relation", some)
	}
}
