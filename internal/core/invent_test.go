package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/core"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/tm"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// inventBudget is the most facts a reference run may stage before its
// input is skipped: a generated program can invent without bound within
// one stage.
const inventBudget = 20_000

// sameInvent runs the input build makes, once through EvalInvent and
// once through the reference, each over its own universe, and compares
// the printed result, the stage count, the number of values invented and
// the error. It reports false, comparing nothing, when the reference
// exceeds inventBudget.
func sameInvent(t *testing.T, name string, limit int, build func(u *value.Universe) (*ast.Program, *tuple.Instance)) bool {
	t.Helper()
	uw := value.New()
	p, in := build(uw)
	want, werr := core.ReferenceInvent(p, in, uw, &core.Options{MaxStages: limit}, inventBudget)
	if errors.Is(werr, core.ErrOverBudget) {
		return false
	}
	ug := value.New()
	p, in = build(ug)
	got, gerr := core.EvalInvent(p, in, ug, &core.Options{MaxStages: limit})
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, the reference's %v", name, gerr, werr)
	}
	if ug.FreshCount() != uw.FreshCount() {
		t.Fatalf("%s: %d values invented, the reference invents %d", name, ug.FreshCount(), uw.FreshCount())
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: result %v, the reference's %v", name, got, want)
	}
	if want != nil {
		if g, w := got.Out.String(ug), want.Out.String(uw); got.Stages != want.Stages || g != w {
			t.Fatalf("%s: %d stages to\n%sthe reference takes %d to\n%s", name, got.Stages, g, want.Stages, w)
		}
	}
	return true
}

// TestInventMatchesReference holds EvalInvent, on the delta kernel, to
// the stage loop that fired every rule against the whole instance
// (referenceInvent): the four machines of internal/tm, the hand-written
// Datalog¬new programs of the package's tests, one of whose domains
// grows under a rule that reads it, and generated programs.
func TestInventMatchesReference(t *testing.T) {
	for _, c := range []struct {
		m     *tm.Machine
		tapes []string
	}{
		{tm.ParityMachine(), []string{"", "a", "aa", "aaaaa", "aaaaaaaaaaaa"}},
		{tm.ABMachine(), []string{"", "ab", "aabb", "aaabbb", "abb", "ba", "abab"}},
		{tm.IncrementMachine(), []string{"", "0", "1", "11", "110", "1111"}},
		{tm.LoopMachine(), []string{"", "_", "__", "___"}},
	} {
		for _, w := range c.tapes {
			sameInvent(t, fmt.Sprintf("%s on %q", c.m.Start, w), 64, func(u *value.Universe) (*ast.Program, *tuple.Instance) {
				p, err := tm.Compile(c.m, u)
				if err != nil {
					t.Fatal(err)
				}
				return p, tm.EncodeInput(c.m, strings.Split(w, ""), u)
			})
		}
	}
	for _, c := range []struct {
		prog, facts string
		limit       int
	}{
		{"Cell(N,X) :- P(X).", "P(a). P(b).", 0},
		{"P(N) :- P(X).", "P(a).", 16},
		{"Pair(C,X,Y) :- Succ(X,Y).", "Succ(a,b). Succ(b,c).", 0},
		{"Pair(C,X,Y) :- Succ(X,Y).\nNext(C,D) :- Pair(C,X,Y), Pair(D,Y,Z).", "Succ(a,b). Succ(b,c). Succ(c,d).", 0},
		{"Cell(N,X) :- P(X).\nCopy(M) :- Cell(M,X).\nName(X) :- Cell(M,X).", "P(a). P(b).", 0},
		// Q reads the domain, which the invented values of R and T grow:
		// a delta variant of Q sees no new fact and stops at stage 2.
		{"R(X,N) :- P(X).\nQ(X) :- !P(X).\nT(X,M) :- Q(X), !Succ(X,X).", "P(a). Succ(a,b).", 32},
	} {
		sameInvent(t, c.prog, c.limit, func(u *value.Universe) (*ast.Program, *tuple.Instance) {
			return parser.MustParse(c.prog, u), parser.MustParseFacts(c.facts, u)
		})
	}
	ran := 0
	for seed := int64(0); seed < 300; seed++ {
		build := func(u *value.Universe) (*ast.Program, *tuple.Instance) {
			c := rand.New(rand.NewSource(seed))
			p := gen.Program(c, u, ast.DialectDatalogNew)
			return p, gen.Facts(c, u, p)
		}
		if sameInvent(t, fmt.Sprintf("seed %d", seed), 4, build) {
			ran++
		}
	}
	t.Logf("%d of 300 generated programs within %d facts", ran, inventBudget)
	if ran < 200 {
		t.Fatalf("only %d generated programs stayed within the budget", ran)
	}
}
