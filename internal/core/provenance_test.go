package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"unchained/internal/engine"
	"unchained/internal/parser"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

func TestProvenanceTransitiveClosure(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,d).`, u)
	res, prov, err := EvalInflationaryProv(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The provenance run computes the same fixpoint.
	plain, err := EvalInflationary(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Out.Equal(plain.Out) {
		t.Fatalf("provenance changed the fixpoint")
	}

	a, d := u.Sym("a"), u.Sym("d")
	e, ok := prov.Why("T", tuple.Tuple{a, d})
	if !ok {
		t.Fatal("no explanation for T(a,d)")
	}
	if e.Input || e.Rule != 1 {
		t.Fatalf("T(a,d) should come from the recursive rule: %+v", e)
	}
	// Walk the tree: leaves must all be input G facts.
	var leaves []*Explanation
	var walk func(n *Explanation)
	walk = func(n *Explanation) {
		if len(n.Children) == 0 {
			leaves = append(leaves, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(e)
	if len(leaves) == 0 {
		t.Fatal("no leaves")
	}
	for _, l := range leaves {
		if !l.Input || l.Pred != "G" {
			t.Fatalf("leaf %s%s is not an input G fact", l.Pred, l.Tuple.String(u))
		}
	}
	// Stages strictly decrease along support edges.
	var checkStages func(n *Explanation) int
	checkStages = func(n *Explanation) int {
		if n.Input {
			return 0
		}
		for _, c := range n.Children {
			cs := checkStages(c)
			if cs >= n.Stage {
				t.Fatalf("support stage %d not before %d", cs, n.Stage)
			}
		}
		return n.Stage
	}
	checkStages(e)
}

func TestProvenanceRender(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c).`, u)
	_, prov, err := EvalInflationaryProv(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := prov.Why("T", tuple.Tuple{u.Sym("a"), u.Sym("c")})
	if !ok {
		t.Fatal("no explanation")
	}
	out := prov.Render(e)
	for _, want := range []string{"T(a,c)", "[input]", "G(a,b)", "stage", "rule"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestProvenanceSharedSupportOnce: a support that occurs twice in a
// body is explained once. Over a chain of n edges, Q(nk) is supported
// by Q(nk-1) twice and by an edge, so expanding the tree in full
// quadruples the output every two edges; shown once, Q(nn) takes 3n+1
// lines: three per derived fact (itself, the second Q support, the
// edge), and one for the input Q(n0), which Q(n1) reads twice.
func TestProvenanceSharedSupportOnce(t *testing.T) {
	const n = 14
	u := value.New()
	p := parser.MustParse(`Q(Y) :- Q(X), Q(X), E(X,Y).`, u)
	var facts strings.Builder
	facts.WriteString("Q(n0).")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&facts, " E(n%d,n%d).", i, i+1)
	}
	_, prov, err := EvalInflationaryProv(p, parser.MustParseFacts(facts.String(), u), u, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := prov.Why("Q", tuple.Tuple{u.Sym(fmt.Sprintf("n%d", n))})
	if !ok || e.Stage != n || len(e.Children) != 3 || e.Children[0] != e.Children[1] {
		t.Fatalf("Q(n%d) is not one node per fact: %+v", n, e)
	}
	out := prov.Render(e)
	if lines := strings.Count(out, "\n"); lines != 3*n+1 {
		t.Fatalf("render takes %d lines, want %d:\n%s", lines, 3*n+1, out)
	}
	if got := strings.Count(out, "[shown above]"); got != n-1 {
		t.Fatalf("%d facts marked shown above, want %d:\n%s", got, n-1, out)
	}
}

func TestProvenanceInputAndMissing(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`G(a,b).`, u)
	_, prov, err := EvalInflationaryProv(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := prov.Why("G", tuple.Tuple{u.Sym("a"), u.Sym("b")})
	if !ok || !e.Input {
		t.Fatalf("input fact not explained as input")
	}
	if _, ok := prov.Why("T", tuple.Tuple{u.Sym("b"), u.Sym("a")}); ok {
		t.Fatalf("non-fact explained")
	}
}

func TestProvenanceWithNegation(t *testing.T) {
	// Negative literals are conditions, not supports; the supports of
	// a Good fact are the positive atoms only.
	u := value.New()
	p := parser.MustParse(`
		Bad(X) :- G(Y,X), !Good(Y).
		Delay.
		Good(X) :- Delay, !Bad(X).
	`, u)
	in := parser.MustParseFacts(`G(a,b).`, u)
	_, prov, err := EvalInflationaryProv(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := prov.Why("Good", tuple.Tuple{u.Sym("a")})
	if !ok {
		t.Fatal("Good(a) unexplained")
	}
	if len(e.Children) != 1 || e.Children[0].Pred != "Delay" {
		t.Fatalf("supports of Good(a) should be just Delay: %+v", e.Children)
	}
}

// TestProvenanceStats: the provenance run is an engine run like the
// others. It resets the collector it is handed (a reused collector
// does not carry a previous run's counters over) and attaches the
// summary on success as well as on interruption. It runs the plain
// run's delta-driven stages on the same kernel, so it takes the plain
// run's stages and fires exactly the plain run's firings, deriving each
// fact once.
func TestProvenanceStats(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,d).`, u)
	col := stats.New()
	plain, err := EvalInflationary(p, in, u, &Options{Stats: col})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := EvalInflationaryProv(p, in, u, &Options{Stats: col})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("no Stats on the success path")
	}
	if res.Stats.Stages != res.Stages || res.Stats.Stages != plain.Stats.Stages {
		t.Fatalf("Stats.Stages = %d, Stages = %d, plain run = %d", res.Stats.Stages, res.Stages, plain.Stats.Stages)
	}
	if res.Stats.Derived != plain.Stats.Derived || res.Stats.Firings != plain.Stats.Firings {
		t.Fatalf("firings %d derived %d, plain run %d %d",
			res.Stats.Firings, res.Stats.Derived, plain.Stats.Firings, plain.Stats.Derived)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, prov, err := EvalInflationaryProv(p, in, u, &Options{Ctx: ctx, Stats: col})
	if !engine.IsInterrupt(err) || res == nil || res.Stats == nil || prov == nil {
		t.Fatalf("interrupted run: res=%v prov=%v err=%v", res, prov, err)
	}
	if res.Stats.Firings != 0 {
		t.Fatalf("interrupted before the first stage, yet %d firings", res.Stats.Firings)
	}
}
