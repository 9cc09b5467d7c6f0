package core

import (
	"context"
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
