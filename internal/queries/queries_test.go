package queries

import (
	"fmt"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/core"
	"unchained/internal/declarative"
	"unchained/internal/gen"
	"unchained/internal/nondet"
	"unchained/internal/order"
	"unchained/internal/tuple"
	"unchained/internal/value"
	"unchained/internal/while"
)

func TestAllCanonicalSourcesParse(t *testing.T) {
	dialects := map[string]ast.Dialect{
		TC:             ast.DialectDatalog,
		CT:             ast.DialectDatalogNeg,
		Win:            ast.DialectDatalogNeg,
		Closer:         ast.DialectDatalogNeg,
		DelayedCT:      ast.DialectDatalogNeg,
		GoodNodes:      ast.DialectDatalogNeg,
		FlipFlop:       ast.DialectDatalogNegNeg,
		Orientation:    ast.DialectDatalogNegNeg,
		DiffNegNeg:     ast.DialectNDatalogNegNeg,
		DiffForall:     ast.DialectNDatalogAll,
		DiffBottom:     ast.DialectNDatalogBot,
		Choice:         ast.DialectNDatalogNegNeg,
		SameGeneration: ast.DialectDatalog,
		EvenOrdered:    ast.DialectDatalogNeg,
		Counter(4):     ast.DialectDatalogNegNeg,
	}
	i := 0
	for src, d := range dialects {
		u := value.New()
		p := Must(src, u)
		if err := p.Validate(d); err != nil {
			t.Errorf("source %d invalid for %v: %v", i, d, err)
		}
		i++
	}
}

// TestEvenOrderedAllSemantics reproduces the Theorem 4.7 setup: on
// ordered databases the evenness query (inexpressible generically,
// Section 4.4) is computed by the same semi-positive program under
// the semi-positive engine the theorem names and under stratified,
// well-founded, and inflationary semantics.
func TestEvenOrderedAllSemantics(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for k := 0; k <= n; k++ {
			u := value.New()
			base := gen.UnarySubset(u, "R", "Dom", n, k, int64(n*100+k))
			in := order.WithOrder(base, u)
			p := Must(EvenOrdered, u)
			wantEven := k%2 == 0

			semi, err := declarative.EvalSemiPositive(p, in, u, nil)
			if err != nil {
				t.Fatal(err)
			}
			strat, err := declarative.EvalStratified(p, in, u, nil)
			if err != nil {
				t.Fatal(err)
			}
			infl, err := core.EvalInflationary(p, in, u, nil)
			if err != nil {
				t.Fatal(err)
			}
			wfs, err := declarative.EvalWellFounded(p, in, u, nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]bool{
				"semi-positive": relLen(semi.Out, "EvenAns") > 0,
				"stratified":    relLen(strat.Out, "EvenAns") > 0,
				"inflationary":  relLen(infl.Out, "EvenAns") > 0,
				"well-founded":  relLen(wfs.True, "EvenAns") > 0,
			} {
				if got != wantEven {
					t.Errorf("n=%d k=%d %s: EvenAns=%v want %v", n, k, name, got, wantEven)
				}
			}
			if oddGot := relLen(strat.Out, "OddAns") > 0; oddGot == wantEven {
				t.Errorf("n=%d k=%d: OddAns inconsistent", n, k)
			}
		}
	}
}

// TestCounterStages reproduces the Theorem 4.8 witness: the k-bit
// counter runs exactly 2^k stages before reaching its fixpoint.
func TestCounterStages(t *testing.T) {
	for k := 1; k <= 6; k++ {
		u := value.New()
		p := Must(Counter(k), u)
		in := tuple.NewInstance()
		in.Ensure("One", 1)
		res, err := core.EvalNonInflationary(p, in, u, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := 1 << k
		if res.Stages != want {
			t.Errorf("k=%d: %d stages, want %d", k, res.Stages, want)
		}
		if res.Out.Relation("Done") == nil || res.Out.Relation("Done").Len() != 1 {
			t.Errorf("k=%d: Done not derived", k)
		}
		// After rollover all bits are zero again.
		if res.Out.Relation("One").Len() != 0 {
			t.Errorf("k=%d: %d bits still set", k, res.Out.Relation("One").Len())
		}
	}
}

// TestFixpointPairsAgree is the heart of the F1b experiment: paired
// programs in the while/fixpoint language and in (inflationary /
// stratified / well-founded) Datalog¬ compute the same queries.
func TestFixpointPairsAgree(t *testing.T) {
	graphs := []*func(u *value.Universe) *tuple.Instance{}
	_ = graphs
	mk := []func(u *value.Universe) *tuple.Instance{
		func(u *value.Universe) *tuple.Instance { return gen.Chain(u, "G", 6) },
		func(u *value.Universe) *tuple.Instance { return gen.Cycle(u, "G", 5) },
		func(u *value.Universe) *tuple.Instance { return gen.Random(u, "G", 8, 14, 11) },
		func(u *value.Universe) *tuple.Instance { return gen.Grid(u, "G", 3, 3) },
	}
	for gi, mkIn := range mk {
		// TC: fixpoint-language vs Datalog minimum model.
		u := value.New()
		in := mkIn(u)
		wres, err := while.Run(TCFixpoint(), in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := declarative.Eval(Must(TC, u), in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !relEq(wres.Out, dres.Out, "T") {
			t.Errorf("graph %d: TC fixpoint != Datalog", gi)
		}

		// CT: fixpoint-language vs stratified vs well-founded vs
		// inflationary delayed.
		cres, err := while.Run(CTFixpoint(), in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := declarative.EvalStratified(Must(CT, u), in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !relEq(cres.Out, sres.Out, "CT") {
			t.Errorf("graph %d: CT fixpoint != stratified", gi)
		}
		wfs, err := declarative.EvalWellFounded(Must(CT, u), in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !relEq(cres.Out, wfs.True, "CT") {
			t.Errorf("graph %d: CT fixpoint != well-founded", gi)
		}
		// F1a: the closure and its complement partition adom².
		adom := len(order.Domain(in, u))
		if nT, nCT := relLen(dres.Out, "T"), relLen(sres.Out, "CT"); nT+nCT != adom*adom {
			t.Errorf("graph %d: |T|+|CT| = %d+%d, want |adom|² = %d", gi, nT, nCT, adom*adom)
		}
		if in.Relation("G").Len() > 0 {
			ires, err := core.EvalInflationary(Must(DelayedCT, u), in, u, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !relEq(cres.Out, ires.Out, "CT") {
				t.Errorf("graph %d: CT fixpoint != inflationary delayed", gi)
			}
		}

		// Good nodes: fixpoint-language vs inflationary timestamps.
		gw, err := while.Run(GoodFixpoint(), in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		gi2, err := core.EvalInflationary(Must(GoodNodes, u), in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !relEq(gw.Out, gi2.Out, "Good") {
			t.Errorf("graph %d: Good fixpoint != inflationary timestamps", gi)
		}
	}
}

// TestCascadeDeleteMatchesWhile is the F1c experiment (Figure 1:
// Datalog¬¬ ≡ while): the retraction-based cascade delete and its
// destructive-assignment while counterpart leave the same Emp and
// Fired on management trees, and Emp loses exactly the fired subtree.
func TestCascadeDeleteMatchesWhile(t *testing.T) {
	for _, depth := range []int{3, 5} {
		u := value.New()
		in := gen.Cascade(u, depth)
		dl, err := core.EvalNonInflationary(Must(CascadeDelete, u), in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		wh, err := while.Run(CascadeWhile(), in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, pred := range []string{"Emp", "Fired"} {
			if !relEq(dl.Out, wh.Out, pred) {
				t.Errorf("depth %d: %s differs between Datalog¬¬ and while", depth, pred)
			}
		}
		// The root's left subtree (2^depth − 1 nodes) is fired.
		if got, want := relLen(dl.Out, "Emp"), 1<<depth; got != want {
			t.Errorf("depth %d: |Emp| = %d, want %d", depth, got, want)
		}
	}
}

// TestWinWhileMatchesWFS checks that the backward-induction while
// program computes the true/false partition of the well-founded model
// of the Win program.
func TestWinWhileMatchesWFS(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		u := value.New()
		in := gen.Game(u, "Moves", 8, 12, seed)
		wres, err := while.Run(WinWhile(), in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		wfs, err := declarative.EvalWellFounded(Must(Win, u), in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		winRel := wres.Out.Relation("Win")
		if winRel == nil {
			winRel = tuple.NewRelation(1)
		}
		// while-Win == WFS-true(Win)
		wfsWin := wfs.True.Relation("Win")
		if wfsWin == nil {
			wfsWin = tuple.NewRelation(1)
		}
		if !winRel.Equal(wfsWin) {
			t.Errorf("seed %d: while Win != WFS true", seed)
		}
		// while-Lose == WFS-false(Win) over the domain.
		loseRel := wres.Out.Relation("Lose")
		dom := wfs.Domain()
		if len(dom) == 0 {
			t.Fatalf("seed %d: empty active domain: the check would range over nothing", seed)
		}
		for _, v := range dom {
			isLose := loseRel != nil && loseRel.Contains(tuple.Tuple{v})
			truth := wfs.Truth("Win", tuple.Tuple{v})
			if isLose != (truth == declarative.False) {
				t.Errorf("seed %d: state %s lose=%v wfs=%v", seed, u.Name(v), isLose, truth)
			}
		}
	}
}

// TestDifferencePrograms checks all three nondeterministic encodings
// of P − πA(Q) against each other (Example 5.4/5.5, Theorem 5.6).
func TestDifferencePrograms(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		u := value.New()
		ps := gen.UnarySubset(u, "P", "All", 6, 4, seed)
		qs := gen.Random(u, "Q", 6, 5, seed+100)
		in := gen.Merge(ps, qs)

		want := map[string]bool{}
		pRel := in.Relation("P")
		pRel.Each(func(tp tuple.Tuple) bool {
			inQ := false
			in.Relation("Q").Each(func(tq tuple.Tuple) bool {
				if tq[0] == tp[0] {
					inQ = true
					return false
				}
				return true
			})
			if !inQ {
				want[fmt.Sprint(tp[0])] = true
			}
			return true
		})

		check := func(name, src string, d ast.Dialect) {
			eff, err := nondet.Effects(Must(src, u), d, in, u, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if len(eff.States) == 0 {
				t.Fatalf("%s seed %d: empty effect", name, seed)
			}
			for _, s := range eff.States {
				got := map[string]bool{}
				if r := s.Relation("Answer"); r != nil {
					r.Each(func(tp tuple.Tuple) bool {
						got[fmt.Sprint(tp[0])] = true
						return true
					})
				}
				if len(got) != len(want) {
					t.Fatalf("%s seed %d: answer size %d want %d", name, seed, len(got), len(want))
				}
				for k := range want {
					if !got[k] {
						t.Fatalf("%s seed %d: missing %s", name, seed, k)
					}
				}
			}
		}
		check("negneg", DiffNegNeg, ast.DialectNDatalogNegNeg)
		check("forall", DiffForall, ast.DialectNDatalogAll)
		check("bottom", DiffBottom, ast.DialectNDatalogBot)
	}
}

// relLen is Relation(pred).Len() tolerating an absent relation.
func relLen(in *tuple.Instance, pred string) int {
	if r := in.Relation(pred); r != nil {
		return r.Len()
	}
	return 0
}

func relEq(a, b *tuple.Instance, pred string) bool {
	ra, rb := a.Relation(pred), b.Relation(pred)
	if ra == nil && rb == nil {
		return true
	}
	if ra == nil {
		return rb.Len() == 0
	}
	if rb == nil {
		return ra.Len() == 0
	}
	return ra.Equal(rb)
}
