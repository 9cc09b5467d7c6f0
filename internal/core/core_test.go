package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"unchained/internal/declarative"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

const tcSrc = `
	T(X,Y) :- G(X,Y).
	T(X,Y) :- G(X,Z), T(Z,Y).
`

// closerSrc is the program of Example 4.1.
const closerSrc = `
	T(X,Y) :- G(X,Y).
	T(X,Y) :- T(X,Z), G(Z,Y).
	Closer(X,Y,Xp,Yp) :- T(X,Y), !T(Xp,Yp).
`

// delayedCTSrc is the program of Example 4.3: complement of
// transitive closure by delayed firing.
const delayedCTSrc = `
	T(X,Y) :- G(X,Y).
	T(X,Y) :- G(X,Z), T(Z,Y).
	OldT(X,Y) :- T(X,Y).
	OldTExceptFinal(X,Y) :- T(X,Y), T(Xp,Zp), T(Zp,Yp), !T(Xp,Yp).
	CT(X,Y) :- !T(X,Y), OldT(Xp,Yp), !OldTExceptFinal(Xp,Yp).
`

// goodSrc is the program of Example 4.4: nodes not reachable from a
// cycle, via the timestamp technique.
const goodSrc = `
	Bad(X) :- G(Y,X), !Good(Y).
	Delay.
	Good(X) :- Delay, !Bad(X).
	BadStamped(X,T) :- G(Y,X), !Good(Y), Good(T).
	DelayStamped(T) :- Good(T).
	Good(X) :- DelayStamped(T), !BadStamped(X,T).
`

// flipFlopSrc is the non-terminating Datalog¬¬ program of Section 4.2.
const flipFlopSrc = `
	T(0) :- T(1).
	!T(1) :- T(1).
	T(1) :- T(0).
	!T(0) :- T(0).
`

func sortedRel(in *tuple.Instance, u *value.Universe, pred string) []string {
	r := in.Relation(pred)
	if r == nil {
		return nil
	}
	var out []string
	for _, t := range r.SortedTuples(u) {
		out = append(out, t.String(u))
	}
	return out
}

func TestInflationaryTCMatchesMinimumModel(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,a). G(c,d).`, u)
	infl, err := EvalInflationary(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	min, err := declarative.Eval(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !infl.Out.Equal(min.Out) {
		t.Fatalf("inflationary and minimum-model semantics disagree on positive Datalog")
	}
}

func TestInflationaryStagesAreDistances(t *testing.T) {
	// Example 4.1's invariant: T(x,y) is inferred at stage d(x,y).
	u := value.New()
	p := parser.MustParse(`T(X,Y) :- G(X,Y). T(X,Y) :- T(X,Z), G(Z,Y).`, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,d). G(d,e).`, u)
	stageOf := map[string]int{}
	opt := &Options{Trace: func(stage int, delta *tuple.Instance) {
		if r := delta.Relation("T"); r != nil {
			for _, tp := range r.SortedTuples(u) {
				stageOf[tp.String(u)] = stage
			}
		}
	}}
	if _, err := EvalInflationary(p, in, u, opt); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"(a,b)": 1, "(b,c)": 1, "(c,d)": 1, "(d,e)": 1,
		"(a,c)": 2, "(b,d)": 2, "(c,e)": 2,
		"(a,d)": 3, "(b,e)": 3,
		"(a,e)": 4,
	}
	for k, v := range want {
		if stageOf[k] != v {
			t.Errorf("T%s inferred at stage %d, want %d", k, stageOf[k], v)
		}
	}
}

// TestTraceSnapshotsOutliveRecycling holds the Options.Trace contract
// against the recycled staging sets: the instance a stage is shown is
// the kernel's delta, whose storage a later stage writes into, and a
// Trace that keeps a Snapshot of it keeps that stage's facts. On a
// 12-node chain T(x,y) enters at stage d(x,y), so after the run the
// snapshot of stage k must hold exactly the 12-k facts at distance k.
func TestTraceSnapshotsOutliveRecycling(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	const n = 12
	var facts strings.Builder
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&facts, "G(n%d,n%d). ", i, i+1)
	}
	in := parser.MustParseFacts(facts.String(), u)
	var kept []*tuple.Instance
	opt := &Options{Trace: func(stage int, delta *tuple.Instance) {
		kept = append(kept, delta.Snapshot())
	}}
	res, err := EvalInflationary(p, in, u, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != n-1 || res.Stages != n-1 {
		t.Fatalf("%d stages shown of %d, want %d", len(kept), res.Stages, n-1)
	}
	for k, snap := range kept {
		stage := k + 1
		want := tuple.NewInstance()
		for i := 0; i+stage < n; i++ {
			want.Insert("T", tuple.Tuple{u.Sym(fmt.Sprintf("n%d", i)), u.Sym(fmt.Sprintf("n%d", i+stage))})
		}
		if got := snap.Relation("T"); got == nil || !got.Equal(want.Relation("T")) {
			t.Errorf("stage %d: the kept snapshot holds T\n%swant\n%s", stage, snap.Restrict([]string{"T"}, nil).String(u), want.String(u))
		}
	}
}

func TestCloserExample41(t *testing.T) {
	u := value.New()
	p := parser.MustParse(closerSrc, u)
	// Chain a->b->c plus isolated-ish edge x->y (y unreachable from
	// the chain).
	in := parser.MustParseFacts(`G(a,b). G(b,c).`, u)
	res, err := EvalInflationary(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	// d(a,b)=d(b,c)=1, d(a,c)=2, everything else infinite. The
	// simultaneous-firing semantics yields strict comparison:
	// Closer(x,y,x',y') iff d(x,y) < d(x',y') (see EXPERIMENTS.md on
	// the ≤ vs < subtlety in the paper's prose).
	has := func(x, y, xp, yp string) bool {
		return res.Out.Has("Closer", tuple.Tuple{u.Sym(x), u.Sym(y), u.Sym(xp), u.Sym(yp)})
	}
	if !has("a", "b", "a", "c") { // 1 < 2
		t.Errorf("Closer(a,b,a,c) missing")
	}
	if !has("a", "c", "b", "a") { // 2 < inf
		t.Errorf("Closer(a,c,b,a) missing")
	}
	if has("a", "c", "a", "b") { // 2 < 1 is false
		t.Errorf("Closer(a,c,a,b) wrongly present")
	}
	if has("a", "b", "b", "c") { // 1 < 1 is false (strict)
		t.Errorf("Closer(a,b,b,c) wrongly present (equal distances)")
	}
	if has("b", "a", "a", "b") { // inf < 1 is false
		t.Errorf("Closer(b,a,a,b) wrongly present")
	}

	// Every quadruple on a chain of 8, so the relation is sound and
	// complete: d(ci,cj) = j−i for i < j and infinite (n here, beyond
	// every finite distance) otherwise.
	const n = 8
	u = value.New()
	nodes := make([]value.Value, n)
	chain := tuple.NewInstance()
	for i := range nodes {
		nodes[i] = u.Sym(fmt.Sprintf("c%d", i))
		if i > 0 {
			chain.Insert("G", tuple.Tuple{nodes[i-1], nodes[i]})
		}
	}
	res, err = EvalInflationary(parser.MustParse(closerSrc, u), chain, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist := func(i, j int) int {
		if j > i {
			return j - i
		}
		return n
	}
	for q := 0; q < n*n*n*n; q++ {
		x, y, xp, yp := q/(n*n*n), q/(n*n)%n, q/n%n, q%n
		got := res.Out.Has("Closer", tuple.Tuple{nodes[x], nodes[y], nodes[xp], nodes[yp]})
		if want := dist(x, y) < dist(xp, yp); got != want {
			t.Fatalf("Closer(c%d,c%d,c%d,c%d) = %v, want %v", x, y, xp, yp, got, want)
		}
	}
}

func TestDelayedCTExample43(t *testing.T) {
	graphs := []string{
		`G(a,b).`,
		`G(a,b). G(b,c).`,
		`G(a,b). G(b,c). G(c,a).`,
		`G(a,b). G(b,a). G(c,d). G(d,e). G(e,c).`,
	}
	for _, g := range graphs {
		u := value.New()
		p := parser.MustParse(delayedCTSrc, u)
		in := parser.MustParseFacts(g, u)
		res, err := EvalInflationary(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: stratified complement of TC.
		ps := parser.MustParse(tcSrc+`CT(X,Y) :- !T(X,Y).`, u)
		ref, err := declarative.EvalStratified(ps, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := sortedRel(res.Out, u, "CT")
		want := sortedRel(ref.Out, u, "CT")
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("graph %q: delayed CT %v != stratified CT %v", g, got, want)
		}
	}
}

// TestDelayedCTGuardsAreCut pins the existential cut on Example 4.3's
// guards: on a 12-node chain OldTExceptFinal derives 65 facts, and the
// matcher stops at the first witness of T(Xp,Zp), T(Zp,Yp), !T(Xp,Yp)
// instead of visiting all of them (12 274 firings without the cut).
// CT's output is checked against the stratified complement.
func TestDelayedCTGuardsAreCut(t *testing.T) {
	u := value.New()
	p := parser.MustParse(delayedCTSrc, u)
	in := gen.Chain(u, "G", 12)
	col := stats.New()
	res, err := EvalInflationary(p, in, u, &Options{Stats: col})
	if err != nil {
		t.Fatal(err)
	}
	const guard = "OldTExceptFinal(X,Y) :- T(X,Y), T(Xp,Zp), T(Zp,Yp), !T(Xp,Yp)."
	found := false
	for _, r := range res.Stats.PerRule {
		if r.Rule != guard {
			continue
		}
		found = true
		if r.Derived != 65 || r.Firings > 1000 {
			t.Fatalf("%s: %d firings derive %d facts, want at most 1 000 firings deriving 65", guard, r.Firings, r.Derived)
		}
	}
	if !found {
		t.Fatalf("no per-rule entry for %s: %+v", guard, res.Stats.PerRule)
	}
	ref, err := declarative.EvalStratified(parser.MustParse(tcSrc+`CT(X,Y) :- !T(X,Y).`, u), in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedRel(res.Out, u, "CT"), sortedRel(ref.Out, u, "CT"); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("delayed CT %v != stratified CT %v", got, want)
	}
}

func TestGoodNodesExample44(t *testing.T) {
	cases := []struct {
		graph string
		want  string
	}{
		// Chain: no cycles at all, every node is good.
		{`G(a,b). G(b,c).`, "(a) (b) (c)"},
		// Pure cycle: nothing is good.
		{`G(a,b). G(b,c). G(c,a).`, ""},
		// Cycle with a tail: tail nodes reachable from the cycle are
		// bad; a fresh source d -> e is good.
		{`G(a,b). G(b,a). G(b,c). G(d,e).`, "(d) (e)"},
	}
	for _, c := range cases {
		u := value.New()
		p := parser.MustParse(goodSrc, u)
		in := parser.MustParseFacts(c.graph, u)
		res, err := EvalInflationary(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Join(sortedRel(res.Out, u, "Good"), " ")
		if got != c.want {
			t.Errorf("graph %q: Good = %q, want %q", c.graph, got, c.want)
		}
	}
}

func TestFlipFlopNonTermination(t *testing.T) {
	u := value.New()
	p := parser.MustParse(flipFlopSrc, u)
	in := parser.MustParseFacts(`T(0).`, u)
	_, err := EvalNonInflationary(p, in, u, nil)
	if !errors.Is(err, ErrNonTerminating) {
		t.Fatalf("err = %v, want ErrNonTerminating", err)
	}
}

func TestOrientationDeterministic(t *testing.T) {
	// With the deterministic parallel semantics, the orientation rule
	// removes every 2-cycle entirely (Section 5 intro).
	u := value.New()
	p := parser.MustParse(`!G(X,Y) :- G(X,Y), G(Y,X).`, u)
	in := parser.MustParseFacts(`G(a,b). G(b,a). G(c,d). G(e,e).`, u)
	res, err := EvalNonInflationary(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(sortedRel(res.Out, u, "G"), " ")
	if got != "(c,d)" {
		t.Fatalf("G after orientation = %q, want (c,d)", got)
	}
	if res.Stages != 1 {
		t.Fatalf("stages = %d, want 1", res.Stages)
	}
}

func TestNonInflationaryUpdatesEDB(t *testing.T) {
	// Input relations may appear in heads: delete all P, copy to Q.
	u := value.New()
	p := parser.MustParse(`Q(X) :- P(X). !P(X) :- P(X).`, u)
	in := parser.MustParseFacts(`P(a). P(b).`, u)
	res, err := EvalNonInflationary(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Relation("P").Len() != 0 {
		t.Fatalf("P not emptied")
	}
	if res.Out.Relation("Q").Len() != 2 {
		t.Fatalf("Q = %d, want 2", res.Out.Relation("Q").Len())
	}
}

func TestConflictPolicies(t *testing.T) {
	// P(a) is both re-derived and retracted each stage.
	src := `P(X) :- Q(X). !P(X) :- Q(X).`
	facts := `Q(a).`

	// PreferPositive: P(a) inserted, stays; fixpoint after 1 stage.
	u := value.New()
	p := parser.MustParse(src, u)
	in := parser.MustParseFacts(facts, u)
	res, err := EvalNonInflationary(p, in, u, &Options{Policy: PreferPositive})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Out.Has("P", tuple.Tuple{u.Sym("a")}) {
		t.Fatalf("prefer-positive: P(a) missing")
	}

	// PreferNegative: P(a) never inserted.
	res, err = EvalNonInflationary(p, in, u, &Options{Policy: PreferNegative})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Has("P", tuple.Tuple{u.Sym("a")}) {
		t.Fatalf("prefer-negative: P(a) present")
	}

	// NoOp: P(a) keeps its previous status (absent initially).
	res, err = EvalNonInflationary(p, in, u, &Options{Policy: NoOp})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Has("P", tuple.Tuple{u.Sym("a")}) {
		t.Fatalf("no-op: P(a) appeared from nothing")
	}
	// NoOp with P(a) initially present: stays present.
	in2 := parser.MustParseFacts(`Q(a). P(a).`, u)
	res, err = EvalNonInflationary(p, in2, u, &Options{Policy: NoOp})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Out.Has("P", tuple.Tuple{u.Sym("a")}) {
		t.Fatalf("no-op: pre-existing P(a) vanished")
	}

	// Inconsistent: error, naming the fact inferred both ways.
	_, err = EvalNonInflationary(p, in, u, &Options{Policy: Inconsistent})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("inconsistent policy: err = %v", err)
	}
	if !strings.HasSuffix(err.Error(), ": P(a)") {
		t.Fatalf("inconsistent policy: message %q does not render the conflicting fact", err.Error())
	}
}

func TestPolicyEquivalenceOnConflictFree(t *testing.T) {
	// Section 4.2: the choice of conflict policy "is not crucial".
	// On conflict-free programs all four agree.
	u := value.New()
	p := parser.MustParse(`
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
		!G(X,X) :- G(X,X).
	`, u)
	in := parser.MustParseFacts(`G(a,a). G(a,b). G(b,c).`, u)
	var results []*tuple.Instance
	for _, pol := range []ConflictPolicy{PreferPositive, PreferNegative, NoOp, Inconsistent} {
		res, err := EvalNonInflationary(p, in, u, &Options{Policy: pol})
		if err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		results = append(results, res.Out)
	}
	for i := 1; i < len(results); i++ {
		if !results[0].Equal(results[i]) {
			t.Fatalf("policies disagree on conflict-free program")
		}
	}
}

func TestNonInflationarySubsumesInflationary(t *testing.T) {
	// A Datalog¬ program run under both engines agrees (Datalog¬ ⊆
	// Datalog¬¬, Section 4.2).
	u := value.New()
	p := parser.MustParse(delayedCTSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,a).`, u)
	r1, err := EvalInflationary(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := EvalNonInflationary(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Out.Equal(r2.Out) {
		t.Fatalf("Datalog¬¬ engine disagrees with inflationary on a Datalog¬ program")
	}
}

func TestInventBasic(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`Cell(N,X) :- P(X).`, u)
	in := parser.MustParseFacts(`P(a). P(b).`, u)
	res, err := EvalInvent(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := res.Out.Relation("Cell")
	if cells.Len() != 2 {
		t.Fatalf("Cell = %d tuples, want 2 (Skolemized invention)", cells.Len())
	}
	seen := map[value.Value]bool{}
	cells.Each(func(tp tuple.Tuple) bool {
		if !u.IsFresh(tp[0]) {
			t.Errorf("Cell id %v not an invented value", tp[0])
		}
		if seen[tp[0]] {
			t.Errorf("invented ids not distinct")
		}
		seen[tp[0]] = true
		return true
	})
	if res.Stages != 1 {
		t.Fatalf("stages = %d, want 1", res.Stages)
	}
}

func TestInventDivergesWithLimit(t *testing.T) {
	// P(n) ← P(x) invents forever; the stage limit catches it.
	u := value.New()
	p := parser.MustParse(`P(N) :- P(X).`, u)
	in := parser.MustParseFacts(`P(a).`, u)
	_, err := EvalInvent(p, in, u, &Options{MaxStages: 16})
	if !errors.Is(err, ErrStageLimit) {
		t.Fatalf("err = %v, want ErrStageLimit", err)
	}
}

func TestInventListConstruction(t *testing.T) {
	// Chain the elements of a unary relation into invented list
	// cells: a classic value-invention use (object creation, §4.3).
	u := value.New()
	p := parser.MustParse(`
		Pair(C,X,Y) :- Succ(X,Y).
	`, u)
	in := parser.MustParseFacts(`Succ(a,b). Succ(b,c).`, u)
	res, err := EvalInvent(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Relation("Pair").Len() != 2 {
		t.Fatalf("Pair = %d", res.Out.Relation("Pair").Len())
	}
}

func TestInflationaryRejectsHeadNegation(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`!P(X) :- P(X).`, u)
	if _, err := EvalInflationary(p, tuple.NewInstance(), u, nil); err == nil {
		t.Fatalf("inflationary engine accepted head negation")
	}
}

func TestStageLimitInflationary(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,d). G(d,e). G(e,f).`, u)
	_, err := EvalInflationary(p, in, u, &Options{MaxStages: 2})
	if !errors.Is(err, ErrStageLimit) {
		t.Fatalf("err = %v, want ErrStageLimit", err)
	}
}

func TestAnswerRestriction(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`G(a,b).`, u)
	res, err := EvalInflationary(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	ans := Answer(p, res.Out)
	if ans.Relation("G") != nil {
		t.Fatalf("answer leaked EDB relation")
	}
	if ans.Relation("T") == nil || ans.Relation("T").Len() != 1 {
		t.Fatalf("answer missing T")
	}
	only := Answer(p, res.Out, "T")
	if only.Relation("T").Len() != 1 {
		t.Fatalf("named answer restriction failed")
	}
}

func TestInflationaryEqualsWellFounded(t *testing.T) {
	// Fig. 1: well-founded (2-valued reading) and inflationary
	// semantics both capture fixpoint; on the delayed-CT program the
	// answers agree.
	u := value.New()
	p := parser.MustParse(tcSrc+`CT(X,Y) :- !T(X,Y).`, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c).`, u)
	wfs, err := declarative.EvalWellFounded(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	// For the stratified CT program the WFS true facts equal the
	// stratified/inflationary-delayed answers.
	up := parser.MustParse(delayedCTSrc, u)
	infl, err := EvalInflationary(up, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := sortedRel(wfs.True, u, "CT")
	b := sortedRel(infl.Out, u, "CT")
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatalf("WFS CT %v != inflationary delayed CT %v", a, b)
	}
}
