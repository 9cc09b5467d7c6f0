package declarative

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/engine"
	"unchained/internal/eval"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/stats"
	"unchained/internal/trace"
	"unchained/internal/tuple"
	"unchained/internal/value"
	"unchained/programs"
)

// referenceWFS is the alternating fixpoint of Van Gelder over the whole
// program, as EvalWellFounded computed it before it went by groups, kept
// as the oracle for the per-group evaluation:
//
//	under₀ = input; overᵢ = Γ(underᵢ₋₁); underᵢ = Γ(overᵢ)
//
// where Γ(S) is the minimum model of the program with every negative
// literal ¬A evaluated as A ∉ S, each Γ starting from the input. It
// stops when an under-estimate equals the one before.
func referenceWFS(t testing.TB, p *ast.Program, in *tuple.Instance, u *value.Universe) (under, over *tuple.Instance) {
	t.Helper()
	rules, err := eval.CompileProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	adom := eval.ActiveDomain(u, p.Constants(), in)
	k := engine.SemiNaive{Rules: rules}
	gamma := func(s *tuple.Instance) *tuple.Instance {
		out := in.Clone()
		k.NegIn = s
		if _, err := k.Run(nil, out, adom, nil, nil); err != nil {
			t.Fatal(err)
		}
		return out
	}
	under = in.Clone()
	for {
		over = gamma(under)
		next := gamma(over)
		if next.Equal(under) {
			return under, over
		}
		under = next
	}
}

// sameModel compares EvalWellFounded with the reference on (p, in):
// byte-identical True and Possible renderings.
func sameModel(t testing.TB, name string, p *ast.Program, in *tuple.Instance, u *value.Universe) *WFSResult {
	t.Helper()
	w, err := EvalWellFounded(p, in, u, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	under, over := referenceWFS(t, p, in, u)
	if got, want := w.True.String(u), under.String(u); got != want {
		t.Fatalf("%s: true facts\n%sthe reference's\n%s", name, got, want)
	}
	if got, want := w.Possible.String(u), over.String(u); got != want {
		t.Fatalf("%s: possible facts\n%sthe reference's\n%s", name, got, want)
	}
	return w
}

// corpusInputs calls fn with every shipped program that is Datalog¬
// over each input shape of gen.Inputs.
func corpusInputs(fn func(name string, p *ast.Program, in *tuple.Instance, u *value.Universe)) {
	for _, c := range programs.Cases {
		u := value.New()
		p, err := parser.Parse(programs.Source(c.Program), u)
		if err != nil || p.Validate(ast.DialectDatalogNeg) != nil {
			continue
		}
		gen.Inputs(u, p, func(shape string, in *tuple.Instance) { fn(c.Program+" "+shape, p, in, u) })
	}
}

// TestWellFoundedMatchesReferenceOnCorpus: every shipped Datalog¬
// program × the input shapes of gen.Inputs.
func TestWellFoundedMatchesReferenceOnCorpus(t *testing.T) {
	ran := 0
	corpusInputs(func(name string, p *ast.Program, in *tuple.Instance, u *value.Universe) {
		sameModel(t, name, p, in, u)
		ran++
	})
	if ran < 40 {
		t.Fatalf("only %d runs: the corpus has lost its Datalog¬ programs", ran)
	}
}

// TestWellFoundedIsStratifiedOnStratifiable: on a stratifiable program
// the well-founded model is the stratified one (§3.3), and computing it
// is the same work: the same kernel runs over the same strata, so the
// same stages, firings, derived and rederived facts. The two engines are
// one walk, so the stratified model is also held to the whole-program
// alternation of referenceWFS, which shares no group code with it.
func TestWellFoundedIsStratifiedOnStratifiable(t *testing.T) {
	ran := 0
	corpusInputs(func(name string, p *ast.Program, in *tuple.Instance, u *value.Universe) {
		strat, err := EvalStratified(p, in, u, &Options{Stats: stats.New()})
		if err != nil {
			return // not stratifiable
		}
		under, over := referenceWFS(t, p, in, u)
		if got, want := strat.Out.String(u), under.String(u); got != want || !under.Equal(over) {
			t.Fatalf("%s: stratified model\n%sthe reference's true facts\n%sand it is total: %v", name, got, want, under.Equal(over))
		}
		w, err := EvalWellFounded(p, in, u, &Options{Stats: stats.New()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !w.Total() || !w.True.Equal(strat.Out) {
			t.Fatalf("%s: the well-founded model is not the stratified one", name)
		}
		got, want := w.Stats, strat.Stats
		if got.Stages != want.Stages || got.Firings != want.Firings || got.Derived != want.Derived || got.Rederived != want.Rederived {
			t.Fatalf("%s: well-founded took %d stages, %d firings, %d derived, %d rederived; stratified %d, %d, %d, %d",
				name, got.Stages, got.Firings, got.Derived, got.Rederived, want.Stages, want.Firings, want.Derived, want.Rederived)
		}
		ran++
	})
	if ran < 30 {
		t.Fatalf("only %d runs: the corpus has lost its stratifiable programs", ran)
	}
}

// generated returns the Datalog¬ program and facts gen.Program and
// gen.Facts draw from c, recursion through negation included.
func generated(c gen.Chooser) (*ast.Program, *tuple.Instance, *value.Universe) {
	u := value.New()
	p := gen.Program(c, u, ast.DialectDatalogNeg)
	return p, gen.Facts(c, u, p), u
}

// TestWellFoundedMatchesReferenceOnRandomPrograms: the generated
// Datalog¬ programs of 200 seeds.
func TestWellFoundedMatchesReferenceOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p, in, u := generated(rand.New(rand.NewSource(seed)))
		sameModel(t, fmt.Sprintf("seed %d:\n%s", seed, p.String(u)), p, in, u)
	}
}

// FuzzWellFounded is TestWellFoundedMatchesReferenceOnRandomPrograms
// over gen.Bytes.
func FuzzWellFounded(f *testing.F) {
	// The win program over a 2-cycle with a tail, E(n0,n1) E(n1,n0)
	// E(n1,n2) E(n2,n3): A(n0) and A(n1) are unknown.
	//	A(X) :- E(X,Y), !A(Y).
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 1, 2, 2, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 2, 1, 2, 3})
	for seed := int64(0); seed < 8; seed++ {
		data := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, in, u := generated(gen.Bytes(data))
		sameModel(t, fmt.Sprintf("%v:\n%s", data, p.String(u)), p, in, u)
	})
}

// handWrittenGroups has every kind of group: the closure is 2-valued
// and runs once; Win recurses through negation and alternates, reading
// the closure below it; Lose and Reach read Win's unknown facts and run
// twice; Iso reads only the closure and comes after the fork, so its
// relation is shared into the possible facts, not recomputed.
const handWrittenGroups = `
	T(X,Y) :- G(X,Y).
	T(X,Y) :- G(X,Z), T(Z,Y).
	Win(X) :- T(X,Y), !Win(Y).
	Lose(X) :- N(X), !Win(X).
	Reach(X) :- Lose(X).
	Reach(Y) :- Reach(X), T(X,Y).
	Iso(X) :- N(X), !T(X,X).
`

func TestWellFoundedMatchesReferenceHandWritten(t *testing.T) {
	u := value.New()
	p := parser.MustParse(handWrittenGroups, u)
	for _, facts := range []string{
		// A cycle a-b-c with a tail to d, an isolated e: Win is unknown
		// on the cycle, so Lose and Reach are too.
		"G(a,b). G(b,c). G(c,a). G(c,d). G(d,f). N(a). N(b). N(c). N(d). N(e). N(f).",
		// A chain: every group is 2-valued in the end.
		"G(a,b). G(b,c). G(c,d). N(a). N(b). N(c). N(d).",
		// Facts asserted on intensional relations of every group kind.
		"G(a,b). G(b,a). G(b,c). N(a). N(c). Win(c). Lose(a). Reach(b). Iso(b). T(c,a).",
	} {
		sameModel(t, facts, p, parser.MustParseFacts(facts, u), u)
	}
	w := sameModel(t, "gen.Game", p, gen.Merge(gen.Game(u, "G", 20, 30, 7), gen.Unary(u, "N", 20)), u)
	if w.Total() {
		t.Fatalf("the random game should leave some Win facts unknown")
	}
}

// maintainedGame plays Win over the moves themselves rather than their
// closure: on a random game it takes several maintained rounds, most of
// them deleting from the over-estimate, where Win over the closure
// converges in its first round. Lose reads Win's unknown facts.
const maintainedGame = `
	Win(X) :- G(X,Y), !Win(Y).
	Lose(X) :- N(X), !Win(X).
`

// maintainedGroups are cyclic groups whose rounds after the first reach
// the corners of maintaining both estimates. Each row names the change
// to the maintenance that it fails on.
var maintainedGroups = []struct {
	name, program string
	facts         []string
}{
	{
		// P(a) loses !Q(a) and !R(a) in the same round. Fails when the
		// over side's seed reads the other negative literal against the
		// grown under-estimate: then neither pinning emits P(a).
		"two literals lost at once", `
			P(X) :- N(X), !Q(X), !R(X).
			Q(X) :- M(X), !W(X).
			R(X) :- M(X), !W(X).
			W(X) :- K(X), !P(X).`,
		[]string{"N(a). M(a).", "N(a). M(a). N(b). K(b). M(c). K(c)."},
	},
	{
		// Y is bound by the negative literal only, so the checks range it
		// over the active domain. Fails when the deletion step is given
		// no domain: every P fact it checks is then deleted.
		"variable bound by a negative literal", `
			P(X) :- N(X), !Q(X,Y).
			Q(X,Y) :- E(X,Y), !P(Y).`,
		// P(a) is possible but not true in the first round, and checked in
		// the second, when Q(a,b) is true: Q(a,a) proves it.
		[]string{"E(a,a). E(a,b). N(a).", "E(a,a). E(a,b). E(a,c). E(b,c). E(c,a). N(a). N(b)."},
	},
	{
		// R also recurses positively: a deletion takes several waves, and
		// a proof found late saturates forward, its firings' negative
		// literals read against the under-estimate. Fails when those
		// plans read the over-estimate instead.
		"positive recursion inside", `
			R(X) :- E(X,Y), R(Y), !S(X).
			S(X) :- E(X,Y), !R(Y).`,
		[]string{
			"E(d,e). E(f,d). E(f,g). E(h,f). E(i,h). E(i,j). E(j,i). E(j,d). R(e).",
			"E(d,e). E(f,d). E(f,g). E(h,f). E(i,h). E(h,i). E(i,j). E(j,k). E(k,j). E(k,d). R(e).",
		},
	},
}

func TestWellFoundedMatchesReferenceMaintained(t *testing.T) {
	u := value.New()
	w := sameModel(t, "gen.Game", parser.MustParse(maintainedGame, u), gameInput(u), u)
	if w.Rounds < 6 {
		t.Errorf("the game: %d rounds, want several maintained ones", w.Rounds)
	}
	for _, g := range maintainedGroups {
		u := value.New()
		p := parser.MustParse(g.program, u)
		for _, facts := range g.facts {
			w := sameModel(t, g.name+": "+facts, p, parser.MustParseFacts(facts, u), u)
			if w.Rounds < 4 {
				t.Errorf("%s: %s: %d rounds, want a maintained round after the first two", g.name, facts, w.Rounds)
			}
		}
	}
}

// cancelAfter cancels its context when the n-th stage ends.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Emit(e trace.Event) {
	if e.Ev == trace.EvEnd && e.Span == trace.SpanStage {
		if c.n--; c.n == 0 {
			c.cancel()
		}
	}
}

// gammaOf records the gamma phase each stage runs in (0: none).
type gammaOf struct {
	cur    int
	stages []int
}

func (g *gammaOf) Emit(e trace.Event) {
	switch {
	case e.Span == trace.SpanStratum && e.Ev == trace.EvBegin && e.Name == "gamma":
		g.cur = e.Stratum
	case e.Span == trace.SpanStratum && e.Ev == trace.EvEnd:
		g.cur = 0
	case e.Span == trace.SpanStage && e.Ev == trace.EvEnd:
		g.stages = append(g.stages, g.cur)
	}
}

// gameInput is the random game the interrupted runs play: moves G and
// the positions N.
func gameInput(u *value.Universe) *tuple.Instance {
	return gen.Merge(gen.Game(u, "G", 20, 30, 7), gen.Unary(u, "N", 20))
}

// TestWellFoundedInterrupted: a context cancelled before any stage or
// after any one of them interrupts the run and still leaves True inside
// Possible, whichever kind of group the run stops in. On the maintained
// game the stops include the stages of Win's maintained rounds: the
// deletion waves of its over-estimate and the seeded runs of its
// under-estimate.
func TestWellFoundedInterrupted(t *testing.T) {
	for _, c := range []struct {
		name, program string
		after         int  // the gamma phases of the groups after Win
		maintained    bool // whether Win has rounds after its first
	}{
		{"hand-written groups", handWrittenGroups, 4, false}, // Lose and Reach
		{"maintained game", maintainedGame, 2, true},         // Lose
	} {
		u := value.New()
		p, in := parser.MustParse(c.program, u), gameInput(u)
		phases := &gammaOf{}
		full, err := EvalWellFounded(p, in, u, &Options{Stats: stats.New(), Tracer: phases})
		if err != nil {
			t.Fatal(err)
		}
		// Win's gammas come first, its first round's two whole-group runs
		// before the maintained ones.
		last, maintained, deleting := slices.Max(phases.stages)-c.after, 0, 0
		for i, g := range phases.stages {
			if g >= 3 && g <= last {
				maintained++
				if full.Stats.PerStage[i].Delta < 0 {
					deleting++
				}
			}
		}
		if (maintained > 0) != c.maintained || (c.maintained && deleting == 0) {
			t.Fatalf("%s: %d stages, %d of them in Win's maintained rounds, %d deleting", c.name, full.Stats.Stages, maintained, deleting)
		}
		for stop := 0; stop < full.Stats.Stages; stop++ {
			ctx, cancel := context.WithCancel(context.Background())
			if stop == 0 {
				cancel()
			}
			w, err := EvalWellFounded(p, in, u, &Options{Ctx: ctx, Tracer: &cancelAfter{stop, cancel}})
			cancel()
			if !engine.IsInterrupt(err) {
				t.Fatalf("%s: cancelled after %d stages: err = %v, want an interrupt", c.name, stop, err)
			}
			w.True.EachRel(func(name string, r *tuple.Relation) {
				r.Each(func(tp tuple.Tuple) bool {
					if !w.Possible.Has(name, tp) {
						t.Fatalf("%s: cancelled after %d stages: %s%s is true but not possible", c.name, stop, name, tp.String(u))
					}
					return true
				})
			})
		}
	}
}
