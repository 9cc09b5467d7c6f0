package nondet

import (
	"errors"
	"strings"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// orientationSrc is the program of Section 5's introduction: compute
// an orientation of G by removing one edge of every 2-cycle.
const orientationSrc = `!G(X,Y) :- G(X,Y), G(Y,X).`

func sortedRel(in *tuple.Instance, u *value.Universe, pred string) string {
	r := in.Relation(pred)
	if r == nil {
		return ""
	}
	var out []string
	for _, t := range r.SortedTuples(u) {
		out = append(out, t.String(u))
	}
	return strings.Join(out, " ")
}

func TestOrientationEffects(t *testing.T) {
	u := value.New()
	p := parser.MustParse(orientationSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,a).`, u)
	eff, err := Effects(p, ast.DialectNDatalogNegNeg, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.States) != 2 {
		t.Fatalf("eff has %d states, want 2", len(eff.States))
	}
	got := map[string]bool{}
	for _, s := range eff.States {
		got[sortedRel(s, u, "G")] = true
	}
	if !got["(a,b)"] || !got["(b,a)"] {
		t.Fatalf("orientations wrong: %v", got)
	}
	// eff(P) is exactly the set of orientations: 2^k states for k
	// 2-cycles, whatever plain edges sit beside them.
	in = parser.MustParseFacts(`G(a,b). G(b,a). G(c,d). G(d,c). G(e,f). G(g,h). G(h,g).`, u)
	if eff, err = Effects(p, ast.DialectNDatalogNegNeg, in, u, nil); err != nil {
		t.Fatal(err)
	}
	if len(eff.States) != 8 {
		t.Fatalf("eff has %d states on three 2-cycles, want 8", len(eff.States))
	}
}

func TestOrientationRunValidAndReproducible(t *testing.T) {
	u := value.New()
	p := parser.MustParse(orientationSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,a). G(c,d). G(d,c). G(e,f).`, u)
	seenBoth := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		res, err := Run(p, ast.DialectNDatalogNegNeg, in, u, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := res.Out.Relation("G")
		// Every run is a valid orientation: no 2-cycles remain, the
		// plain edge survives, and exactly one edge per former cycle.
		g.Each(func(tp tuple.Tuple) bool {
			if g.Contains(tuple.Tuple{tp[1], tp[0]}) && tp[0] != tp[1] {
				t.Fatalf("seed %d: 2-cycle survived", seed)
			}
			return true
		})
		if !res.Out.Has("G", tuple.Tuple{u.Sym("e"), u.Sym("f")}) {
			t.Fatalf("seed %d: uncycled edge removed", seed)
		}
		if g.Len() != 3 {
			t.Fatalf("seed %d: %d edges, want 3", seed, g.Len())
		}
		seenBoth[sortedRel(res.Out, u, "G")] = true

		// Reproducibility.
		res2, err := Run(p, ast.DialectNDatalogNegNeg, in, u, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Out.Equal(res2.Out) {
			t.Fatalf("seed %d not reproducible", seed)
		}
	}
	if len(seenBoth) < 2 {
		t.Fatalf("20 seeds produced only %d distinct orientations", len(seenBoth))
	}
}

func TestExample54DifferenceNDatalogNegNeg(t *testing.T) {
	// P − πA(Q) via the N-Datalog¬¬ program of Section 5.2.
	u := value.New()
	p := parser.MustParse(`
		Answer(X) :- P(X).
		!Answer(X), !P(X) :- Q(X,Y).
	`, u)
	in := parser.MustParseFacts(`P(a). P(b). P(c). Q(a,d). Q(b,e). Q(x,y).`, u)
	eff, err := Effects(p, ast.DialectNDatalogNegNeg, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eff.Deterministic() {
		t.Fatalf("difference program should be deterministic, got %d states", len(eff.States))
	}
	if got := sortedRel(eff.States[0], u, "Answer"); got != "(c)" {
		t.Fatalf("Answer = %q, want (c)", got)
	}
}

func TestExample55Forall(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`Answer(X) :- forall Y (P(X), !Q(X,Y)).`, u)
	in := parser.MustParseFacts(`P(a). P(b). P(c). Q(a,d). Q(b,e).`, u)
	eff, err := Effects(p, ast.DialectNDatalogAll, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eff.Deterministic() {
		t.Fatalf("∀ difference program should be deterministic")
	}
	if got := sortedRel(eff.States[0], u, "Answer"); got != "(c)" {
		t.Fatalf("Answer = %q, want (c)", got)
	}
}

func TestExample55Bottom(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`
		Proj(X) :- !DoneWithProj, Q(X,Y).
		DoneWithProj.
		bottom :- DoneWithProj, Q(X,Y), !Proj(X).
		Answer(X) :- DoneWithProj, P(X), !Proj(X).
	`, u)
	in := parser.MustParseFacts(`P(a). P(b). P(c). Q(a,d). Q(b,e).`, u)
	eff, err := Effects(p, ast.DialectNDatalogBot, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eff.Deterministic() {
		t.Fatalf("⊥ difference program should be deterministic, got %d states", len(eff.States))
	}
	if got := sortedRel(eff.States[0], u, "Answer"); got != "(c)" {
		t.Fatalf("Answer = %q, want (c)", got)
	}
}

func TestBottomAbortsSampledRuns(t *testing.T) {
	// A program where some schedules derive ⊥ but successful ones
	// exist: SampleSuccessful finds one.
	u := value.New()
	p := parser.MustParse(`
		Proj(X) :- !Done, Q(X,Y).
		Done.
		bottom :- Done, Q(X,Y), !Proj(X).
		Answer(X) :- Done, P(X), !Proj(X).
	`, u)
	in := parser.MustParseFacts(`P(a). P(b). Q(a,c).`, u)
	res, err := SampleSuccessful(p, ast.DialectNDatalogBot, in, u, 1, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRel(res.Out, u, "Answer"); got != "(b)" {
		t.Fatalf("Answer = %q, want (b)", got)
	}
}

func TestAlwaysBottom(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`bottom :- P(X).`, u)
	in := parser.MustParseFacts(`P(a).`, u)
	eff, err := Effects(p, ast.DialectNDatalogBot, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.States) != 0 {
		t.Fatalf("eff should be empty when ⊥ is unavoidable")
	}
	if _, err := SampleSuccessful(p, ast.DialectNDatalogBot, in, u, 1, 5, nil); !errors.Is(err, ErrAllAborted) {
		t.Fatalf("err = %v, want ErrAllAborted", err)
	}
	if _, ok := eff.Poss(); ok {
		t.Fatalf("Poss defined on empty effect")
	}
	if _, ok := eff.Cert(); ok {
		t.Fatalf("Cert defined on empty effect")
	}
}

func TestChoiceProgramPossCert(t *testing.T) {
	// Pick exactly one element of P: eff has one state per element;
	// poss(Chosen) = P, cert(Chosen) = ∅ (Definition 5.10).
	u := value.New()
	p := parser.MustParse(`Some, Chosen(X) :- P(X), !Some.`, u)
	in := parser.MustParseFacts(`P(a). P(b). P(c).`, u)
	eff, err := Effects(p, ast.DialectNDatalogNegNeg, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.States) != 3 {
		t.Fatalf("eff = %d states, want 3", len(eff.States))
	}
	poss, ok := eff.Poss()
	if !ok {
		t.Fatal("poss undefined")
	}
	if got := sortedRel(poss, u, "Chosen"); got != "(a) (b) (c)" {
		t.Fatalf("poss(Chosen) = %q", got)
	}
	cert, ok := eff.Cert()
	if !ok {
		t.Fatal("cert undefined")
	}
	if cert.Relation("Chosen") != nil && cert.Relation("Chosen").Len() != 0 {
		t.Fatalf("cert(Chosen) = %q, want empty", sortedRel(cert, u, "Chosen"))
	}
	// Input facts are certain (they persist in every terminal state).
	if got := sortedRel(cert, u, "P"); got != "(a) (b) (c)" {
		t.Fatalf("cert(P) = %q", got)
	}
}

func TestNDatalogNegCannotExpressDifferenceConstruction(t *testing.T) {
	// Example 5.4 shows the two-rule composition T(X) :- Q(X,Y);
	// Answer(X) :- P(X), !T(X) does NOT compute P − πA(Q) under the
	// one-at-a-time semantics: firing Answer before T is complete
	// leaves wrong answers. Exhibit a schedule (a terminal state)
	// with a wrong answer.
	u := value.New()
	p := parser.MustParse(`
		T(X) :- Q(X,Y).
		Answer(X) :- P(X), !T(X).
	`, u)
	in := parser.MustParseFacts(`P(a). P(b). Q(a,c).`, u)
	eff, err := Effects(p, ast.DialectNDatalogNeg, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	correct := "(b)"
	wrong := false
	for _, s := range eff.States {
		if sortedRel(s, u, "Answer") != correct {
			wrong = true
		}
	}
	if !wrong {
		t.Fatalf("expected some terminal state with a wrong answer (N-Datalog¬'s weakness, Example 5.4)")
	}
}

func TestRunStepLimit(t *testing.T) {
	// A program that flips a fact forever: P present -> delete, absent
	// -> insert. Every state has a successor, so sampled runs never
	// terminate and the step limit fires.
	u := value.New()
	p := parser.MustParse(`
		!P(X) :- P(X), M(X).
		P(X) :- !P(X), M(X).
	`, u)
	in := parser.MustParseFacts(`M(a).`, u)
	_, err := Run(p, ast.DialectNDatalogNegNeg, in, u, 1, &Options{MaxStages: 50})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

func TestEffectsStateLimit(t *testing.T) {
	u := value.New()
	// Freely toggle many facts: the state space explodes.
	p := parser.MustParse(`
		On(X) :- M(X), !On(X).
		!On(X) :- On(X).
	`, u)
	in := parser.MustParseFacts(`M(a). M(b). M(c). M(d). M(e). M(f).`, u)
	_, err := Effects(p, ast.DialectNDatalogNegNeg, in, u, &Options{MaxStates: 8})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
}

func TestDialectValidation(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`!P(X) :- P(X).`, u)
	if _, err := Run(p, ast.DialectNDatalogNeg, tuple.NewInstance(), u, 1, nil); err == nil {
		t.Fatalf("head negation accepted by N-Datalog¬")
	}
	if _, err := Run(p, ast.DialectDatalogNeg, tuple.NewInstance(), u, 1, nil); err == nil {
		t.Fatalf("deterministic dialect accepted by nondet engine")
	}
}

func TestEffectsOfTerminalInput(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`T(X,Y) :- G(X,Y).`, u)
	in := parser.MustParseFacts(`G(a,b).`, u)
	eff, err := Effects(p, ast.DialectNDatalogNeg, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eff.Deterministic() {
		t.Fatalf("copy program should be deterministic")
	}
	if got := sortedRel(eff.States[0], u, "T"); got != "(a,b)" {
		t.Fatalf("T = %q", got)
	}
	// One-at-a-time firing still reaches the fixpoint.
	res, err := Run(p, ast.DialectNDatalogNeg, in, u, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Out.Equal(eff.States[0]) {
		t.Fatalf("run disagrees with unique effect")
	}
}

func TestEqualityInBodies(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`Pair(X,Y) :- P(X), P(Y), X != Y.`, u)
	in := parser.MustParseFacts(`P(a). P(b).`, u)
	eff, err := Effects(p, ast.DialectNDatalogNeg, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eff.Deterministic() {
		t.Fatalf("want deterministic")
	}
	if got := sortedRel(eff.States[0], u, "Pair"); got != "(a,b) (b,a)" {
		t.Fatalf("Pair = %q", got)
	}
}
