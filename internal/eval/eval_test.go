package eval

import (
	"sort"
	"strings"
	"testing"

	"unchained/internal/parser"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// enumerate runs a single parsed rule against facts and returns the
// sorted rendered head facts (positive heads only unless neg).
func enumerate(t *testing.T, ruleSrc, factSrc string) (*value.Universe, []string) {
	t.Helper()
	u := value.New()
	r, err := parser.ParseRule(ruleSrc, u)
	if err != nil {
		t.Fatal(err)
	}
	in, err := parser.ParseFacts(factSrc, u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	prog := parser.MustParse(ruleSrc, u)
	ctx := &Ctx{In: in, Adom: ActiveDomain(u, prog.Constants(), in), DeltaLit: -1}
	var out []string
	cr.Enumerate(ctx, func(b Binding) bool {
		for _, f := range cr.HeadFacts(b, nil) {
			s := f.Pred + f.Tuple.String(u)
			if f.Neg {
				s = "!" + s
			}
			out = append(out, s)
		}
		return true
	})
	sort.Strings(out)
	return u, dedupeStr(out)
}

func dedupeStr(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func expect(t *testing.T, got []string, want ...string) {
	t.Helper()
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got  %v\nwant %v", got, want)
	}
}

func TestSimpleJoin(t *testing.T) {
	_, got := enumerate(t,
		`P(X,Z) :- G(X,Y), G(Y,Z).`,
		`G(a,b). G(b,c). G(c,d).`)
	expect(t, got, "P(a,c)", "P(b,d)")
}

func TestConstantInBody(t *testing.T) {
	_, got := enumerate(t,
		`P(Y) :- G(a,Y).`,
		`G(a,b). G(b,c). G(a,c).`)
	expect(t, got, "P(b)", "P(c)")
}

func TestRepeatedVariableInAtom(t *testing.T) {
	_, got := enumerate(t,
		`Loop(X) :- G(X,X).`,
		`G(a,a). G(a,b). G(c,c).`)
	expect(t, got, "Loop(a)", "Loop(c)")
}

func TestNegationBoundVars(t *testing.T) {
	_, got := enumerate(t,
		`P(X) :- Q(X), !R(X).`,
		`Q(a). Q(b). R(b).`)
	expect(t, got, "P(a)")
}

func TestNegationAdomEnumeration(t *testing.T) {
	// Head vars occur only in a negative literal: the paper's
	// semantics ranges them over the active domain.
	_, got := enumerate(t,
		`CT(X,Y) :- !T(X,Y).`,
		`T(a,b). P(c).`)
	want := []string{}
	for _, x := range []string{"a", "b", "c"} {
		for _, y := range []string{"a", "b", "c"} {
			if x == "a" && y == "b" {
				continue
			}
			want = append(want, "CT("+x+","+y+")")
		}
	}
	expect(t, got, want...)
}

func TestEqualityAssignAndTest(t *testing.T) {
	_, got := enumerate(t,
		`P(X,Y) :- Q(X), Y = X.`,
		`Q(a). Q(b).`)
	expect(t, got, "P(a,a)", "P(b,b)")

	_, got = enumerate(t,
		`P(X) :- Q(X), X != a.`,
		`Q(a). Q(b). Q(c).`)
	expect(t, got, "P(b)", "P(c)")

	_, got = enumerate(t,
		`P(X) :- Q(X), X = b.`,
		`Q(a). Q(b).`)
	expect(t, got, "P(b)")
}

func TestInequalityNeedsAdomForUnboundSide(t *testing.T) {
	// Y occurs only in an inequality: enumerated over adom.
	_, got := enumerate(t,
		`P(X,Y) :- Q(X), X != Y.`,
		`Q(a). Q(b).`)
	expect(t, got, "P(a,b)", "P(b,a)")
}

func TestEmptyBodyFires(t *testing.T) {
	_, got := enumerate(t, `Delay.`, `Q(a).`)
	expect(t, got, "Delay()")
}

func TestZeroAryBodyAtom(t *testing.T) {
	_, got := enumerate(t, `P(X) :- Delay, Q(X).`, `Q(a).`)
	expect(t, got) // Delay absent: no firing

	_, got = enumerate(t, `P(X) :- Delay, Q(X).`, `Q(a). Delay.`)
	expect(t, got, "P(a)")
}

func TestForallLiteral(t *testing.T) {
	// Answer(X) :- forall Y (P(X), !Q(X,Y)).  (Example 5.5)
	_, got := enumerate(t,
		`Answer(X) :- forall Y (P(X), !Q(X,Y)).`,
		`P(a). P(b). Q(a,c). R(c).`)
	// a has a Q-edge, so fails; b has none.
	expect(t, got, "Answer(b)")
}

func TestForallVacuousOnEmptyInner(t *testing.T) {
	// With P empty the inner conjunction fails for every Y, so no
	// firings at all; with Q empty it holds for all Y.
	_, got := enumerate(t,
		`Answer(X) :- forall Y (P(X), !Q(X,Y)).`,
		`R(a).`)
	expect(t, got)
}

func TestMultiHeadSharesBinding(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`A(X), !B(X) :- C(X).`, u)
	if err != nil {
		t.Fatal(err)
	}
	in := parser.MustParseFacts(`C(a).`, u)
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{In: in, Adom: ActiveDomain(u, nil, in), DeltaLit: -1}
	var facts []Fact
	cr.Enumerate(ctx, func(b Binding) bool {
		facts = append(facts, cr.HeadFacts(b, nil)...)
		return true
	})
	if len(facts) != 2 || facts[0].Neg || !facts[1].Neg {
		t.Fatalf("facts = %+v", facts)
	}
	if facts[0].Tuple[0] != facts[1].Tuple[0] {
		t.Fatalf("head atoms do not share the binding")
	}
}

func TestBottomHead(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`bottom :- P(X).`, u)
	if err != nil {
		t.Fatal(err)
	}
	in := parser.MustParseFacts(`P(a).`, u)
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{In: in, Adom: ActiveDomain(u, nil, in), DeltaLit: -1}
	hit := false
	cr.Enumerate(ctx, func(b Binding) bool {
		for _, f := range cr.HeadFacts(b, nil) {
			hit = hit || f.Bottom
		}
		return true
	})
	if !hit {
		t.Fatalf("⊥ head not emitted")
	}
}

func TestInventedValues(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`P(X,N) :- Q(X).`, u)
	if err != nil {
		t.Fatal(err)
	}
	in := parser.MustParseFacts(`Q(a). Q(b).`, u)
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.HeadOnlyVarIDs()) != 1 {
		t.Fatalf("head-only vars = %v", cr.HeadOnlyVarIDs())
	}
	ctx := &Ctx{In: in, Adom: ActiveDomain(u, nil, in), DeltaLit: -1}
	seen := map[value.Value]bool{}
	cr.Enumerate(ctx, func(b Binding) bool {
		fs := cr.HeadFacts(b, func(int) value.Value { return u.Fresh() })
		v := fs[0].Tuple[1]
		if !u.IsFresh(v) {
			t.Fatalf("second column not fresh: %v", v)
		}
		if seen[v] {
			t.Fatalf("fresh value reused across instantiations")
		}
		seen[v] = true
		return true
	})
	if len(seen) != 2 {
		t.Fatalf("expected 2 firings, got %d", len(seen))
	}
}

func TestDeltaTargeting(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`T(X,Y) :- G(X,Z), T(Z,Y).`, u)
	if err != nil {
		t.Fatal(err)
	}
	full := parser.MustParseFacts(`G(a,b). G(b,c). T(b,c). T(c,d).`, u)
	delta := parser.MustParseFacts(`T(c,d).`, u)
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	// The T body literal has index 1; matching it against the delta
	// restricts derivations to ones using T(c,d).
	ctx := &Ctx{In: full, Adom: ActiveDomain(u, nil, full), Delta: delta, DeltaLit: 1}
	var got []string
	cr.Enumerate(ctx, func(b Binding) bool {
		for _, f := range cr.HeadFacts(b, nil) {
			got = append(got, f.Pred+f.Tuple.String(u))
		}
		return true
	})
	sort.Strings(got)
	expect(t, got, "T(b,d)")
}

func TestScanModeMatchesIndexMode(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`P(X,Z) :- G(X,Y), G(Y,Z), !G(Z,X).`, u)
	if err != nil {
		t.Fatal(err)
	}
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,a). G(b,d). G(d,e).`, u)
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	run := func(scan bool) []string {
		ctx := &Ctx{In: in, Adom: ActiveDomain(u, nil, in), DeltaLit: -1, Scan: scan}
		var got []string
		cr.Enumerate(ctx, func(b Binding) bool {
			for _, f := range cr.HeadFacts(b, nil) {
				got = append(got, f.Pred+f.Tuple.String(u))
			}
			return true
		})
		sort.Strings(got)
		return got
	}
	a, b := run(false), run(true)
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatalf("index mode %v != scan mode %v", a, b)
	}
}

func TestEarlyStop(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`P(X) :- Q(X).`, u)
	if err != nil {
		t.Fatal(err)
	}
	in := parser.MustParseFacts(`Q(a). Q(b). Q(c).`, u)
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{In: in, Adom: ActiveDomain(u, nil, in), DeltaLit: -1}
	n := 0
	cr.Enumerate(ctx, func(b Binding) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop ignored: %d emits", n)
	}
}

func TestMissingRelationIsEmpty(t *testing.T) {
	_, got := enumerate(t, `P(X) :- Q(X), Missing(X).`, `Q(a).`)
	expect(t, got)
}

func TestActiveDomainSortedDeduped(t *testing.T) {
	u := value.New()
	in := tuple.NewInstance()
	a, b := u.Sym("b"), u.Sym("a")
	in.Insert("G", tuple.Tuple{a, b})
	in.Insert("G", tuple.Tuple{b, b})
	adom := ActiveDomain(u, []value.Value{u.Sym("c"), a}, in)
	if len(adom) != 3 {
		t.Fatalf("adom = %d values", len(adom))
	}
	for i := 1; i < len(adom); i++ {
		if u.Compare(adom[i-1], adom[i]) >= 0 {
			t.Fatalf("adom not strictly sorted")
		}
	}
}

func TestCompileProgramErrors(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`P(X) :- Q(X).`, u)
	if _, err := CompileProgram(p); err != nil {
		t.Fatal(err)
	}
}

func TestCartesianProductNoSharedVars(t *testing.T) {
	_, got := enumerate(t, `P(X,Y) :- Q(X), R(Y).`, `Q(a). Q(b). R(c).`)
	expect(t, got, "P(a,c)", "P(b,c)")
}

func TestForallWithEquality(t *testing.T) {
	// Holds only if every Y in adom equals itself and is in Q when
	// paired... here: every Y must satisfy Q(Y); true only when Q
	// covers the whole active domain.
	_, got := enumerate(t, `All :- forall Y (Q(Y)).`, `Q(a). Q(b).`)
	expect(t, got, "All()")

	_, got = enumerate(t, `All :- forall Y (Q(Y)).`, `Q(a). R(b).`)
	expect(t, got)
}

// TestStagingSkipsRederivedPredicates: a predicate whose facts the round
// only rederives gets no view in the delta, so the next round does not
// probe it, and Fold adds only the facts the round staged.
func TestStagingSkipsRederivedPredicates(t *testing.T) {
	u := value.New()
	a, b := u.Sym("a"), u.Sym("b")
	out := tuple.NewInstance()
	out.Insert("T", tuple.Tuple{a, b})
	st := NewStaging(out)
	if st.Emit(Fact{Pred: "T", Tuple: tuple.Tuple{a, b}}) {
		t.Fatal("a fact Out holds reported as absent")
	}
	if !st.Emit(Fact{Pred: "S", Tuple: tuple.Tuple{a}}) || st.Emit(Fact{Pred: "T", Tuple: tuple.Tuple{a, b}}) {
		t.Fatal("wrong absent/known report after a predicate switch")
	}
	if out.Has("S", tuple.Tuple{a}) {
		t.Fatal("a staged fact is visible before Fold")
	}
	if n := st.Fold(); n != 1 || !out.Has("S", tuple.Tuple{a}) {
		t.Fatalf("Fold = %d, S(a) in out = %v", n, out.Has("S", tuple.Tuple{a}))
	}
	if st.Delta.Relation("T") != nil || st.Delta.Relation("S").Len() != 1 {
		t.Fatalf("Delta = %q, want only S(a)", st.Delta.String(u))
	}
}

// TestEmptiedDeltaRelationIsNotProbed: a delta (Staging) names every
// relation the run has staged into, with an empty view where a relation
// added nothing last round. The literal a delta variant pins to one
// matches nothing and probes nothing, as when the delta lacks the
// relation, so a round's probe count does not depend on which relations
// added facts in earlier rounds.
func TestEmptiedDeltaRelationIsNotProbed(t *testing.T) {
	cr, base := chainClosure(t, 8)
	v := cr.Delta(1) // pinned at T(Z,Y)
	emptied := tuple.NewInstance()
	emptied.Insert("T", tuple.Tuple{base.Adom[0], base.Adom[1]})
	emptied.Relation("T").Clear()
	for name, delta := range map[string]*tuple.Instance{"lacking T": tuple.NewInstance(), "with T emptied": emptied} {
		col := stats.New()
		col.Reset("test", 0, nil)
		ctx := *base
		ctx.Stats, ctx.Delta, ctx.DeltaLit = col, delta, v.DeltaLit()
		n := 0
		v.Enumerate(&ctx, func(Binding) bool { n++; return true })
		if s := col.Summary(); n != 0 || s.IndexProbes+s.FullScans != 0 {
			t.Errorf("delta %s: %d bindings, %d probes and %d scans, want none", name, n, s.IndexProbes, s.FullScans)
		}
	}
}
