package eval

import (
	"fmt"
	"sort"
	"testing"

	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// countFirings enumerates the rule under ctx and returns the number
// of emitted bindings.
func countFirings(r *Rule, ctx *Ctx) int {
	n := 0
	r.Enumerate(ctx, func(Binding) bool {
		n++
		return true
	})
	return n
}

// TestAdomCacheStableAcrossStages pins the satellite fix: a fixpoint
// loop that consults the domain every stage but only mutates the
// instance in some of them must pay one recompute per actual change,
// independent of the stage count.
func TestAdomCacheStableAcrossStages(t *testing.T) {
	u := value.New()
	in := parser.MustParseFacts(`G(a,b). G(b,c).`, u)
	c := NewAdomCache(u, nil, true)

	base := c.Domain(in)
	want := ActiveDomain(u, nil, in)
	if fmt.Sprint(base) != fmt.Sprint(want) {
		t.Fatalf("cached domain %v != ActiveDomain %v", base, want)
	}
	for i := 0; i < 50; i++ {
		c.Domain(in)
	}
	if got := c.Recomputes(); got != 1 {
		t.Fatalf("50 unchanged stages cost %d recomputes, want 1", got)
	}

	// A real change must invalidate...
	in.Insert("G", tuple.Tuple{u.Sym("c"), u.Sym("d")})
	after := c.Domain(in)
	if fmt.Sprint(after) != fmt.Sprint(ActiveDomain(u, nil, in)) {
		t.Fatalf("domain stale after insert")
	}
	if got := c.Recomputes(); got != 2 {
		t.Fatalf("one change cost %d recomputes, want 2 total", got)
	}
	// ...and stability must return afterwards.
	for i := 0; i < 50; i++ {
		c.Domain(in)
	}
	if got := c.Recomputes(); got != 2 {
		t.Fatalf("post-change stages cost %d recomputes, want 2 total", got)
	}
}

// TestAdomCacheSeesDeleteReinsert guards the fingerprint in the stamp:
// a delete+reinsert cycle that restores the same tuple set must hit the
// cache, while a delete that removes a value's last occurrence must
// recompute (generation and cardinality alone would miss it).
func TestAdomCacheSeesDeleteReinsert(t *testing.T) {
	u := value.New()
	in := parser.MustParseFacts(`P(a). P(b).`, u)
	c := NewAdomCache(u, nil, true)
	c.Domain(in)

	b := tuple.Tuple{u.Sym("b")}
	in.Delete("P", b)
	d1 := c.Domain(in)
	if fmt.Sprint(d1) != fmt.Sprint(ActiveDomain(u, nil, in)) {
		t.Fatalf("stale domain after delete: %v", d1)
	}
	in.Insert("P", b)
	d2 := c.Domain(in)
	if fmt.Sprint(d2) != fmt.Sprint(ActiveDomain(u, nil, in)) {
		t.Fatalf("stale domain after reinsert: %v", d2)
	}
}

// TestAdomCacheBuildsNothingUnread: a cache for rules that read no
// domain returns nil and never sorts one.
func TestAdomCacheBuildsNothingUnread(t *testing.T) {
	u := value.New()
	in := parser.MustParseFacts(`G(a,b). G(b,c).`, u)
	var rules []*Rule
	for _, src := range []string{`T(X,Y) :- G(X,Z), G(Z,Y), !G(X,Y).`, `H(X) :- G(X,Y), !G(Y,X).`} {
		r, err := parser.ParseRule(src, u)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := Compile(r)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, cr)
	}
	if ReadsDomain(rules) {
		t.Fatal("rules whose variables all occur in positive atoms read the domain")
	}
	c := NewAdomCache(u, nil, ReadsDomain(rules))
	if d := c.Domain(in); d != nil || c.Recomputes() != 0 {
		t.Fatalf("domain %v after %d recomputes, want nil after none", d, c.Recomputes())
	}
}

// TestPlanCacheSharing checks that a shared cache actually serves the
// second evaluation of the same rule shape from memory.
func TestPlanCacheSharing(t *testing.T) {
	u := value.New()
	facts := `A(a). A(b). B(a,x). B(b,y). C(x). C(y).`
	mkRule := func() *Rule {
		r, err := parser.ParseRule(`Q(X,Z) :- A(X), B(X,Z), C(Z).`, u)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := Compile(r)
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	in := parser.MustParseFacts(facts, u)
	adom := ActiveDomain(u, nil, in)
	cache := NewPlanCache()

	results := func(cr *Rule) []string {
		var out []string
		cr.Enumerate(&Ctx{In: in, Adom: adom, DeltaLit: -1, Plans: cache}, func(b Binding) bool {
			for _, f := range cr.HeadFacts(b, nil) {
				out = append(out, f.Pred+f.Tuple.Key())
			}
			return true
		})
		sort.Strings(out)
		return out
	}
	first := results(mkRule())
	st := cache.Stats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("first evaluation did not populate the cache: %+v", st)
	}
	second := results(mkRule())
	st2 := cache.Stats()
	if st2.Hits <= st.Hits {
		t.Fatalf("second evaluation missed the shared cache: %+v -> %+v", st, st2)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("cached plan changed results: %v vs %v", first, second)
	}
}

// TestPlanCacheKeepsHeadPinnedVariantsApart: the cache keys on the rule
// body, so two rules with one body and different heads must not share a
// head-pinned variant's plan, whose first step matches the head.
func TestPlanCacheKeepsHeadPinnedVariantsApart(t *testing.T) {
	u := value.New()
	in := parser.MustParseFacts(`E(a,b). F(b,c). E(c,d). F(d,e).`, u)
	cache := NewPlanCache()
	derives := func(rule, fact string) []string {
		r, err := parser.ParseRule(rule, u)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := Compile(r)
		if err != nil {
			t.Fatal(err)
		}
		v := cr.Delta(len(r.Body))
		f := parser.MustParseFacts(fact, u)
		var out []string
		f.EachRel(func(_ string, rel *tuple.Relation) {
			rel.Each(func(tp tuple.Tuple) bool {
				ctx := &Ctx{In: in, Adom: ActiveDomain(u, nil, in), DeltaLit: v.DeltaLit(), DeltaFact: tp, Plans: cache}
				v.Enumerate(ctx, func(b Binding) bool {
					for _, h := range v.HeadFacts(b, nil) {
						out = append(out, h.Pred+h.Tuple.String(u))
					}
					return true
				})
				return true
			})
		})
		return out
	}
	if got := derives(`A(X) :- E(X,Y), F(Y,Z).`, `A(a).`); fmt.Sprint(got) != "[A(a)]" {
		t.Fatalf("A(a) is derived by %v", got)
	}
	if got := derives(`B(Z) :- E(X,Y), F(Y,Z).`, `B(c).`); fmt.Sprint(got) != "[B(c)]" {
		t.Fatalf("B(c) is derived by %v: the variant ran A's plan", got)
	}
}

// TestPlannerJoinsTheConstantBearingLiteralFirst: the join order is
// decided here and nowhere else (no optimizer pass orders a body). With
// the planner on, the literal a constant binds goes first wherever the
// text puts it; with it off (the LiteralOrder reference path) the
// baseline schedule runs.
func TestPlannerJoinsTheConstantBearingLiteralFirst(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`p(X) :- e(X,Y), f(Y,Z), label(Z,red).`, u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	in := parser.MustParseFacts(`e(a,b). e(d,e). e(g,h). f(b,c). f(e,k). f(h,l). label(c,red). label(k,blue). label(l,blue).`, u)
	firstJoin := func(ctx *Ctx) string {
		steps, _ := cr.stepsFor(ctx, ctx.table())
		for _, st := range steps {
			if st.kind == stepMatch {
				return cr.prog.preds[st.pred]
			}
		}
		t.Fatal("no join in the schedule")
		return ""
	}
	if pred := firstJoin(&Ctx{In: in, DeltaLit: -1}); pred != "label" {
		t.Fatalf("planner joins %s first, want the constant-bearing label", pred)
	}
	noPlan := &Ctx{In: in, DeltaLit: -1, NoPlan: true}
	if steps, _ := cr.stepsFor(noPlan, noPlan.table()); &steps[0] != &cr.steps[0] {
		t.Fatal("NoPlan still substituted a planner schedule")
	}
	if n := countFirings(cr, &Ctx{In: in, DeltaLit: -1}); n != 1 {
		t.Fatalf("%d firings, want 1", n)
	}
}

// TestVariantKeepsItsPlanAcrossDeltaDecades: the planner places a delta
// variant's pinned literal first without reading its size, so its
// signature leaves that literal out, and a variant fired over a delta
// that alternates between 5 and 50 facts keeps the schedule its first
// stage chose instead of choosing it again at every flip.
func TestVariantKeepsItsPlanAcrossDeltaDecades(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule("T(X,Y) :- T(X,Z), G(Z,Y), H(Y).", u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	v := cr.Delta(0)
	in := tuple.NewInstance()
	for i := range 30 {
		in.Insert("T", tuple.Tuple{u.Int(int64(i)), u.Int(int64(i + 1))})
		in.Insert("G", tuple.Tuple{u.Int(int64(i)), u.Int(int64(i % 3))})
	}
	for i := range 3 {
		in.Insert("H", tuple.Tuple{u.Int(int64(i))})
	}
	deltas := [2]*tuple.Instance{tuple.NewInstance(), tuple.NewInstance()}
	for i := range 50 {
		if i < 5 {
			deltas[0].Insert("T", tuple.Tuple{u.Int(int64(i)), u.Int(int64(i + 2))})
		}
		deltas[1].Insert("T", tuple.Tuple{u.Int(int64(i)), u.Int(int64(i + 2))})
	}
	ctx := &Ctx{In: in, Delta: deltas[0], DeltaLit: v.DeltaLit()}
	first, _ := v.stepsFor(ctx, ctx.table())
	for stage := 1; stage <= 4; stage++ {
		ctx.Delta = deltas[stage%2]
		ctx.NewStage()
		if steps, _ := v.stepsFor(ctx, ctx.table()); &steps[0] != &first[0] {
			t.Fatalf("stage %d, a delta of %d facts: the variant chose its schedule again", stage, ctx.Delta.Facts())
		}
	}
	if n := countFirings(v, ctx); n == 0 {
		t.Fatal("the variant fires nothing over the delta")
	}
}
