package eval

import (
	"runtime"
	"testing"

	"unchained/internal/parser"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
	"unchained/programs"
)

// chainClosure returns the n-chain G(i,i+1) with its transitive
// closure T, and the compiled recursive rule of TC.
func chainClosure(t *testing.T, n int) (*Rule, *Ctx) {
	t.Helper()
	u := value.New()
	in := tuple.NewInstance()
	node := make([]value.Value, n)
	for i := range node {
		node[i] = u.Int(int64(i))
	}
	for i := 0; i+1 < n; i++ {
		in.Insert("G", tuple.Tuple{node[i], node[i+1]})
		for j := i + 1; j < n; j++ {
			in.Insert("T", tuple.Tuple{node[i], node[j]})
		}
	}
	r, err := parser.ParseRule("T(X,Y) :- G(X,Z), T(Z,Y).", u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	return cr, &Ctx{In: in, Adom: ActiveDomain(u, nil, in)}
}

// The enumerations under one context share the Scratch the first one
// made (a context without a Buf gets one), with the schedule it chose:
// the next ones allocate nothing, per call or per valuation. When each
// call allocated its binding buffer and its cursors, they read 2.
func TestEnumerateAllocatesPerCallNotPerBinding(t *testing.T) {
	for _, n := range []int{16, 256} {
		cr, ctx := chainClosure(t, n)
		bindings := 0
		got := testing.AllocsPerRun(5, func() {
			bindings = 0
			cr.Enumerate(ctx, func(Binding) bool { bindings++; return true })
		})
		if want := (n - 1) * (n - 2) / 2; bindings != want {
			t.Fatalf("n=%d: %d bindings, want %d", n, bindings, want)
		}
		if got != 0 {
			t.Errorf("n=%d: Enumerate allocates %.0f times per call over %d bindings, want 0", n, got, bindings)
		}
	}
}

// Firing into a staging set materializes no fact: the head tuples are
// scratch, and the set copies them into rows that grow by doubling.
func TestFireIntoStagingAllocatesOnlyGrowth(t *testing.T) {
	cr, ctx := chainClosure(t, 256)
	firings := 0
	got := testing.AllocsPerRun(5, func() {
		st := NewStaging(tuple.NewInstance()) // no T to find: every firing stages its fact
		firings = 0
		cr.Fire(ctx, -1, nil, func(f Fact) bool { firings++; return st.Emit(f) })
		if n := st.Fold(); n != 255*254/2 || st.Delta.Facts() != n {
			t.Fatalf("staged %d facts, %d in the delta", n, st.Delta.Facts())
		}
	})
	if per := got / float64(firings); per > 0.1 {
		t.Errorf("Fire allocates %.3f times per firing over %d firings, want <= 0.1", per, firings)
	}
}

// Firing under a context with a Buf allocates nothing, whatever the
// rule's heads: the binding, the probe patterns, the relation table, the
// head scratch and the plan all come from the Buf.
func TestFireWithBufAllocatesNothing(t *testing.T) {
	cr, ctx := chainClosure(t, 64)
	u := value.New()
	r, err := parser.ParseRule("T(X,Y), U(Y,X,Z,Z,Y) :- G(X,Z), T(Z,Y).", u)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Buf = &Scratch{}
	for _, c := range []struct {
		name string
		rule *Rule
	}{{"one head of arity 2", cr}, {"two heads, one of arity 5", wide}} {
		facts := 0
		emit := func(Fact) bool { facts++; return true }
		c.rule.Fire(ctx, -1, nil, emit) // grows the Buf
		got := testing.AllocsPerRun(10, func() {
			facts = 0
			c.rule.Fire(ctx, -1, nil, emit)
		})
		if facts == 0 {
			t.Fatalf("%s: no firing", c.name)
		}
		if got != 0 {
			t.Errorf("%s: Fire allocates %.0f times per call with a Buf, want 0", c.name, got)
		}
	}
}

// A collector costs an enumeration nothing: the probe and scan tallies
// are fields of the enumeration's frame, flushed in one batch, and a
// reported plan's per-step counts are the Buf's. Filing a plan appends
// its text to the collector's one plan buffer and its entry to the plan
// list, so a run of reports allocates only the growth of those two;
// when each enumeration allocated its tally, and a report its counts and
// its string, 48 reports took 150 allocations.
func TestFireWithStatsAllocatesNothing(t *testing.T) {
	cr, ctx := chainClosure(t, 64)
	ctx.Buf, ctx.Stats = &Scratch{}, stats.New()
	emit := func(Fact) bool { return true }
	cr.Fire(ctx, -1, nil, emit) // grows the Buf, files the plan
	if got := testing.AllocsPerRun(10, func() { cr.Fire(ctx, -1, nil, emit) }); got != 0 {
		t.Errorf("Fire allocates %.0f times per call with a collector and no plan to file, want 0", got)
	}
	filed := len(ctx.Stats.Summary().Plans)
	const reports = 48
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reports {
		ctx.NewStage()
		ctx.table().pick(cr).emitted = 0 // the rule reports its plan at this stage again
		cr.Fire(ctx, -1, nil, emit)
	}
	runtime.ReadMemStats(&after)
	plans := ctx.Stats.Summary().Plans
	if n := len(plans) - filed; n != reports {
		t.Fatalf("%d plans filed, want %d", n, reports)
	}
	if want := "G#0 est=63 act=63 ⋈ T#1 est=12663 act=1953"; plans[len(plans)-1].Join != want {
		t.Errorf("plan %q, want %q", plans[len(plans)-1].Join, want)
	}
	// The list doubles from 8 to 64 entries; the 2.4 KB of text grows
	// from 512 bytes in four of append's steps.
	if got := after.Mallocs - before.Mallocs; got > 8 {
		t.Errorf("%d plan reports allocate %d times, want <= 8: the growth of the plan list and text", reports, got)
	}
}

// A schedule is not a compilation: a replan of Example 4.3's
// four-literal rule orders the steps of the compiled text again — the
// flags, the steps, the binds — where compiling the rule anew from the
// AST took 44 allocations. A delta variant the planner orders is its
// Rule alone: Delta schedules nothing the planner would replace (4 when
// it did).
func TestScheduleAllocations(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule("OldTExceptFinal(X,Y) :- T(X,Y), T(Xp,Zp), T(Zp,Yp), !T(Xp,Yp).", u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{In: parser.MustParseFacts("T(a,b). T(b,c). T(a,c).", u), DeltaLit: -1}
	tab := ctx.table()
	tab.sync(ctx, cr.prog)
	if got := testing.AllocsPerRun(10, func() { cr.schedule(-1, ctx, tab) }); got > 6 {
		t.Errorf("a replan allocates %.0f times, want <= 6", got)
	}
	if got := testing.AllocsPerRun(10, func() { cr.Delta(1) }); got > 1 {
		t.Errorf("a planned delta variant allocates %.0f times, want <= 1", got)
	}
}

// Compiling delayed_ct.dl and making its six delta variants allocates
// 36 times: the compiled storage, a Rule per variant, and the schedules
// of the two variants the planner leaves alone, the only ones Delta
// schedules (48 when it scheduled all six, and 156 when a compilation
// of the five rules alone interned variables in a map and every atom
// kept its own slices).
func TestCompileAllocations(t *testing.T) {
	u := value.New()
	p, err := parser.Parse(programs.Source("delayed_ct.dl"), u)
	if err != nil {
		t.Fatal(err)
	}
	variants := 0
	got := testing.AllocsPerRun(10, func() {
		rules, err := CompileProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		variants = 0
		for _, cr := range rules {
			for _, li := range cr.PositiveBodyLits() {
				if pred := cr.Src.Body[li].Atom.Pred; pred == "T" || pred == "OldT" {
					cr.Delta(li)
					variants++
				}
			}
		}
	})
	if variants != 6 {
		t.Fatalf("%d delta variants, want 6", variants)
	}
	if got > 36 {
		t.Errorf("compiling delayed_ct.dl with its delta variants allocates %.0f times, want <= 36", got)
	}
	t.Logf("compile + variants: %.0f allocations", got)
}
