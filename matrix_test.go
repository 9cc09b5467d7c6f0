package unchained_test

// The execution-axes matrix. The paper defines each semantics without
// reference to join order, index versus scan, the optimizer level or a
// plan cache: these are implementation freedoms, and none of
// them may change the model. The matrix evaluates every deterministic
// shipped program (programs.Cases) under every deterministic semantics
// once with default options, and compares each axis row with that run.
// The tests below are views of one table: each names the rows it runs,
// as subtests program/semantics/axis. The query, view and
// nondeterministic drivers replay the same axes on their own entry
// points.

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"unchained"
	"unchained/internal/flight"
	"unchained/internal/magic"
	"unchained/internal/trace"
	"unchained/internal/tuple"
	"unchained/programs"
)

// semanticsNames are the deterministic engines the matrix runs each
// program under. Engines whose dialect rejects a program are still
// compared: both runs must fail with the same error.
var semanticsNames = []string{
	"minimal-model", "stratified", "well-founded", "semi-positive",
	"inflationary", "noninflationary", "invent",
}

// An axis is one implementation freedom, the options that exercise it.
type axis struct {
	opts []unchained.Opt
	// planCache gives the row a plan cache of its own in each test that
	// runs it, shared by all of the row's evaluations as the daemon
	// shares one across requests. The row fails unless the cache both
	// missed (planning reached it) and hit (a plan was reused).
	planCache bool
	// auto runs SemanticsAuto, under the one semantics the analyzer
	// recommends for the program.
	auto bool
	// views, when nonzero, attaches a fresh stats collector and tracer
	// to each run and holds their views to each other (checkViews); at
	// least views runs must produce a summary to check.
	views int
	// factsOnly compares the facts alone, and only where the default
	// run succeeds. Inlining legitimately shortens stage progressions,
	// and optimization can widen the accepted dialect: constant
	// propagation folds away an equality literal that the stratified
	// dialect check would reject (docs/OPTIMIZER.md). An optimized run
	// failing where the default succeeds is a divergence.
	factsOnly bool
	// bounded runs the row under a stage bound no case reaches (a case
	// with a bound of its own keeps it), so the facade's inline gate
	// (OptInlineSafe) leaves inlining out under every semantics.
	bounded bool
	// floor is the number of comparisons the row must make.
	floor int
}

// unreached is the stage bound of the bounded rows: above every stage
// count a terminating case reaches.
const unreached = 1 << 20

// axes is the table. The shards rows hold the deprecated WithParallel
// shim (parallel_shim_test.go) to changing nothing, alone and next to a
// plan cache and -O2; they go with the shim.
var axes = map[string]axis{
	"literal-order":       {opts: []unchained.Opt{unchained.WithLiteralOrder()}, floor: 84},
	"scan":                {opts: []unchained.Opt{unchained.WithScan()}, floor: 84},
	"shards=2":            {opts: []unchained.Opt{shards(2)}, floor: 84},
	"shards=8":            {opts: []unchained.Opt{shards(8)}, floor: 84},
	"plan-cache":          {planCache: true, floor: 84},
	"plan-cache+shards=4": {opts: []unchained.Opt{shards(4)}, planCache: true, floor: 84},
	"instrumented":        {views: 46, floor: 84},
	"auto":                {auto: true, floor: 12},
	"O2+bounded":          {opts: []unchained.Opt{unchained.WithOptimize(unchained.Opt2)}, bounded: true, factsOnly: true, floor: 46},
	"O2":                  {opts: []unchained.Opt{unchained.WithOptimize(unchained.Opt2)}, factsOnly: true, floor: 46},
	"O2+shards=4":         {opts: []unchained.Opt{unchained.WithOptimize(unchained.Opt2), shards(4)}, factsOnly: true, floor: 46},
}

// row looks an axis up by name, failing the test on a name the table
// does not have.
func row(t *testing.T, name string) axis {
	t.Helper()
	a, ok := axes[name]
	if !ok {
		t.Fatalf("no axis row %q", name)
	}
	return a
}

func TestPlannerMatchesLiteralOrderOracle(t *testing.T) { matrix(t, "literal-order") }
func TestScanMatchesIndexOracle(t *testing.T)           { matrix(t, "scan") }
func TestShardedMatchesSerialOracle(t *testing.T)       { matrix(t, "shards=2", "shards=8") }
func TestPlannerSharedCacheMatches(t *testing.T)        { matrix(t, "plan-cache") }
func TestShardedWithSharedPlanCache(t *testing.T)       { matrix(t, "plan-cache+shards=4") }
func TestEvaluationViewsAgree(t *testing.T)             { matrix(t, "instrumented") }
func TestAutoMatchesExplicit(t *testing.T)              { matrix(t, "auto") }
func TestOptimizerMatchesUnoptimizedOracle(t *testing.T) {
	matrix(t, "O2", "O2+bounded")
}
func TestOptimizerMatchesSharded(t *testing.T) { matrix(t, "O2+shards=4") }

// TestSharedPlanCacheKeysOnHeadVariables: two rules with one body and
// different head variables must not share a cached schedule. For A,
// Q(Y,Z) is an existential block (Z reaches no head), which its schedule
// cuts at the first Q fact; B reads Z, and with A's schedule it would
// lose B(a,e). Three evaluations share the cache, so the later ones hit.
func TestSharedPlanCacheKeysOnHeadVariables(t *testing.T) {
	s := unchained.NewSession()
	p := s.MustParse("A(X) :- P(X,Y), Q(Y,Z).\nB(X,Z) :- P(X,Y), Q(Y,Z).")
	in := s.MustFacts("P(a,b). P(a,c). Q(b,d). Q(b,e). Q(c,f).")
	cache := unchained.NewPlanCache()
	for i := 0; i < 3; i++ {
		res, err := s.Fork().EvalContext(context.Background(), p, in, unchained.MinimalModel, unchained.WithPlanCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		if a, b := res.Out.Relation("A").Len(), res.Out.Relation("B").Len(); a != 1 || b != 3 {
			t.Fatalf("evaluation %d: A holds %d facts and B %d, want 1 and 3", i+1, a, b)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("the shared cache was never hit: %+v", st)
	}
}

// load parses a shipped case into a fresh session, with the ordered
// database relations attached where the case asks for them.
func load(t testing.TB, c programs.Case) (*unchained.Session, *unchained.Program, *unchained.Instance) {
	t.Helper()
	s := unchained.NewSession()
	p, err := s.Parse(programs.Source(c.Program))
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.Facts(programs.Facts(c.Facts))
	if err != nil {
		t.Fatal(err)
	}
	if c.Order {
		in = s.WithOrder(in)
	}
	return s, p, in
}

// An outcome is one evaluation rendered for comparison: full holds the
// stage count, the facts and the error; facts holds the facts alone, or
// the error when the run failed.
type outcome struct {
	full, facts string
	failed      bool
}

func evalCase(t *testing.T, c programs.Case, sem unchained.Semantics, opts ...unchained.Opt) (outcome, *unchained.EvalResult) {
	t.Helper()
	s, p, in := load(t, c)
	res, err := s.EvalContext(context.Background(), p, in, sem, append([]unchained.Opt{unchained.WithMaxStages(c.MaxStages)}, opts...)...)
	var o outcome
	if res != nil && res.Out != nil {
		o.full = fmt.Sprintf("stages=%d\n%s", res.Stages, s.Format(res.Out))
	}
	if err != nil {
		o.full += "\nerror: " + err.Error()
		o.facts, o.failed = "error: "+err.Error(), true
	} else {
		o.facts = s.Format(res.Out)
	}
	return o, res
}

// defaults memoizes the default run of each (program, semantics) pair,
// so every test of the matrix compares with one evaluation.
var defaults = map[string]outcome{}

func defaultRun(t *testing.T, c programs.Case, sem string) outcome {
	key := c.Program + "/" + sem
	if o, ok := defaults[key]; ok {
		return o
	}
	o, _ := evalCase(t, c, unchained.SemanticsByName[sem])
	defaults[key] = o
	return o
}

// matrix runs the named axis rows over every deterministic shipped
// program under every deterministic semantics and fails unless each row
// made at least its floor of comparisons.
func matrix(t *testing.T, names ...string) {
	rows := map[string]axis{}
	caches := map[string]*unchained.PlanCache{}
	for _, name := range names {
		a := row(t, name)
		if a.planCache {
			caches[name] = unchained.NewPlanCache()
			a.opts = append(slices.Clip(a.opts), unchained.WithPlanCache(caches[name]))
		}
		rows[name] = a
	}
	ran, views := map[string]int{}, map[string]int{}
	for _, c := range programs.Cases {
		if !c.Deterministic() {
			continue
		}
		s, p, _ := load(t, c)
		recommended := s.Analyze(p).Semantics
		t.Run(c.Program, func(t *testing.T) {
			for _, sem := range semanticsNames {
				def := defaultRun(t, c, sem)
				var applies []string
				for _, name := range names {
					a := rows[name]
					if !(a.factsOnly && def.failed) && (!a.auto || sem == recommended) {
						applies = append(applies, name)
					}
				}
				if len(applies) == 0 {
					continue
				}
				t.Run(sem, func(t *testing.T) {
					for _, name := range applies {
						ran[name]++
						t.Run(name, func(t *testing.T) {
							a, run := rows[name], unchained.SemanticsByName[sem]
							if a.auto {
								run = unchained.SemanticsAuto
							}
							opts := a.opts
							if a.bounded && c.MaxStages == 0 {
								opts = append(slices.Clip(opts), unchained.WithMaxStages(unreached))
							}
							var stream *unchained.TraceRecorder
							if a.views > 0 {
								stream = unchained.NewTraceRecorder(1 << 16)
								opts = append(slices.Clip(opts), unchained.WithStats(unchained.NewStatsCollector()), unchained.WithTracer(stream))
							}
							o, res := evalCase(t, c, run, opts...)
							got, want := o.full, def.full
							if a.factsOnly {
								got, want = o.facts, def.facts
							}
							if got != want {
								t.Errorf("output diverges from the default run:\n--- %s ---\n%s\n--- default ---\n%s", name, got, want)
							}
							if stream != nil && res != nil && res.Stats != nil {
								views[name]++
								checkViews(t, res.Stats, stream)
							}
						})
					}
				})
			}
		})
	}
	for _, name := range names {
		a := rows[name]
		if ran[name] < a.floor {
			t.Errorf("row %s made %d comparisons, want at least %d", name, ran[name], a.floor)
		}
		if views[name] < a.views {
			t.Errorf("row %s: only %d runs produced a summary, want at least %d", name, views[name], a.views)
		}
		if st := caches[name].Stats(); a.planCache && (st.Misses == 0 || st.Hits == 0) {
			t.Errorf("row %s: its plan cache was not shared, planning must both fill and reuse it: %+v", name, st)
		}
	}
}

// checkViews holds the three views of one instrumented run to each
// other: the span stream (the collector's live mirror), the stats
// summary (the record of the evaluation) and the flight record (a view
// of the summary). They are one tally read three ways, so they agree
// exactly: engine name, stage count, counter totals and join plans.
func checkViews(t *testing.T, sum *unchained.StatsSummary, stream *unchained.TraceRecorder) {
	t.Helper()
	if stream.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", stream.Dropped())
	}
	// The stream, folded.
	var engines []string
	var plans []unchained.TraceEvent
	var staged, total trace.Event
	stages := 0
	for _, ev := range stream.Events() {
		switch {
		case ev.Span == trace.SpanEval:
			engines = append(engines, ev.Engine)
			if ev.Ev == trace.EvEnd {
				total = ev
			}
		case ev.Span == trace.SpanPlan:
			plans = append(plans, ev)
		case ev.Span == trace.SpanStage && ev.Ev == trace.EvEnd:
			// The confirmation pass is no stage, but its firings are
			// in the totals.
			if !ev.Confirm {
				stages++
			}
			staged.Firings += ev.Firings
			staged.Derived += ev.Derived
			staged.Rederived += ev.Rederived
			staged.Retractions += ev.Retractions
			staged.Conflicts += ev.Conflicts
			staged.Invented += ev.Invented
		}
	}

	// The record, as its readers see it: on the wire.
	rec := flight.NewRecord("id", "test", time.Now())
	rec.SetSummary(sum)
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Engine                           string
		Stages                           int
		Firings, Derived, Rederived      uint64
		Retractions, Conflicts, Invented uint64
		StageWallNS                      int64             `json:"stage_wall_ns"`
		PerStage                         []json.RawMessage `json:"per_stage"`
		Plans                            []struct{ Rule, Join string }
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}

	if len(engines) != 2 || engines[0] != sum.Engine || engines[1] != sum.Engine || wire.Engine != sum.Engine {
		t.Errorf("engine: stream %q, summary %q, record %q", engines, sum.Engine, wire.Engine)
	}
	if stages != sum.Stages || total.Stages != sum.Stages || wire.Stages != sum.Stages {
		t.Errorf("stages: %d stage spans, eval end %d, summary %d, record %d", stages, total.Stages, sum.Stages, wire.Stages)
	}
	type tally struct{ firings, derived, rederived, retractions, conflicts, invented uint64 }
	want := tally{sum.Firings, sum.Derived, sum.Rederived, sum.Retractions, sum.Conflicts, sum.Invented}
	for view, got := range map[string]tally{
		"Σ stage ends": {staged.Firings, staged.Derived, staged.Rederived, staged.Retractions, staged.Conflicts, staged.Invented},
		"eval end":     {total.Firings, total.Derived, total.Rederived, total.Retractions, total.Conflicts, total.Invented},
		"record":       {wire.Firings, wire.Derived, wire.Rederived, wire.Retractions, wire.Conflicts, wire.Invented},
	} {
		if got != want {
			t.Errorf("%s %+v, summary %+v", view, got, want)
		}
	}
	if wire.StageWallNS != sum.StageWallNS || len(wire.PerStage) != min(len(sum.PerStage), 64) {
		t.Errorf("record stage view: stage_wall_ns %d of %d, %d entries of %d", wire.StageWallNS, sum.StageWallNS, len(wire.PerStage), len(sum.PerStage))
	}
	if len(plans) > 64 {
		plans = plans[:64]
	}
	if len(sum.Plans) != len(plans) || len(wire.Plans) != len(plans) {
		t.Fatalf("plans: %d spans (capped at 64), summary %d, record %d", len(plans), len(sum.Plans), len(wire.Plans))
	}
	for i, ev := range plans {
		if sum.Plans[i].Rule != ev.Rule || sum.Plans[i].Join != ev.Name || wire.Plans[i].Join != ev.Name {
			t.Errorf("plan %d: span %s %q, summary %+v, record %+v", i, ev.Rule, ev.Name, sum.Plans[i], wire.Plans[i])
		}
	}
}

// queryCases are the goals the magic-sets engine answers.
type queryCase struct{ name, src, facts, goal string }

var queryCases = []queryCase{
	{"tc.dl", programs.Source("tc.dl"), programs.Facts("chain.facts"), "T(a,Y)"},
	{"same_generation.dl", programs.Source("same_generation.dl"), programs.Facts("family.facts"), "Sg(ann,Y)"},
	// Q is underivable, so -O2 removes every rule of the goal's
	// relation: the answer stays empty, it does not become an error.
	{"underivable-goal", "P(X) :- Q(X).\nQ(X) :- Q(X), E(X).\nR(X) :- E(X).\n", "E(a). E(b).", "P(a)"},
}

func TestPlannerMatchesLiteralOrderQuery(t *testing.T) { goals(t, "literal-order") }
func TestOptimizerMatchesQuery(t *testing.T)           { goals(t, "O2") }

// goals first holds the default goal-directed answer of each query case
// to the minimal model's goal relation, restricted to the goal's
// constants, then compares each named axis row's answer with it.
func goals(t *testing.T, names ...string) {
	ran := 0
	for _, c := range queryCases {
		t.Run(c.name, func(t *testing.T) {
			base := answer(t, c, false)
			if full := answer(t, c, true); base != full {
				t.Errorf("answers diverge:\n--- goal-directed ---\n%s\n--- full ---\n%s", base, full)
			}
			for _, name := range names {
				ran++
				if got := answer(t, c, false, row(t, name).opts...); got != base {
					t.Errorf("answers diverge:\n--- %s ---\n%s\n--- default ---\n%s", name, got, base)
				}
			}
		})
	}
	if ran < len(names)*len(queryCases) {
		t.Fatalf("only %d comparisons", ran)
	}
}

// answer renders a query case's answer in a fresh session: the
// goal-directed one under opts or, with full, the whole minimal model's
// goal relation, filtered.
func answer(t *testing.T, c queryCase, full bool, opts ...unchained.Opt) string {
	s := unchained.NewSession()
	p, in := s.MustParse(c.src), s.MustFacts(c.facts)
	q, err := s.ParseAtom(c.goal)
	if err != nil {
		t.Fatal(err)
	}
	var rel *tuple.Relation
	if full {
		rel, err = magic.FullAnswer(p, q, in, s.U, nil)
	} else {
		rel, _, err = s.QueryContext(context.Background(), p, q, in, opts...)
	}
	if err != nil {
		return "error: " + err.Error()
	}
	out := ""
	for _, tp := range rel.SortedTuples(s.U) {
		out += tp.String(s.U) + "\n"
	}
	return out
}

// viewSteps is the insert/delete sequence the maintained view of tc.dl
// over chain.facts replays.
var viewSteps = []string{"+G(d,e)", "+G(e,a)", "-G(b,c)", "-G(a,b)"}

func TestPlannerMatchesLiteralOrderIncr(t *testing.T) { maintained(t, "literal-order") }
func TestOptimizerMatchesIncr(t *testing.T)           { maintained(t, "O2") }

// maintained first holds the default maintained view at every step to
// a fresh evaluation of the step's input, then compares the view under
// each named axis row with it.
func maintained(t *testing.T, names ...string) {
	base := replay(t, false)
	sameSteps(t, "recompute", replay(t, true), base)
	for _, name := range names {
		sameSteps(t, name, replay(t, false, row(t, name).opts...), base)
	}
}

// replay materializes tc.dl over chain.facts under opts, replays
// viewSteps and returns the view before and after each step or, with
// recompute, a fresh evaluation of the step's input instead.
func replay(t *testing.T, recompute bool, opts ...unchained.Opt) []string {
	s, p, in := load(t, programs.Case{Program: "tc.dl", Facts: "chain.facts"})
	v, err := s.MaterializeContext(context.Background(), p, in, opts...)
	if err != nil {
		return []string{"error: " + err.Error()}
	}
	state := func() string {
		if !recompute {
			return s.Format(v.Instance())
		}
		res, err := s.EvalContext(context.Background(), p, in, unchained.Stratified)
		if err != nil {
			t.Fatal(err)
		}
		return s.Format(res.Out)
	}
	out := []string{state()}
	for _, step := range viewSteps {
		f := s.MustFacts(step[1:] + ".")
		for _, pred := range f.Names() {
			f.Relation(pred).Each(func(tp unchained.Tuple) bool {
				if step[0] == '+' {
					_, err = v.Insert(pred, tp)
					in.Insert(pred, tp)
				} else {
					_, err = v.Delete(pred, tp)
					in.Delete(pred, tp)
				}
				if err != nil {
					t.Fatal(err)
				}
				return true
			})
		}
		out = append(out, state())
	}
	return out
}

// sameSteps compares a replay with the default one, step by step, and
// fails unless every step was compared.
func sameSteps(t *testing.T, name string, got, base []string) {
	t.Helper()
	if len(got) != len(viewSteps)+1 || len(base) != len(viewSteps)+1 {
		t.Fatalf("%s: %d and %d states, want %d:\n%s\n--- maintained ---\n%s", name, len(got), len(base), len(viewSteps)+1, got, base)
	}
	for i := range base {
		if got[i] != base[i] {
			t.Errorf("the view after %d steps diverges:\n--- %s ---\n%s\n--- maintained ---\n%s", i, name, got[i], base[i])
			return
		}
	}
}

// TestPlannerMatchesLiteralOrderNondet extends the matrix's
// literal-order row to the nondeterministic engines: candidates are
// canonically sorted before the seeded choice, so a fixed seed must
// select the same computation whichever join order enumerated the
// candidates. The exhaustive effects' BFS visit order follows the
// canonical candidate order too, so the state sets and their discovery
// order agree.
func TestPlannerMatchesLiteralOrderNondet(t *testing.T) {
	ran := 0
	for _, c := range programs.Cases {
		if c.Deterministic() {
			continue
		}
		t.Run(c.Program, func(t *testing.T) {
			run := func(opts ...unchained.Opt) string {
				s, p, in := load(t, c)
				res, err := s.RunNondetContext(context.Background(), p, c.Nondet, in, append([]unchained.Opt{unchained.WithSeed(7)}, opts...)...)
				if err != nil {
					return "error: " + err.Error()
				}
				if res.Aborted {
					return fmt.Sprintf("aborted after %d steps", res.Steps)
				}
				return fmt.Sprintf("steps=%d\n%s", res.Steps, s.Format(res.Out))
			}
			ran++
			if planned, literal := run(), run(unchained.WithLiteralOrder()); planned != literal {
				t.Errorf("sampled run diverges:\n--- planner ---\n%s\n--- literal-order ---\n%s", planned, literal)
			}
			t.Run("effects", func(t *testing.T) {
				render := func(opts ...unchained.Opt) string {
					explored, states := effects(t, c, false, opts...)
					return fmt.Sprintf("explored=%d\n%s", explored, strings.Join(states, "---\n"))
				}
				if planned, literal := render(), render(unchained.WithLiteralOrder()); planned != literal {
					t.Errorf("effect sets diverge:\n--- planner ---\n%s\n--- literal-order ---\n%s", planned, literal)
				}
			})
		})
	}
	if ran < 5 {
		t.Fatalf("only %d nondeterministic programs", ran)
	}
}

// effects returns the exhaustive effects of a nondeterministic case: the
// number of states explored and the terminal states in discovery order,
// or an error line. optimize applies the -O2 rewrites first, gated for
// Inflationary, so without inlining.
func effects(t *testing.T, c programs.Case, optimize bool, opts ...unchained.Opt) (int, []string) {
	s, p, in := load(t, c)
	if optimize {
		if res, ok := s.Optimize(p, in, unchained.Inflationary, unchained.Opt2); ok && res.Changed {
			p = res.Program
		}
	}
	eff, err := s.EffectsContext(context.Background(), p, c.Nondet, in, opts...)
	if err != nil {
		return 0, []string{"error: " + err.Error()}
	}
	states := make([]string, len(eff.States))
	for i, st := range eff.States {
		states[i] = s.Format(st)
	}
	return eff.Explored, states
}

// TestDerivedCountsFacts pins what "derived" means for the engines that
// run one insert-only fixpoint: a fact counts once, at the stage it
// enters, however many firings of that stage emit it. Over the corpus
// (and a diamond, where two firings of one round emit the same fact):
// Σ derived = Σ stage deltas = |out| − |in|.
func TestDerivedCountsFacts(t *testing.T) {
	type input struct {
		name string
		load func() (*unchained.Session, *unchained.Program, *unchained.Instance)
	}
	inputs := []input{{"diamond", func() (*unchained.Session, *unchained.Program, *unchained.Instance) {
		s := unchained.NewSession()
		return s, s.MustParse("T(X,Y) :- G(X,Y).\nT(X,Y) :- G(X,Z), T(Z,Y)."),
			s.MustFacts("G(a,b). G(a,c). G(b,d). G(c,d). G(d,e). G(e,f).")
	}}}
	for _, c := range programs.Cases {
		if c.Deterministic() {
			inputs = append(inputs, input{c.Program, func() (*unchained.Session, *unchained.Program, *unchained.Instance) { return load(t, c) }})
		}
	}
	ran := 0
	for _, c := range inputs {
		for _, name := range []string{"minimal-model", "stratified", "inflationary"} {
			s, p, in := c.load()
			col := unchained.NewStatsCollector()
			res, err := s.EvalContext(context.Background(), p, in, unchained.SemanticsByName[name], unchained.WithStats(col))
			if err != nil {
				continue // the engine's dialect rejects the program
			}
			ran++
			sum, deltas := col.Summary(), int64(0)
			for _, st := range sum.PerStage {
				deltas += st.Delta
			}
			if added := res.Out.Facts() - in.Facts(); int(sum.Derived) != added || int(deltas) != added {
				t.Errorf("%s/%s: derived=%d rederived=%d, stage deltas sum to %d, the run added %d facts",
					c.name, name, sum.Derived, sum.Rederived, deltas, added)
			}
		}
	}
	if ran < 10 {
		t.Fatalf("only %d runs were accepted", ran)
	}
}

// TestStageDeltasSumToNetChange: under noninflationary, where a stage
// retracts as well as inserts, a stage's delta is its net change in the
// fact count, so a run's deltas sum to |out| − |in| however many facts it
// retracted on the way.
func TestStageDeltasSumToNetChange(t *testing.T) {
	ran, retracted := 0, uint64(0)
	for _, c := range programs.Cases {
		if !c.Deterministic() {
			continue
		}
		s, p, in := load(t, c)
		col := unchained.NewStatsCollector()
		res, err := s.EvalContext(context.Background(), p, in, unchained.SemanticsByName["noninflationary"],
			unchained.WithMaxStages(c.MaxStages), unchained.WithStats(col))
		if err != nil {
			continue // the dialect rejects the program, or it reaches no fixpoint
		}
		ran++
		sum, deltas := col.Summary(), int64(0)
		for _, st := range sum.PerStage {
			deltas += st.Delta
		}
		retracted += sum.Retractions
		if net := res.Out.Facts() - in.Facts(); int(deltas) != net {
			t.Errorf("%s: stage deltas sum to %d, the run changed the fact count by %d (%d retracted)", c.Program, deltas, net, sum.Retractions)
		}
	}
	if ran < 5 || retracted == 0 {
		t.Fatalf("%d runs retracting %d facts: the corpus has lost its Datalog¬¬ programs", ran, retracted)
	}
}
