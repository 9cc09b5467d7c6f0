// Package declarative implements the model-theoretic side of the
// paper (Section 3): the minimum-model semantics of positive Datalog
// (with naive and semi-naive bottom-up evaluation), the stratified
// semantics of Datalog¬, and the well-founded semantics computed as
// an alternating fixpoint.
package declarative

import (
	"fmt"

	"unchained/internal/ast"
	"unchained/internal/engine"
	"unchained/internal/eval"
	"unchained/internal/stats"
	"unchained/internal/stratify"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Options is the unified engine configuration (see engine.Options).
// The declarative engines honor Ctx (deadline/cancellation between
// semi-naive rounds), Scan, LiteralOrder, Plans, Shards and Stats; the
// zero value is the default configuration and a nil *Options is valid.
type Options = engine.Options

// Result is the outcome of a 2-valued evaluation: the final instance
// over sch(P) and the number of rounds (iterations of the immediate
// consequence operator for the naive engine, delta rounds otherwise).
type Result = engine.Result

// idbSet returns the program's intensional predicates as a set.
func idbSet(p *ast.Program) map[string]bool {
	idb := map[string]bool{}
	for _, n := range p.IDB() {
		idb[n] = true
	}
	return idb
}

// Eval computes the minimum model of a positive Datalog program on
// the input instance using semi-naive evaluation (Section 3.1). The
// input is not mutated.
func Eval(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	return EvalAs("minimal-model", p, in, u, opt)
}

// EvalAs is Eval under another engine name, for an engine that is a
// rewriting evaluated bottom-up (magic sets): the run is named before
// it starts, so its span stream, summary and flight record agree.
func EvalAs(engineName string, p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	if err := p.Validate(ast.DialectDatalog); err != nil {
		return nil, fmt.Errorf("declarative: %w", err)
	}
	return evalFixpoint(engineName, p, in, u, opt)
}

// evalFixpoint runs the whole program to one semi-naive fixpoint under
// the given engine name (minimal model, semi-positive).
func evalFixpoint(engineName string, p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	col := opt.Collector()
	col.Reset(engineName, nil)
	out := in.SnapshotWith(col.Cow())
	rounds, err := semiNaive(rules, out, nil, idbSet(p), eval.ActiveDomain(u, p.Constants(), in), opt)
	return engine.Finish(out, rounds, col, err)
}

// EvalNaive computes the same minimum model by naive iteration
// (re-deriving everything each round); it exists as the baseline for
// the semi-naive ablation benchmark (P1 in DESIGN.md).
func EvalNaive(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	if err := p.Validate(ast.DialectDatalog); err != nil {
		return nil, fmt.Errorf("declarative: %w", err)
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	col := opt.Collector()
	col.Reset("naive", nil)
	out := in.SnapshotWith(col.Cow())
	adom := eval.ActiveDomain(u, p.Constants(), in)
	rounds, err := opt.Loop(col, 0, nil, func(int) (engine.Outcome, error) {
		ctx := opt.EvalCtx(col, out, adom)
		st := eval.NewStaging(out)
		for _, cr := range rules {
			cr.Fire(ctx, -1, nil, st.Emit)
		}
		inserted := st.Fold()
		if inserted == 0 {
			return engine.Outcome{Status: engine.Last}, nil
		}
		return engine.Outcome{Delta: inserted}, nil
	})
	return engine.Finish(out, rounds, col, err)
}

// semiNaive runs semi-naive evaluation of rules to fixpoint, mutating
// out. negIn, when non-nil, is the fixed instance negative literals
// test against (used by the well-founded reduct); when nil, negatives
// test against out itself, which is only sound when the rules'
// negated predicates never grow during this fixpoint (stratified
// evaluation guarantees that). recursive is the set of predicates
// that may grow during this fixpoint. opt supplies the scan switch
// and the collector, which records each delta round as one stage
// (callers Reset it; inner fixpoints only record), and the context
// polled between rounds. Returns the number of rounds (the last one,
// which yields an empty delta, included) and a typed engine error when
// the context interrupts the fixpoint.
func semiNaive(rules []*eval.Rule, out *tuple.Instance, negIn *tuple.Instance, recursive map[string]bool, adom []value.Value, opt *Options) (int, error) {
	col := opt.Collector()

	// Precompute, per rule, the delta variants: one per positive body
	// literal over a recursive predicate, compiled with that literal
	// scheduled first so the join starts from the delta.
	var variants []eval.DeltaVariant
	for _, cr := range rules {
		for _, li := range cr.PositiveBodyLits() {
			pred := cr.Src.Body[li].Atom.Pred
			if recursive[pred] {
				dv, err := eval.CompileDelta(cr.Src, li)
				if err != nil {
					// Fall back to the original plan; cannot happen
					// for rules that compiled once already.
					dv = cr
				}
				variants = append(variants, eval.DeltaVariant{Rule: dv, Lit: li})
			}
		}
	}

	shards := opt.ShardCount()
	var delta *tuple.Instance   // the facts new last round,
	var parts []*tuple.Instance // or their hash partition (shards > 1)
	return opt.Loop(col, 0, nil, func(round int) (engine.Outcome, error) {
		ctx := opt.EvalCtx(col, out, adom)
		ctx.NegIn = negIn
		n := 0
		if round > 1 && shards > 1 {
			// Shard-parallel round: workers join their hash-slice of
			// the delta against COW forks of out/negIn, drop the facts
			// out holds and hand back the rest partitioned as the delta
			// was, so it is the next delta without another pass; only
			// the fold into out is serial. Sets make the result
			// independent of scheduling, so the fixpoint is
			// byte-identical to the serial path. A done context aborts
			// the workers mid-round; the driver's poll before the next
			// round surfaces the error.
			if round == 2 {
				parts = delta.Partition(shards)
			}
			var emitted uint64
			parts, emitted = eval.RunSharded(variants, ctx, parts, opt.Context().Done())
			for _, part := range parts {
				n += eval.Fold(out, part)
			}
			// Shard workers only tally firings; the parts hold exactly
			// the facts new to out, so charge derived/rederived here.
			col.Fired(-1, 0, uint64(n), emitted-uint64(n))
			col.ShardRound(int(emitted))
		} else {
			// Every head fact out lacks is staged at emission and
			// becomes both the next delta and, folded in after the
			// round, part of out: no fact is queued, and none is copied
			// more than once per set it joins.
			st := eval.NewStaging(out)
			if round == 1 {
				// A naive pass over every rule seeds the first delta.
				for _, cr := range rules {
					cr.Fire(ctx, -1, nil, st.Emit)
				}
			} else {
				ctx.Delta = delta
				for _, v := range variants {
					ctx.DeltaLit = v.Lit
					v.Rule.Fire(ctx, -1, nil, st.Emit)
				}
			}
			delta = st.Next
			n = st.Fold()
		}
		if n > 0 {
			return engine.Outcome{Delta: n}, nil
		}
		return engine.Outcome{Status: engine.Last}, nil
	})
}

// EvalStratified evaluates a stratifiable Datalog¬ program under the
// stratified semantics (Section 3.2): strata are computed from the
// dependency graph and evaluated bottom-up, each to fixpoint with
// semi-naive evaluation; negation within a stratum refers only to
// already-completed relations.
func EvalStratified(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	if err := p.Validate(ast.DialectDatalogNeg); err != nil {
		return nil, fmt.Errorf("declarative: %w", err)
	}
	strat, err := stratify.Stratify(p)
	if err != nil {
		return nil, err
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	// Group compiled rules by stratum.
	byStratum := make([][]*eval.Rule, len(strat.Strata))
	for i, cr := range rules {
		s := strat.RuleStratum(p.Rules[i])
		byStratum[s] = append(byStratum[s], cr)
	}
	col := opt.Collector()
	col.Reset("stratified", nil)
	out := in.SnapshotWith(col.Cow())
	adom := eval.ActiveDomain(u, p.Constants(), in)
	totalRounds := 0
	for s, srules := range byStratum {
		if len(srules) == 0 {
			continue
		}
		recursive := map[string]bool{}
		for _, pred := range strat.Strata[s] {
			recursive[pred] = true
		}
		col.BeginPhase("stratum", s+1)
		rounds, err := semiNaive(srules, out, nil, recursive, adom, opt)
		col.EndPhase("stratum", s+1)
		totalRounds += rounds
		if err != nil {
			return engine.Finish(out, totalRounds, col, err)
		}
	}
	return engine.Finish(out, totalRounds, col, nil)
}

// TruthValue is a value of the 3-valued logic of the well-founded
// semantics (Section 3.3).
type TruthValue uint8

// The truth values.
const (
	False TruthValue = iota
	Unknown
	True
)

func (tv TruthValue) String() string {
	switch tv {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// WFSResult is the 3-valued well-founded model of a program on an
// input: True holds the certainly-true facts (including the input),
// Possible holds true-or-unknown facts; everything else over the
// active domain is false.
type WFSResult struct {
	True     *tuple.Instance
	Possible *tuple.Instance
	// u renders and orders tuples deterministically.
	u *value.Universe
	// Rounds is the number of Γ applications performed by the
	// alternating fixpoint.
	Rounds int
	// Adom is the active domain used (for enumerating false facts).
	Adom []value.Value
	// Stats is the evaluation summary when Options carried a
	// collector; nil otherwise. Stats.Stages counts the semi-naive
	// rounds across all Γ applications (not the Γ count in Rounds).
	Stats *stats.Summary
}

// Truth reports the truth value of a fact in the well-founded model.
func (w *WFSResult) Truth(pred string, t tuple.Tuple) TruthValue {
	if w.True.Has(pred, t) {
		return True
	}
	if w.Possible.Has(pred, t) {
		return Unknown
	}
	return False
}

// UnknownFacts returns the facts of pred with truth value unknown,
// in the deterministic value order (so output is stable).
func (w *WFSResult) UnknownFacts(pred string) []tuple.Tuple {
	r := w.Possible.Relation(pred)
	if r == nil {
		return nil
	}
	unknown := tuple.NewRelation(r.Arity())
	r.Each(func(t tuple.Tuple) bool {
		if !w.True.Has(pred, t) {
			unknown.Insert(t)
		}
		return true
	})
	return unknown.SortedTuples(w.u)
}

// Total reports whether the model is 2-valued (no unknown facts).
func (w *WFSResult) Total() bool {
	return w.True.Equal(w.Possible)
}

// EvalWellFounded computes the well-founded model of a Datalog¬
// program by the alternating fixpoint of Van Gelder (Section 3.3):
//
//	under₀ = input; overᵢ = Γ(underᵢ₋₁); underᵢ = Γ(overᵢ)
//
// where Γ(S) is the minimum model of the program with every negative
// literal ¬A evaluated as A ∉ S. The under-sequence increases to the
// set of true facts and the over-sequence decreases to the set of
// true-or-unknown facts.
func EvalWellFounded(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*WFSResult, error) {
	if err := p.Validate(ast.DialectDatalogNeg); err != nil {
		return nil, fmt.Errorf("declarative: %w", err)
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	idb := idbSet(p)
	col := opt.Collector()
	col.Reset("wellfounded", nil)
	adom := eval.ActiveDomain(u, p.Constants(), in)

	gammaN := 0
	gamma := func(s *tuple.Instance) (*tuple.Instance, error) {
		gammaN++
		col.BeginPhase("gamma", gammaN)
		out := in.SnapshotWith(col.Cow())
		_, err := semiNaive(rules, out, s, idb, adom, opt)
		col.EndPhase("gamma", gammaN)
		return out, err
	}

	// The alternation itself is not a stage loop: its stages are the
	// semi-naive rounds inside each Γ application, and every application
	// starts with the driver's context poll, so a deadline interrupts
	// even slowly-converging models between applications.
	under := in.SnapshotWith(col.Cow())
	rounds := 0
	var over *tuple.Instance
	for {
		var newUnder *tuple.Instance
		if over, err = gamma(under); err == nil {
			newUnder, err = gamma(over)
		}
		if err != nil {
			break
		}
		rounds += 2
		if newUnder.Equal(under) {
			break
		}
		under = newUnder
	}
	if err != nil && !engine.IsInterrupt(err) {
		return nil, err
	}
	return &WFSResult{True: under, Possible: over, u: u, Rounds: rounds, Adom: adom, Stats: col.Summary()}, err
}

// EvalWellFounded2 is the 2-valued reading of the well-founded model:
// the true facts as the result instance and the Γ applications as its
// stages, in the shape every other deterministic engine has.
func EvalWellFounded2(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	wfs, err := EvalWellFounded(p, in, u, opt)
	if wfs == nil {
		return nil, err
	}
	return &Result{Out: wfs.True, Stages: wfs.Rounds, Stats: wfs.Stats}, err
}
