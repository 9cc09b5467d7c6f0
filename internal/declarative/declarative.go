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
	k := engine.SemiNaive{Rules: rules}
	rounds, err := k.Run(opt, out, eval.ActiveDomain(u, p.Constants(), in))
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
		col.BeginPhase("stratum", s+1)
		k := engine.SemiNaive{Rules: srules}
		rounds, err := k.Run(opt, out, adom)
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
	col := opt.Collector()
	col.Reset("wellfounded", nil)
	adom := eval.ActiveDomain(u, p.Constants(), in)

	// One kernel for every Γ application: the delta variants and their
	// plan memos are the same each time, only the estimate differs.
	k := engine.SemiNaive{Rules: rules}
	gammaN := 0
	gamma := func(s *tuple.Instance) (*tuple.Instance, error) {
		gammaN++
		col.BeginPhase("gamma", gammaN)
		out := in.SnapshotWith(col.Cow())
		k.NegIn = s
		_, err := k.Run(opt, out, adom)
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
