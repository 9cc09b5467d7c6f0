// Package declarative implements the model-theoretic side of the
// paper (Section 3): the minimum-model semantics of positive Datalog
// (with naive and semi-naive bottom-up evaluation), the stratified
// semantics of Datalog¬, and the well-founded semantics computed group
// by group over the dependency graph, as an alternating fixpoint only
// where negation is recursive.
package declarative

import (
	"fmt"
	"slices"

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
// semi-naive rounds), Scan, LiteralOrder, Plans and Stats; the
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
	col.Reset(engineName, 0, nil)
	out := in.SnapshotWith(col.Cow())
	k := engine.SemiNaive{Rules: rules}
	rounds, err := k.Run(opt, out, eval.DomainFor(rules, p, u, in), nil, nil)
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
	col.Reset("naive", 0, nil)
	out := in.SnapshotWith(col.Cow())
	adom := eval.DomainFor(rules, p, u, in)
	st := eval.NewStaging(out)
	ctx := opt.EvalCtx(col, out, adom)
	ctx.Done = opt.Context().Done()
	rounds, err := opt.Loop(col, 0, nil, func(round int) (engine.Outcome, error) {
		ctx.NewStage()
		for _, cr := range rules {
			cr.Fire(ctx, -1, nil, st.Emit)
		}
		if err := opt.Cut(ctx, round); err != nil {
			st.Discard()
			return engine.Outcome{}, err
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
// stratified semantics (Section 3.2). It is EvalWellFounded's walk
// refusing a cyclic group: the groups are then the strata, every one
// two-valued, so each is one semi-naive fixpoint whose negation reads
// only completed strata. Its stages are the rounds of those fixpoints.
func EvalStratified(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	r := wfsRun{w: WFSResult{u: u, p: p}}
	err := r.walk(true, in, opt)
	return engine.Finish(r.w.True, r.rounds, opt.Collector(), err)
}

// byGroup returns the compiled rules of each group, on one backing
// array.
func byGroup(rules []*eval.Rule, groups []stratify.Group) [][]*eval.Rule {
	out := make([][]*eval.Rule, len(groups))
	flat := make([]*eval.Rule, 0, len(rules))
	for gi, g := range groups {
		lo := len(flat)
		for _, ri := range g.Rules {
			flat = append(flat, rules[ri])
		}
		out[gi] = flat[lo:len(flat):len(flat)]
	}
	return out
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
	// u renders and orders tuples deterministically, and p is the
	// program.
	u *value.Universe
	p *ast.Program
	// adom is the active domain: what the rules read (nil when none
	// reads it), or what Domain computed.
	adom []value.Value
	// Rounds is the number of runs over groups: one per group whose
	// facts are all true or false, two per group that reads an unknown
	// fact, two per round of a group's alternation (after the first
	// round, a deletion run and a seeded kernel run). So the win program
	// of Example 3.2 takes four on its instance K and the stratified
	// complement of TC two, one per stratum.
	Rounds int
	// Stats is the evaluation summary when Options carried a
	// collector; nil otherwise. Stats.Stages counts the semi-naive
	// rounds across all kernel runs (not the run count in Rounds).
	Stats *stats.Summary
}

// Domain returns the active domain adom(P, I) of the evaluation (for
// enumerating false facts), computed on first call when no rule read
// it: the program's constants and the values of True, which holds the
// input, and whose every other value came from the program or the input.
// It must not be called concurrently with itself or with a change to
// True.
func (w *WFSResult) Domain() []value.Value {
	if w.adom == nil {
		w.adom = eval.ActiveDomain(w.u, w.p.Constants(), w.True)
	}
	return w.adom
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
// program (Section 3.3) group by group over the dependency graph's
// components, bottom-up (stratify's Groups), each group one or more runs
// of the delta kernel over its own rules. A group that does not recurse
// through negation and reads only facts that are true or false is one
// fixpoint, serving as both its true and its possible facts: on a
// stratifiable program the walk is EvalStratified's, run for run. One
// that does not recurse through negation but reads an unknown fact runs
// twice: its true facts with negation read against the possible ones,
// its possible facts with negation read against the true ones. A
// component that recurses through negation runs the alternating
// fixpoint of Van Gelder restricted to its rules:
//
//	overᵢ = Γ(underᵢ₋₁); underᵢ = Γ(overᵢ)
//
// where Γ(S) is the least fixpoint of the group's rules with every
// negative literal ¬A read as A ∉ S. The first round runs both from
// scratch; after it each side is maintained from the other's change.
// The over-estimates decrease: overᵢ₊₁ is overᵢ less the facts that
// lost their last proof when underᵢ grew, which engine.BackwardForward
// deletes in place. The under-estimates increase to the true facts:
// underᵢ₊₁ grows from underᵢ by a seeded run, whose first round fires
// only the firings a fact leaving the over-estimate unblocked. So a
// group costs in proportion to what changes, not to its rounds times its
// size. The alternation has converged when the true side stops growing.
//
// True and Possible are one instance until the first group with two
// sides; after it, a group whose facts are all true or false runs on
// True and its relations are shared into Possible copy-on-write.
func EvalWellFounded(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*WFSResult, error) {
	r := &wfsRun{w: WFSResult{u: u, p: p}}
	err := r.walk(false, in, opt)
	if err != nil && !engine.IsInterrupt(err) {
		return nil, err
	}
	r.w.Stats = opt.Collector().Summary()
	return &r.w, err
}

// walk evaluates r.w's program on in group by group into r.w. strict is
// the stratified engine: it refuses a cyclic group, with Strata's error.
func (r *wfsRun) walk(strict bool, in *tuple.Instance, opt *Options) error {
	w := &r.w
	ix := ast.NewIndex(w.p)
	if err := ix.ValidateDiags(ast.DialectDatalogNeg).Err(); err != nil {
		return fmt.Errorf("declarative: %w", err)
	}
	g := stratify.NewGraph(ix)
	var groups []stratify.Group
	var err error
	engineName := "wellfounded"
	if strict {
		engineName = "stratified"
		groups, err = g.Strata()
	} else {
		groups = g.Groups()
	}
	if err != nil {
		return err
	}
	rules, err := eval.CompileProgram(w.p)
	if err != nil {
		return err
	}
	r.opt, r.col = opt, opt.Collector()
	r.col.Reset(engineName, 0, nil)
	w.adom = eval.DomainFor(rules, w.p, w.u, in)
	w.True = in.SnapshotWith(r.col.Cow())
	w.Possible = w.True
	var unknown []bool       // per group, whether it has unknown facts; nil while none has
	buf := new(eval.Scratch) // the groups' kernels run one at a time
	for gi, grules := range byGroup(rules, groups) {
		gr := &groups[gi]
		two := !gr.Cyclic
		for _, d := range gr.Reads {
			two = two && (unknown == nil || !unknown[d])
		}
		if len(grules) > 0 {
			k := &engine.SemiNaive{Rules: grules, Buf: buf}
			switch {
			case two:
				err = r.run(k, w.True, "stratum", gi+1, nil, nil)
				if w.Possible != w.True {
					w.Possible.Share(w.True, gr.Preds)
				}
			case w.Possible == w.True: // the first group with two sides forks them
				w.Possible = w.True.Snapshot()
				fallthrough
			default:
				if gr.Cyclic {
					two, err = r.alternate(k, gr.Preds)
				} else {
					two, err = r.twoSided(k, gr.Preds)
				}
			}
			if err != nil {
				break
			}
		}
		if !two {
			if unknown == nil {
				unknown = make([]bool, len(groups))
			}
			unknown[gi] = true
		}
	}
	return err
}

// wfsRun is a walk over the groups in progress, well-founded or
// stratified, with the model it grows in w. Every kernel run
// starts with the driver's context poll, so a deadline interrupts even a
// slowly converging alternation between runs; a group's possible side
// runs before its true side, so an interrupted evaluation still leaves
// True inside Possible.
type wfsRun struct {
	w      WFSResult
	opt    *Options
	col    *stats.Collector
	gammas int // the two-sided runs so far, which number their phases
	rounds int // the semi-naive rounds of the kernel runs so far: stratified's stages
}

// run is one kernel run growing out, bracketed as a phase; seed and
// added are engine.SemiNaive.Run's.
func (r *wfsRun) run(k *engine.SemiNaive, out *tuple.Instance, phase string, n int, seed func(emit func(eval.Fact) bool), added *tuple.Instance) error {
	r.col.BeginPhase(phase, n)
	rounds, err := k.Run(r.opt, out, r.w.adom, seed, added)
	r.col.EndPhase(phase, n)
	r.rounds += rounds
	if err == nil {
		r.w.Rounds++
	}
	return err
}

// gamma is one side of a group with two: out grows with every negative
// literal read against negIn.
func (r *wfsRun) gamma(k *engine.SemiNaive, out, negIn *tuple.Instance, seed func(emit func(eval.Fact) bool), added *tuple.Instance) error {
	r.gammas++
	k.NegIn = negIn
	return r.run(k, out, "gamma", r.gammas, seed, added)
}

// twoSided evaluates a group that reads an unknown fact but does not
// recurse through negation, and reports whether its facts came out all
// true or false anyway.
func (r *wfsRun) twoSided(k *engine.SemiNaive, preds []string) (bool, error) {
	if err := r.gamma(k, r.w.Possible, r.w.True, nil, nil); err != nil {
		return false, err
	}
	if err := r.gamma(k, r.w.True, r.w.Possible, nil, nil); err != nil {
		return false, err
	}
	return count(r.w.True, preds) == count(r.w.Possible, preds), nil
}

// alternate runs the alternating fixpoint of a group that recurses
// through negation, and reports whether it converged 2-valued. Its first
// round is two whole-group runs; each later one maintains one estimate
// from what the other's last step changed.
func (r *wfsRun) alternate(k *engine.SemiNaive, preds []string) (bool, error) {
	over := r.w.Possible // grown to over₁, then shrunk in place
	if err := r.gamma(k, over, r.w.True, nil, nil); err != nil {
		return false, err
	}
	lag := twoOwnNegs(k.Rules, preds)
	var m *groupMaintenance // built by the first round with anything to maintain
	defer func() {
		if m != nil {
			m.unindex(r.w.True, over)
		}
	}()
	added := tuple.NewInstance()
	for {
		before := r.w.True // underᵢ₋₁ where the over side's seed needs it
		if lag {
			before = before.Snapshot()
		}
		var grow func(emit func(eval.Fact) bool) // the under side's seed after the first round
		if m != nil {
			added.EachRel(func(_ string, rel *tuple.Relation) { rel.Clear() })
			grow = m.seed
		}
		if err := r.gamma(k, r.w.True, over, grow, added); err != nil {
			return false, err
		}
		if added.Facts() == 0 {
			return count(r.w.True, preds) == count(over, preds), nil
		}
		if m == nil {
			m = r.maintenance(k, preds)
		}
		// Γ(underᵢ) ⊆ Γ(underᵢ₋₁): the firings that lost a negative literal
		// to an added fact are the candidates. Their other negative
		// literals read underᵢ₋₁, where those firings held: read against
		// underᵢ, a firing that lost two would be missed.
		r.gammas++
		r.col.BeginPhase("gamma", r.gammas)
		m.pin(over, before, added)
		m.deleted.EachRel(func(_ string, rel *tuple.Relation) { rel.Clear() })
		err := m.bf.Run(r.opt, over, r.w.True, r.w.adom, m.seed, m.deleted)
		r.col.EndPhase("gamma", r.gammas)
		if err != nil {
			return false, err
		}
		r.w.Rounds++
		// Γ(overᵢ₊₁) grows from underᵢ by the firings a deleted fact
		// unblocked, then semi-naively.
		m.pin(r.w.True, over, m.deleted)
	}
}

// twoOwnNegs reports whether a rule has two negative literals over the
// group's predicates: the over side's seed then reads a snapshot of the
// under-estimate before it grew.
func twoOwnNegs(rules []*eval.Rule, preds []string) bool {
	for _, cr := range rules {
		own := 0
		for _, l := range cr.Src.Body {
			if l.Kind == ast.LitAtom && l.Neg && slices.Contains(preds, l.Atom.Pred) {
				own++
			}
		}
		if own > 1 {
			return true
		}
	}
	return false
}

// groupMaintenance is what a cyclic group's rounds after the first
// maintain its estimates with.
type groupMaintenance struct {
	// bf is the deletion step of the over-estimate, deleted what its last
	// run deleted.
	bf      *engine.BackwardForward
	deleted *tuple.Instance
	// rules and preds are the group's.
	rules []*eval.Rule
	preds []string
	// pins are the group's rules pinned at each negative literal over
	// its own predicates.
	pins []*eval.Rule
	// ctx is the pins' matcher environment, set by pin; seed is fire,
	// bound once.
	ctx  eval.Ctx
	buf  eval.Scratch
	seed func(emit func(eval.Fact) bool)
}

// maintenance schedules a cyclic group's groupMaintenance. The deletion
// step's forward plans are the variants k's rounds after the first fire,
// scheduled already.
func (r *wfsRun) maintenance(k *engine.SemiNaive, preds []string) *groupMaintenance {
	m := &groupMaintenance{rules: k.Rules, preds: preds, deleted: tuple.NewInstance(), ctx: *r.opt.EvalCtx(r.col, nil, r.w.adom)}
	m.ctx.Buf, m.seed = &m.buf, m.fire
	for _, cr := range k.Rules {
		for li, l := range cr.Src.Body {
			if l.Kind == ast.LitAtom && l.Neg && slices.Contains(preds, l.Atom.Pred) {
				m.pins = append(m.pins, cr.Delta(li))
			}
		}
	}
	heads := make([]*eval.Rule, len(k.Rules))
	for i, cr := range k.Rules {
		heads[i] = cr.Delta(len(cr.Src.Body))
	}
	m.bf = engine.NewBackwardForward(k.Rules, heads, k.Variants())
	return m
}

// unindex drops the indexes of the relations from below the group that
// its rules read positively, in tr and pos: the result keeps those
// relations, and the indexes only served the maintenance, whose pinned
// plans probe them by other columns than a whole-group run does.
func (m *groupMaintenance) unindex(tr, pos *tuple.Instance) {
	for _, cr := range m.rules {
		for _, li := range cr.PositiveBodyLits() {
			if p := cr.Src.Body[li].Atom.Pred; !slices.Contains(m.preds, p) {
				for _, in := range [2]*tuple.Instance{tr, pos} {
					if rel := in.Relation(p); rel != nil {
						rel.DropIndexes()
					}
				}
			}
		}
	}
}

// pin points the seed at the firings of the pins over a fact of delta
// at the pinned literal, positive literals reading in and
// the other negative ones negIn.
func (m *groupMaintenance) pin(in, negIn, delta *tuple.Instance) {
	m.ctx.In, m.ctx.NegIn, m.ctx.Delta = in, negIn, delta
	m.ctx.NewStage()
}

// fire is the seed: it emits the heads of the firings pin points at.
func (m *groupMaintenance) fire(emit func(eval.Fact) bool) {
	for _, p := range m.pins {
		m.ctx.DeltaLit = p.DeltaLit()
		if rel := m.ctx.Delta.Relation(p.Src.Body[m.ctx.DeltaLit].Atom.Pred); rel != nil && !rel.Empty() {
			p.Fire(&m.ctx, -1, nil, emit)
		}
	}
}

// count is the number of facts in's relations named preds hold.
func count(in *tuple.Instance, preds []string) int {
	n := 0
	for _, p := range preds {
		if r := in.Relation(p); r != nil {
			n += r.Len()
		}
	}
	return n
}

// EvalWellFounded2 is the 2-valued reading of the well-founded model:
// the true facts as the result instance and the kernel runs as its
// stages, in the shape every other deterministic engine has.
func EvalWellFounded2(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	wfs, err := EvalWellFounded(p, in, u, opt)
	if wfs == nil {
		return nil, err
	}
	return &Result{Out: wfs.True, Stages: wfs.Rounds, Stats: wfs.Stats}, err
}
