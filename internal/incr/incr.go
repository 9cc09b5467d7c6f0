// Package incr maintains materialized Datalog views under EDB
// updates: batched asserts and retracts flow through the program's
// strata layer by layer, and every layer, recursive or not, is
// maintained by one algorithm. Stratified negation is supported:
// negated predicates always live in strictly lower layers, so by the
// time a layer is maintained its negative dependencies are final.
//
// A layer first asks, before it deletes anything, whether each fact a
// loss may have invalidated still has a proof. The fact is checked
// backward through the firings that derive it, a fact whose check is
// still open counts as unproved (so a cycle cannot prove itself), and
// every proof is chained forward to the checked facts waiting on it
// (Motik's saturate step). Only the facts left unproved are deleted,
// and their consequences are the next facts checked. The step is
// engine.BackwardForward. Then the layer's engine.SemiNaive kernel,
// seeded by the firings the gains give, inserts what is new.
//
// The view keeps one state and writes it in place. The first facts a
// layer checks are the heads of the firings through a lost fact as they
// stood before the batch: while it enumerates them, the layer undoes the
// batch's net delta on the few lower predicates those firings read, and
// redoes it after. A batch thus costs what it changes, not a copy of the
// view.
//
// The paper's forward-chaining languages handle updates inside the
// language (Datalog¬¬, Section 4.2); this package is the systems-side
// complement — keeping the (stratified) model materialized while the
// extensional database changes, without recomputing from scratch. It
// is the evaluation core behind the daemon's standing queries
// (POST /v1/subscribe).
package incr

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

// Fact is one extensional fact in a batch update.
type Fact struct {
	Pred  string
	Tuple tuple.Tuple
}

// Delta is the net effect of one maintained batch on the whole model
// (EDB and IDB alike): Added holds facts absent before the batch and
// present after, Removed the converse. The instances are owned by the
// caller after Apply returns.
type Delta struct {
	Added   *tuple.Instance
	Removed *tuple.Instance
}

// Empty reports whether the batch changed nothing.
func (d *Delta) Empty() bool { return d.Added.Facts() == 0 && d.Removed.Facts() == 0 }

// add records a fact becoming present, cancelling against an earlier
// removal in the same batch so the delta stays a true net diff.
func (d *Delta) add(pred string, t tuple.Tuple) {
	if d.Removed.Delete(pred, t) {
		return
	}
	d.Added.Insert(pred, t)
}

// remove records a fact becoming absent, cancelling an earlier add.
func (d *Delta) remove(pred string, t tuple.Tuple) {
	if d.Added.Delete(pred, t) {
		return
	}
	d.Removed.Insert(pred, t)
}

// layer is the rules of one stratum, in stratification order: every
// predicate a layer's rules read positively is either in the layer
// itself or in an earlier one, and every one they read under negation
// is in an earlier one. Its maintenance pairs a deletion step with an
// insertion kernel, as the well-founded alternation's does: bf deletes
// what a batch took the last proof of, k adds what it makes derivable.
type layer struct {
	preds map[string]bool
	rules []int // indexes into View.rules / View.variants
	k     *engine.SemiNaive
	bf    *engine.BackwardForward
}

// View is a materialized model of a stratified Datalog¬ program,
// maintained incrementally under batched EDB updates. Both dialects
// Materialize admits give every rule one positive head atom, and it
// admits no rule with a variable that ranges over the active domain:
// the matcher runs with a nil one.
type View struct {
	prog  *ast.Program
	rules []*eval.Rule
	// variants holds per-rule delta plans: one per body atom literal,
	// scheduled first (Rule.Delta; a negative one is matched, so a delta
	// on the negated predicate drives the join).
	variants [][]deltaVariant
	idb      map[string]bool
	state    *tuple.Instance // EDB ∪ derived IDB
	// layers are the strata with rules, dependencies first.
	layers []*layer
	// ctx is the matcher environment of the seeds, which fire the
	// variants one at a time, with buf its enumeration buffer; added
	// receives the facts a layer's insertion adds, and rewound lists the
	// predicates a loss seed rewinds.
	ctx     eval.Ctx
	buf     eval.Scratch
	added   *tuple.Instance
	rewound []string
	// opt is the Materialize options (nil when none). Every maintenance
	// step joins with the same scan and planner configuration as the
	// initial materialization, and its context bounds every subsequent
	// maintenance call, which returns the typed engine error when it is
	// done.
	opt *engine.Options
	// Stats is the collector carried by the Materialize options (nil
	// when none): it accumulates across the initial materialization
	// and every subsequent Apply, each deletion wave and insertion
	// round counting as one stage. Read it with Stats.Summary().
	Stats *stats.Collector
}

// deltaVariant is a rule compiled to start matching at one body atom
// literal. neg marks variants pinned at a (flipped) negative literal:
// their delta direction is inverted — facts *added* to the negated
// predicate invalidate firings, facts *removed* enable them. reads are
// the lower-layer (or EDB) predicates it matches at its other literals,
// when it is pinned at one itself: a loss seed reads them as the batch
// found them.
type deltaVariant struct {
	rule  *eval.Rule
	lit   int
	pred  string
	neg   bool
	reads []string
}

// Materialize evaluates the program once and returns a maintainable
// view: positive Datalog to its minimum model, a stratifiable Datalog¬
// program under the stratified semantics. It compiles the program once
// and builds the view's layers, one per stratum with rules, running each
// layer's kernel once, bottom-up. The input instance is copied.
//
// A rule with a variable that ranges over the active domain (one no
// positive body atom binds) is refused. Such a rule is legal one-shot,
// but not differentially maintainable: retracting the last fact
// mentioning a value shrinks the domain, which is not a delta on any
// relation the variant plans can pin.
func Materialize(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *engine.Options) (*View, error) {
	ix := ast.NewIndex(p)
	if err := ix.ValidateDiags(ast.DialectDatalogNeg).Err(); err != nil {
		return nil, fmt.Errorf("incr: %w", err)
	}
	strata, err := stratify.NewGraph(ix).Strata()
	if err != nil {
		return nil, fmt.Errorf("incr: %w", err)
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	for ri := range rules {
		if eval.ReadsDomain(rules[ri : ri+1]) {
			return nil, fmt.Errorf("incr: rule %d: a variable ranges over the active domain; not maintainable incrementally", ri+1)
		}
	}
	// Collector() rather than the bare Stats field: when only a Tracer
	// is configured, maintenance operations keep emitting into the same
	// auto-created collector the materialization run traced through.
	col := opt.Collector()
	col.Reset("incr", 0, nil)
	v := &View{
		prog:  p,
		rules: rules,
		idb:   map[string]bool{},
		state: in.SnapshotWith(col.Cow()),
		added: tuple.NewInstance(),
		opt:   opt,
		Stats: col,
	}
	v.ctx = *opt.EvalCtx(col, nil, nil)
	v.ctx.Buf = &v.buf
	for _, n := range p.IDB() {
		v.idb[n] = true
	}
	v.compileVariants()
	err = v.materialize(strata)
	col.Summary() // closes the materialization's span; maintenance continues the stream
	if err != nil {
		return nil, err
	}
	return v, nil
}

// compileVariants schedules the per-literal delta plans of every
// compiled rule.
func (v *View) compileVariants() {
	for i, src := range v.prog.Rules {
		var vs []deltaVariant
		for li, l := range src.Body {
			vs = append(vs, deltaVariant{rule: v.rules[i].Delta(li), lit: li, pred: l.Atom.Pred, neg: l.Neg})
		}
		v.variants = append(v.variants, vs)
	}
}

// materialize builds the layers, one per stratum with rules, and runs
// each layer's kernel once, dependencies first, which is exactly the
// maintenance order. A layer's predicates are the heads of its rules:
// the EDB predicates a stratum also groups stay below it. Every layer's
// deletion step checks a fact through its rules' rederive plans, the
// delta variants pinned at the head atom (Rule.Delta one past the body),
// and chains proofs forward through the variants its insertion kernel
// fires after the first round.
func (v *View) materialize(strata []stratify.Group) error {
	for si, s := range strata {
		if len(s.Rules) == 0 {
			continue
		}
		l := &layer{preds: map[string]bool{}, rules: s.Rules}
		for _, ri := range s.Rules {
			l.preds[v.prog.Rules[ri].Head[0].Atom.Pred] = true
		}
		rules, heads := make([]*eval.Rule, len(s.Rules)), make([]*eval.Rule, len(s.Rules))
		for i, ri := range s.Rules {
			r := &v.prog.Rules[ri]
			rules[i], heads[i] = v.rules[ri], v.rules[ri].Delta(len(r.Body))
			for j := range v.variants[ri] {
				dv := &v.variants[ri][j]
				for li, lit := range r.Body {
					if p := lit.Atom.Pred; li != dv.lit && !l.preds[dv.pred] && !l.preds[p] && !slices.Contains(dv.reads, p) {
						dv.reads = append(dv.reads, p)
					}
				}
			}
		}
		l.k = &engine.SemiNaive{Rules: rules}
		l.bf = engine.NewBackwardForward(rules, heads, l.k.Variants())
		v.layers = append(v.layers, l)
		v.Stats.BeginPhase("stratum", si+1)
		_, err := l.k.Run(v.opt, v.state, nil, nil, nil)
		v.Stats.EndPhase("stratum", si+1)
		if err != nil {
			return err
		}
	}
	return nil
}

// Instance returns the maintained instance (EDB plus derived IDB).
// Callers must not mutate it.
func (v *View) Instance() *tuple.Instance { return v.state }

// Snapshot returns a copy-on-write snapshot of the maintained
// instance: an O(#relations) fork that stays fixed while the view
// keeps absorbing update batches. Maintenance itself takes none: the
// view writes its relations in place, and only while a snapshot is
// held does the first batch to touch a relation pay one promotion
// (a copy) of it.
func (v *View) Snapshot() *tuple.Instance { return v.state.Snapshot() }

// Has reports whether the fact holds in the maintained model.
func (v *View) Has(pred string, t tuple.Tuple) bool { return v.state.Has(pred, t) }

// Insert adds one EDB fact and maintains the model. It reports
// whether the fact was new.
func (v *View) Insert(pred string, t tuple.Tuple) (bool, error) {
	if v.idb[pred] {
		return false, fmt.Errorf("incr: %s is intensional; only EDB updates are supported", pred)
	}
	if v.state.Has(pred, t) {
		return false, nil
	}
	_, err := v.Apply([]Fact{{Pred: pred, Tuple: t}}, nil)
	return true, err
}

// Delete removes one EDB fact and maintains the model. It reports
// whether the fact was present.
func (v *View) Delete(pred string, t tuple.Tuple) (bool, error) {
	if v.idb[pred] {
		return false, fmt.Errorf("incr: %s is intensional; only EDB updates are supported", pred)
	}
	if !v.state.Has(pred, t) {
		return false, nil
	}
	_, err := v.Apply(nil, []Fact{{Pred: pred, Tuple: t}})
	return true, err
}

// Apply absorbs one batch of EDB asserts and retracts and maintains
// the model, returning the net delta over every predicate (the
// asserted/retracted EDB facts that took effect plus every derived
// fact that appeared or disappeared). On a context interruption the
// typed engine error is returned and the view must be considered
// suspect.
//
// Layers are maintained in dependency order, each the same way
// (maintain): delete only the facts that lost their last proof, then
// insert what the gains derive semi-naively.
func (v *View) Apply(assert, retract []Fact) (*Delta, error) {
	return v.apply(assert, retract, (*View).maintain)
}

// apply is Apply with the maintenance of a layer passed in, so the
// tests can hold it to the delete–rederive it replaced.
func (v *View) apply(assert, retract []Fact, maintain func(v *View, l *layer, d *Delta) error) (*Delta, error) {
	for _, f := range assert {
		if v.idb[f.Pred] {
			return nil, fmt.Errorf("incr: %s is intensional; only EDB updates are supported", f.Pred)
		}
	}
	for _, f := range retract {
		if v.idb[f.Pred] {
			return nil, fmt.Errorf("incr: %s is intensional; only EDB updates are supported", f.Pred)
		}
	}
	d := &Delta{Added: tuple.NewInstance(), Removed: tuple.NewInstance()}
	retracted := 0
	for _, f := range assert {
		if v.state.Insert(f.Pred, f.Tuple) {
			d.add(f.Pred, f.Tuple)
		}
	}
	for _, f := range retract {
		if v.state.Delete(f.Pred, f.Tuple) {
			d.remove(f.Pred, f.Tuple)
			retracted++
		}
	}
	v.Stats.Retracted(retracted)
	if d.Empty() {
		return d, nil
	}
	for _, l := range v.layers {
		if err := maintain(v, l, d); err != nil {
			return d, err
		}
	}
	return d, nil
}

// pinFor returns the delta instance that drives a variant: the facts
// that make its pinned literal newly true (gain) or newly false
// (loss). For positive literals that is the added (resp. removed)
// set; for negative literals the directions invert.
func pinFor(dv deltaVariant, d *Delta, gain bool) *tuple.Instance {
	if dv.neg == gain {
		return d.Removed
	}
	return d.Added
}

// hasPred reports whether the instance holds any facts for pred.
func hasPred(in *tuple.Instance, pred string) bool {
	r := in.Relation(pred)
	return r != nil && r.Len() > 0
}

// maintain maintains layer l. Its Backward/Forward step deletes the
// facts a lower-layer (or EDB) loss took the last proof of: the
// candidates are the heads of the firings the losses may have
// invalidated, matched against the pre-batch state, where those
// firings lived (see seed). Its semi-naive kernel then adds what the
// gains derive, round one firing the variants pinned at the gains. That
// is complete because the deletion left exactly the facts with a proof
// that needs no gain, and a firing that needs none has a head among
// them; whatever round one misses needs a fact the kernel added.
// Negated literals read the current state, final for their (strictly
// lower) layers. A deleted fact the gains derive again is put back, and
// Delta.add cancels it against its removal.
func (v *View) maintain(l *layer, d *Delta) error {
	if err := l.bf.Run(v.opt, v.state, nil, nil, v.seed(l, d, false), d.Removed); err != nil {
		return err
	}
	_, err := l.k.Run(v.opt, v.state, nil, v.seed(l, d, true), v.added)
	v.added.EachRel(func(pred string, r *tuple.Relation) {
		r.Each(func(t tuple.Tuple) bool {
			d.add(pred, t)
			return true
		})
		r.Clear()
	})
	return err
}

// seed returns the first round of layer l's maintenance: it emits the
// heads of the firings of the variants pinned at the batch's
// lower-layer (or EDB) changes, the losses or the gains, the unpinned
// literals matching the state. A gain's firings hold after the batch,
// so they match the state as it is. A loss's held before it: while
// they are enumerated, the reads of the variants that fire are rewound
// to where the batch found them. Nothing else a loss variant reads has
// moved yet: the layer's own predicates change only when it is
// maintained, and those of later layers it does not read.
func (v *View) seed(l *layer, d *Delta, gain bool) func(emit func(eval.Fact) bool) {
	return func(emit func(eval.Fact) bool) {
		if !gain {
			v.rewound = v.rewound[:0]
			v.eachPinned(l, d, false, func(dv *deltaVariant, _ *tuple.Instance) {
				for _, p := range dv.reads {
					if !slices.Contains(v.rewound, p) {
						v.rewound = append(v.rewound, p)
					}
				}
			})
			v.rewind(d.Added, d.Removed)
			defer v.rewind(d.Removed, d.Added)
		}
		ctx := &v.ctx
		ctx.In = v.state
		ctx.NewStage()
		v.eachPinned(l, d, gain, func(dv *deltaVariant, pin *tuple.Instance) {
			ctx.Delta, ctx.DeltaLit = pin, dv.lit
			dv.rule.Fire(ctx, -1, nil, emit)
		})
		ctx.In, ctx.Delta = nil, nil // the instances are the batch's
		v.buf.Release()
	}
}

// eachPinned calls fn with each variant of layer l's rules that is pinned
// at a lower-layer (or EDB) literal the batch's losses or gains touch,
// and with the delta that drives it.
func (v *View) eachPinned(l *layer, d *Delta, gain bool, fn func(dv *deltaVariant, pin *tuple.Instance)) {
	for _, ri := range l.rules {
		for i := range v.variants[ri] {
			if dv := &v.variants[ri][i]; !l.preds[dv.pred] {
				if pin := pinFor(*dv, d, gain); hasPred(pin, dv.pred) {
					fn(dv, pin)
				}
			}
		}
	}
}

// rewind moves the predicates in v.rewound across the batch in place:
// it deletes the facts of drop and puts back those of restore. Rewound
// with (Added, Removed), they are as the batch found them, and with
// (Removed, Added) as it left them. A net delta holds no fact on both
// sides, so the order of the two does not matter.
func (v *View) rewind(drop, restore *tuple.Instance) {
	for _, pred := range v.rewound {
		if r := drop.Relation(pred); r != nil && !r.Empty() {
			st := v.state.Relation(pred)
			r.Each(func(t tuple.Tuple) bool {
				st.Delete(t)
				return true
			})
		}
		if r := restore.Relation(pred); r != nil && !r.Empty() {
			st := v.state.Ensure(pred, r.Arity())
			r.Each(func(t tuple.Tuple) bool {
				st.Insert(t)
				return true
			})
		}
	}
}
