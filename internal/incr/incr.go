// Package incr maintains materialized Datalog views under EDB
// updates: batched asserts and retracts flow through the program's
// SCC condensation layer by layer, with exact per-tuple support
// counting on non-recursive layers and Backward/Forward deletion on
// recursive ones. Stratified negation is supported: negated
// predicates always live in strictly lower layers, so by the time a
// layer is maintained its negative dependencies are final.
//
// Support counting is the counting semiring, exact only without
// recursion: around a cycle a fact can count itself. A recursive layer
// asks the Boolean question instead, before it deletes anything: is
// there still a proof? Each fact a loss may have invalidated is checked
// backward through the firings that derive it, a fact whose check is
// still open counts as unproved (so a cycle cannot prove itself), and
// every proof is chained forward to the checked facts waiting on it
// (Motik's saturate step). Only the facts left unproved are deleted,
// and their consequences are the next facts checked. The step is
// engine.BackwardForward; insertion stays semi-naive.
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

	"unchained/internal/ast"
	"unchained/internal/declarative"
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

// layer is one SCC of the predicate dependency graph, in condensation
// order: every predicate a layer's rules read (positively or under
// negation) is either in the layer itself or in an earlier one.
type layer struct {
	preds map[string]bool
	rules []int // indexes into View.rules / View.variants
	// counting layers (non-recursive) maintain exact per-tuple
	// support counts; recursive layers delete with bf, their
	// Backward/Forward step.
	counting bool
	bf       *engine.BackwardForward
}

// View is a materialized model of a stratified Datalog¬ program,
// maintained incrementally under batched EDB updates. Both dialects
// Materialize admits give every rule one positive head atom, and
// checkMaintainable leaves no variable to range over the active
// domain: the matcher runs with a nil one.
type View struct {
	prog  *ast.Program
	rules []*eval.Rule
	// variants holds per-rule delta plans: one per body atom literal,
	// scheduled first (Rule.Delta; a negative one is matched, so a delta
	// on the negated predicate drives the join).
	variants [][]deltaVariant
	// rederive holds per-rule the plan a recursive layer's deletion step
	// asks "does the rule still derive this fact?" with: the delta
	// variant pinned at the head atom (Rule.Delta one past the body).
	rederive []*eval.Rule
	idb      map[string]bool
	state    *tuple.Instance // EDB ∪ derived IDB
	// layers is the SCC condensation, dependencies first; counts holds
	// the support counters of the counting layers (pred -> tuple key).
	layers []*layer
	counts map[string]map[string]supportEntry
	// opt is the Materialize options (nil when none). Every propagation
	// round joins with the same scan and planner configuration as the
	// initial materialization, and its context bounds every subsequent
	// maintenance call, which returns the typed engine error when it is
	// done.
	opt *engine.Options
	// Stats is the collector carried by the Materialize options (nil
	// when none): it accumulates across the initial materialization
	// and every subsequent Apply propagation, each delta round
	// counting as one stage. Read it with Stats.Summary().
	Stats *stats.Collector
}

// supportEntry is one counted tuple: the tuple itself (the map key is
// its packed form) and how many rule firings currently derive it.
type supportEntry struct {
	t tuple.Tuple
	n int64
}

// deltaVariant is a rule compiled to start matching at one body atom
// literal. neg marks variants pinned at a (flipped) negative literal:
// their delta direction is inverted — facts *added* to the negated
// predicate invalidate firings, facts *removed* enable them.
type deltaVariant struct {
	rule *eval.Rule
	lit  int
	pred string
	neg  bool
}

// Materialize evaluates the program once and returns a maintainable
// view. Positive programs evaluate to the minimum model; programs
// with (stratifiable) negation evaluate under the stratified
// semantics. The input instance is copied.
func Materialize(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *engine.Options) (*View, error) {
	positive := p.Validate(ast.DialectDatalog) == nil
	if !positive {
		if err := p.Validate(ast.DialectDatalogNeg); err != nil {
			return nil, fmt.Errorf("incr: %w", err)
		}
		if _, err := stratify.Stratify(p); err != nil {
			return nil, fmt.Errorf("incr: %w", err)
		}
		if err := checkMaintainable(p); err != nil {
			return nil, err
		}
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	var res *declarative.Result
	if positive {
		res, err = declarative.Eval(p, in, u, opt)
	} else {
		res, err = declarative.EvalStratified(p, in, u, opt)
	}
	if err != nil {
		return nil, err
	}
	// Collector() rather than the bare Stats field: when only a Tracer
	// is configured, maintenance operations keep emitting into the same
	// auto-created collector the materialization run traced through.
	v := &View{
		prog:  p,
		rules: rules,
		idb:   map[string]bool{},
		state: res.Out,
		opt:   opt,
		Stats: opt.Collector(),
	}
	// The one-shot evaluation labeled the collector after its engine;
	// from here on it accumulates maintenance work, so relabel without
	// clearing the materialization counters.
	v.Stats.SetEngine("incr")
	// Bind the maintained state's copy-on-write counters to the same
	// collector: Snapshot() forks and the promotes that maintenance
	// writes trigger afterwards show up in the summary.
	v.state.SetCow(v.Stats.Cow())
	for _, n := range p.IDB() {
		v.idb[n] = true
	}
	v.compileVariants()
	v.buildLayers()
	if err := v.initCounts(); err != nil {
		return nil, err
	}
	return v, nil
}

// checkMaintainable rejects Datalog¬ rules with variables that range
// over the active domain (occurring in no positive body atom). Such
// rules are legal one-shot — the matcher ranges the variable over the
// domain — but not differentially maintainable: retracting the last
// fact mentioning a value shrinks the domain, which is not a delta on
// any relation the variant plans can pin.
func checkMaintainable(p *ast.Program) error {
	for ri, r := range p.Rules {
		bound := map[string]bool{}
		for _, l := range r.Body {
			if l.Neg {
				continue
			}
			for _, a := range l.Atom.Args {
				if a.IsVar() {
					bound[a.Var] = true
				}
			}
		}
		for _, ls := range [][]ast.Literal{r.Head, r.Body} {
			for _, l := range ls {
				for _, a := range l.Atom.Args {
					if a.IsVar() && !bound[a.Var] {
						return fmt.Errorf("incr: rule %d: variable %s ranges over the active domain; not maintainable incrementally", ri+1, a.Var)
					}
				}
			}
		}
	}
	return nil
}

// compileVariants schedules the per-literal delta plans and the
// rederive plan of every compiled rule: all the planning a view does
// outside the planner's own replans.
func (v *View) compileVariants() {
	for i, src := range v.prog.Rules {
		var vs []deltaVariant
		for li, l := range src.Body {
			vs = append(vs, deltaVariant{rule: v.rules[i].Delta(li), lit: li, pred: l.Atom.Pred, neg: l.Neg})
		}
		v.variants = append(v.variants, vs)
		v.rederive = append(v.rederive, v.rules[i].Delta(len(src.Body)))
	}
}

// buildLayers computes the SCC condensation of the dependency graph.
// stratify returns SCCs dependencies-first, which is exactly the
// maintenance order. Layers without rules (EDB predicates) are
// dropped.
func (v *View) buildLayers() {
	g := stratify.BuildGraph(v.prog)
	selfLoop := map[string]bool{}
	for _, e := range g.Edges {
		if e.From == e.To {
			selfLoop[e.From] = true
		}
	}
	for _, scc := range g.SCCs() {
		l := &layer{preds: map[string]bool{}}
		recursive := len(scc) > 1
		for _, pred := range scc {
			l.preds[pred] = true
			if selfLoop[pred] {
				recursive = true
			}
		}
		for ri, r := range v.prog.Rules {
			if l.preds[r.Head[0].Atom.Pred] {
				l.rules = append(l.rules, ri)
			}
		}
		if len(l.rules) == 0 {
			continue
		}
		l.counting = !recursive
		if recursive {
			var rules, heads []*eval.Rule
			var forward []eval.DeltaVariant
			for _, ri := range l.rules {
				rules, heads = append(rules, v.rules[ri]), append(heads, v.rederive[ri])
				for _, li := range v.rules[ri].PositiveBodyLits() {
					if dv := v.variants[ri][li]; l.preds[dv.pred] {
						forward = append(forward, eval.DeltaVariant{Rule: dv.rule, Index: -1})
					}
				}
			}
			l.bf = engine.NewBackwardForward(rules, heads, forward)
		}
		v.layers = append(v.layers, l)
	}
}

// head returns the head predicate of rule ri and its arity.
func (v *View) head(ri int) (string, int) {
	a := v.prog.Rules[ri].Head[0].Atom
	return a.Pred, len(a.Args)
}

// initCounts enumerates every counting-layer rule against the
// materialized state once, establishing the exact per-tuple support
// counts subsequent batches maintain differentially.
func (v *View) initCounts() error {
	v.counts = map[string]map[string]supportEntry{}
	// One polled pass that is not a stage of the maintained run, so it
	// has no stage to charge firings or file plan spans under.
	_, err := v.opt.Loop(nil, 0, nil, func(int) (engine.Outcome, error) {
		ctx := v.opt.EvalCtx(nil, v.state, nil)
		for _, l := range v.layers {
			if !l.counting {
				continue
			}
			for _, ri := range l.rules {
				pred, _ := v.head(ri)
				c := v.counts[pred]
				if c == nil {
					c = map[string]supportEntry{}
					v.counts[pred] = c
				}
				v.rules[ri].Fire(ctx, -1, nil, func(f eval.Fact) bool {
					k := f.Tuple.Key()
					e := c[k]
					if e.t == nil {
						e.t = f.Tuple.Clone()
					}
					e.n++
					c[k] = e
					return true
				})
			}
		}
		return engine.Outcome{Status: engine.Last}, nil
	})
	return err
}

// pinned returns the matcher environment for a plan pinned at body
// literal lit: in is the instance the unpinned literals match, pin the
// delta driving the pinned one.
func (v *View) pinned(lit int, in, pin *tuple.Instance) *eval.Ctx {
	ctx := v.opt.EvalCtx(v.Stats, in, nil)
	ctx.Delta, ctx.DeltaLit = pin, lit
	return ctx
}

// Instance returns the maintained instance (EDB plus derived IDB).
// Callers must not mutate it.
func (v *View) Instance() *tuple.Instance { return v.state }

// Snapshot returns a copy-on-write snapshot of the maintained
// instance: an O(#relations) fork that stays fixed while the view
// keeps absorbing update batches. The view pays a per-relation
// promotion only for relations it actually touches afterwards.
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
// Layers are maintained in dependency order. Non-recursive layers
// adjust exact support counts from the lost and gained rule firings
// (each changed firing attributed to its first changed body literal,
// so multi-delta firings count exactly once). Recursive layers delete
// only the facts that lost their last proof (bfLayer), then insert
// what the gains derive semi-naively.
func (v *View) Apply(assert, retract []Fact) (*Delta, error) {
	return v.apply(assert, retract, (*View).bfLayer)
}

// apply is Apply with the maintenance of a recursive layer passed in,
// so the tests can hold it to the delete–rederive it replaced.
func (v *View) apply(assert, retract []Fact, recursive func(v *View, l *layer, old *tuple.Instance, d *Delta) error) (*Delta, error) {
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
	old := v.state.Snapshot()
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
		var err error
		if l.counting {
			err = v.countLayer(l, old, d)
		} else {
			err = recursive(v, l, old, d)
		}
		if err != nil {
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

// firstChange reports whether the pinned literal is the FIRST body
// literal of the firing whose truth changed in the given direction.
// Summing pinned enumerations over all literals with this filter
// yields each changed firing exactly once — the attribution that
// makes support counting exact under self-joins and multi-fact
// batches.
func firstChange(dv deltaVariant, b eval.Binding, d *Delta, gain bool) bool {
	for i := 0; i < dv.lit; i++ {
		f, ok := dv.rule.GroundBodyAtom(b, i)
		if !ok {
			continue
		}
		var changed bool
		if f.Neg == gain {
			changed = d.Removed.Has(f.Pred, f.Tuple)
		} else {
			changed = d.Added.Has(f.Pred, f.Tuple)
		}
		if changed {
			return false
		}
	}
	return true
}

// countLayer maintains a non-recursive layer by exact support
// counting, as one stage. Lost firings are enumerated against the
// pre-batch state, gained firings against the current state (all lower
// layers final); net counts crossing zero update the model.
func (v *View) countLayer(l *layer, old *tuple.Instance, d *Delta) error {
	_, err := v.opt.Loop(v.Stats, 0, nil, func(int) (engine.Outcome, error) {
		return engine.Outcome{Status: engine.Last, Delta: v.recount(l, old, d)}, nil
	})
	return err
}

// recount is countLayer's stage; it returns the number of facts that
// entered or left the model.
func (v *View) recount(l *layer, old *tuple.Instance, d *Delta) int {
	type change struct {
		pred string
		t    tuple.Tuple
		n    int64
	}
	changes := map[string]*change{}
	for _, gain := range []bool{false, true} {
		in, sign := old, int64(-1)
		if gain {
			in, sign = v.state, 1
		}
		record := func(f eval.Fact) bool {
			k := f.Pred + "\x00" + f.Tuple.Key()
			c := changes[k]
			if c == nil {
				c = &change{pred: f.Pred, t: f.Tuple.Clone()}
				changes[k] = c
			}
			c.n += sign
			return true
		}
		for _, ri := range l.rules {
			for _, dv := range v.variants[ri] {
				pin := pinFor(dv, d, gain)
				if !hasPred(pin, dv.pred) {
					continue
				}
				heads := dv.rule.ScratchHeads()
				dv.rule.Fire(v.pinned(dv.lit, in, pin), -1, func(b eval.Binding) []eval.Fact {
					if !firstChange(dv, b, d, gain) {
						return nil
					}
					return heads(b)
				}, record)
			}
		}
	}
	moved := 0
	for _, c := range changes {
		if c.n == 0 {
			continue
		}
		counts := v.counts[c.pred]
		k := c.t.Key()
		e := counts[k]
		if e.t == nil {
			e.t = c.t
		}
		was := e.n
		e.n += c.n
		if e.n <= 0 {
			delete(counts, k)
			if was > 0 && v.state.Delete(c.pred, c.t) {
				d.remove(c.pred, c.t)
				moved++
			}
			continue
		}
		counts[k] = e
		if was <= 0 && v.state.Insert(c.pred, c.t) {
			d.add(c.pred, c.t)
			moved++
		}
	}
	return moved
}

// bfLayer maintains a recursive layer: the layer's Backward/Forward
// step deletes the facts a lower-layer (or EDB) loss took the last
// proof of, then one semi-naive loop adds what the gains derive. The
// candidates are the heads of the firings the losses may have
// invalidated, matched against the pre-batch state, where those
// firings lived. A deleted fact the gains derive again is put back by
// the loop, and Delta.add cancels it against its removal.
func (v *View) bfLayer(l *layer, old *tuple.Instance, d *Delta) error {
	gone, err := l.bf.Run(v.opt, v.state, nil, nil, func(emit func(eval.Fact) bool) {
		for _, ri := range l.rules {
			v.fireVariants(l, ri, 1, d, false, old, nil, emit)
		}
	})
	if gone != nil {
		gone.EachRel(func(pred string, r *tuple.Relation) {
			d.Removed.Ensure(pred, r.Arity()).UnionInPlace(r)
		})
	}
	if err != nil {
		return err
	}
	return v.propagate(l, d)
}

// fireVariants runs rule ri's share of round n of a semi-naive loop over layer
// l: in the first round the variants pinned at the lower-layer (or EDB)
// changes of the batch — the losses or the gains — and in every later
// one the variants pinned at the layer's own predicates, driven by
// round, the facts the round before moved. in is what the unpinned
// literals match.
func (v *View) fireVariants(l *layer, ri, n int, d *Delta, gain bool, in, round *tuple.Instance, emit func(eval.Fact) bool) {
	for _, dv := range v.variants[ri] {
		own := l.preds[dv.pred]
		if own == (n == 1) {
			continue
		}
		pin := round
		if !own {
			pin = pinFor(dv, d, gain)
		}
		if hasPred(pin, dv.pred) {
			dv.rule.Fire(v.pinned(dv.lit, in, pin), -1, nil, emit)
		}
	}
}

// propagate is a recursive layer's insertion loop: semi-naive rounds
// within the layer until a round adds nothing. The first round fires
// the variants pinned at the batch's lower-layer (or EDB) gains. That
// is complete because the deletion step left exactly the facts with a
// proof that needs no gain, and a firing that needs none has a head
// among them; whatever the first round misses needs a fact it found.
// Negated literals read the current state, final for their (strictly
// lower) layers. The driver polls the view's context between rounds;
// on interruption the state holds the partially-propagated model and
// callers surface the typed error so the view is known to be suspect.
func (v *View) propagate(l *layer, d *Delta) error {
	var round *tuple.Instance
	_, err := v.opt.Loop(v.Stats, 0, nil, func(n int) (engine.Outcome, error) {
		next := tuple.NewInstance()
		for _, ri := range l.rules {
			pred, arity := v.head(ri)
			st, nx := v.state.Relation(pred), next.Ensure(pred, arity)
			v.fireVariants(l, ri, n, d, true, v.state, round, func(f eval.Fact) bool {
				if st == nil {
					st = v.state.Ensure(pred, arity)
				}
				if !st.Insert(f.Tuple) {
					return false
				}
				nx.Insert(f.Tuple)
				d.add(pred, f.Tuple)
				return true
			})
		}
		round = next
		if round.Facts() == 0 {
			return engine.Outcome{Status: engine.Last}, nil
		}
		return engine.Outcome{Delta: round.Facts()}, nil
	})
	return err
}
