// Package incr maintains materialized Datalog views under EDB
// updates: batched asserts and retracts flow through the program's
// SCC condensation layer by layer, with exact per-tuple support
// counting on non-recursive layers and delete–rederive (DRed) on
// recursive ones. Stratified negation is supported: negated
// predicates always live in strictly lower layers, so by the time a
// layer is maintained its negative dependencies are final.
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
	// support counts; recursive layers run DRed.
	counting bool
}

// View is a materialized model of a stratified Datalog¬ program,
// maintained incrementally under batched EDB updates.
type View struct {
	prog  *ast.Program
	rules []*eval.Rule
	// variants holds per-rule delta plans: one per body atom literal.
	// Positive literals are compiled with the literal scheduled first;
	// negative literals are compiled from a polarity-flipped copy so a
	// delta on the negated predicate can drive the join.
	variants [][]deltaVariant
	u        *value.Universe
	idb      map[string]bool
	edb      map[string]bool
	state    *tuple.Instance // EDB ∪ derived IDB
	adom     []value.Value
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
		u:     u,
		idb:   map[string]bool{},
		edb:   map[string]bool{},
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
	for _, n := range p.EDB() {
		v.edb[n] = true
	}
	if err := v.compileVariants(); err != nil {
		return nil, err
	}
	v.buildLayers()
	v.refreshAdom()
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
			if l.Kind != ast.LitAtom || l.Neg {
				continue
			}
			for _, a := range l.Atom.Args {
				if a.IsVar() {
					bound[a.Var] = true
				}
			}
		}
		check := func(tm ast.Term) error {
			if tm.IsVar() && !bound[tm.Var] {
				return fmt.Errorf("incr: rule %d: variable %s ranges over the active domain; not maintainable incrementally", ri+1, tm.Var)
			}
			return nil
		}
		for _, ls := range [][]ast.Literal{r.Head, r.Body} {
			for _, l := range ls {
				switch l.Kind {
				case ast.LitAtom:
					for _, a := range l.Atom.Args {
						if err := check(a); err != nil {
							return err
						}
					}
				case ast.LitEq:
					if err := check(l.Left); err != nil {
						return err
					}
					if err := check(l.Right); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// compileVariants builds the per-literal delta plans.
func (v *View) compileVariants() error {
	for i, cr := range v.rules {
		var vs []deltaVariant
		for li, l := range v.prog.Rules[i].Body {
			if l.Kind != ast.LitAtom {
				continue
			}
			if !l.Neg {
				dv, derr := eval.CompileDelta(v.prog.Rules[i], li)
				if derr != nil {
					dv = cr // unpinned fallback: DeltaLit targeting still works
				}
				vs = append(vs, deltaVariant{rule: dv, lit: li, pred: l.Atom.Pred})
				continue
			}
			flipped := flipNeg(v.prog.Rules[i], li)
			dv, derr := eval.CompileDelta(flipped, li)
			if derr != nil {
				if dv, derr = eval.Compile(flipped); derr != nil {
					return fmt.Errorf("incr: rule %d: %w", i+1, derr)
				}
			}
			vs = append(vs, deltaVariant{rule: dv, lit: li, pred: l.Atom.Pred, neg: true})
		}
		v.variants = append(v.variants, vs)
	}
	return nil
}

// flipNeg returns a copy of the rule with body literal li made
// positive, so the literal can be scheduled first and driven by a
// delta on its predicate.
func flipNeg(r ast.Rule, li int) ast.Rule {
	body := make([]ast.Literal, len(r.Body))
	copy(body, r.Body)
	l := body[li]
	l.Neg = false
	body[li] = l
	return ast.Rule{Head: r.Head, Body: body, SrcPos: r.SrcPos}
}

// buildLayers computes the SCC condensation of the dependency graph.
// stratify returns SCCs dependencies-first, which is exactly the
// maintenance order. Layers without rules (EDB predicates) are
// dropped; rules with heads in several layers (multi-head rules)
// belong to each, applying only the heads of that layer.
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
			for _, h := range r.Head {
				if h.Kind == ast.LitAtom && !h.Neg && l.preds[h.Atom.Pred] {
					l.rules = append(l.rules, ri)
					break
				}
			}
		}
		if len(l.rules) == 0 {
			continue
		}
		l.counting = !recursive
		v.layers = append(v.layers, l)
	}
}

// initCounts enumerates every counting-layer rule against the
// materialized state once, establishing the exact per-tuple support
// counts subsequent batches maintain differentially.
func (v *View) initCounts() error {
	v.counts = map[string]map[string]supportEntry{}
	// One polled pass that is not a stage of the maintained run, so it
	// has no stage to file plan spans under.
	_, err := v.opt.Loop(nil, 0, nil, func(int) (engine.Outcome, error) {
		ctx := v.opt.EvalCtx(v.Stats, v.state, v.adom)
		ctx.PlanTrace = false
		for _, l := range v.layers {
			if !l.counting {
				continue
			}
			for pred := range l.preds {
				if v.counts[pred] == nil {
					v.counts[pred] = map[string]supportEntry{}
				}
			}
			for _, ri := range l.rules {
				rule := v.rules[ri]
				rule.Enumerate(ctx, func(b eval.Binding) bool {
					for _, f := range rule.HeadFacts(b, nil) {
						if !l.owns(f) {
							continue
						}
						c := v.counts[f.Pred]
						k := f.Tuple.Key()
						e := c[k]
						if e.t == nil {
							e.t = f.Tuple
						}
						e.n++
						c[k] = e
					}
					return true
				})
			}
		}
		return engine.Outcome{Status: engine.Last}, nil
	})
	return err
}

// owns reports whether a head fact is one the layer maintains: a
// positive fact of one of its predicates. A multi-head rule belongs to
// every layer one of its heads is in, and each applies only its own.
func (l *layer) owns(f eval.Fact) bool {
	return !f.Bottom && !f.Neg && l.preds[f.Pred]
}

// pinned returns the matcher environment for a delta variant: in is
// the instance the unpinned literals match, pin the delta driving the
// variant's pinned literal.
func (v *View) pinned(dv deltaVariant, in, pin *tuple.Instance) *eval.Ctx {
	ctx := v.opt.EvalCtx(v.Stats, in, v.adom)
	ctx.Delta, ctx.DeltaLit = pin, dv.lit
	return ctx
}

func (v *View) refreshAdom() {
	// Safe Datalog¬ cannot invent values: every IDB value comes from
	// the EDB or the program constants, so the active domain is fully
	// determined by the (much smaller) EDB part.
	edbOnly := tuple.NewInstance()
	for _, name := range v.state.Names() {
		if v.edb[name] {
			rel := v.state.Relation(name)
			edbOnly.Ensure(name, rel.Arity()).UnionInPlace(rel)
		}
	}
	v.adom = eval.ActiveDomain(v.u, v.prog.Constants(), edbOnly)
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
// so multi-delta firings count exactly once). Recursive layers run
// DRed: over-delete everything reachable from a deleted support, then
// rederive survivors and propagate genuinely new facts semi-naively.
func (v *View) Apply(assert, retract []Fact) (*Delta, error) {
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
			v.extendAdom(f.Tuple)
			v.edb[f.Pred] = true
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
			err = v.dredLayer(l, old, d)
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
	record := func(f eval.Fact, delta int64) {
		k := f.Pred + "\x00" + f.Tuple.Key()
		c := changes[k]
		if c == nil {
			c = &change{pred: f.Pred, t: f.Tuple.Clone()}
			changes[k] = c
		}
		c.n += delta
	}
	for _, gain := range []bool{false, true} {
		in, sign := old, int64(-1)
		if gain {
			in, sign = v.state, 1
		}
		for _, ri := range l.rules {
			for _, dv := range v.variants[ri] {
				pin := pinFor(dv, d, gain)
				if !hasPred(pin, dv.pred) {
					continue
				}
				dv.rule.Enumerate(v.pinned(dv, in, pin), func(b eval.Binding) bool {
					if !firstChange(dv, b, d, gain) {
						return true
					}
					for _, f := range dv.rule.HeadFacts(b, nil) {
						if l.owns(f) {
							record(f, sign)
						}
					}
					v.Stats.Fired(-1, 1, 0, 0)
					return true
				})
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

// dredLayer maintains a recursive layer with delete–rederive.
func (v *View) dredLayer(l *layer, old *tuple.Instance, d *Delta) error {
	// Phase 1: over-delete. The first stage seeds with every firing of
	// the layer's rules that a lower-layer (or EDB) change may have
	// invalidated; the following waves delete transitively along the
	// layer's internal positive edges until a wave deletes nothing.
	// Matching runs against the pre-batch state: that is where the
	// invalidated derivations lived.
	var overdel []eval.Fact
	var round *tuple.Instance
	_, err := v.opt.Loop(v.Stats, 0, nil, func(n int) (engine.Outcome, error) {
		next := tuple.NewInstance()
		for _, ri := range l.rules {
			for _, dv := range v.variants[ri] {
				pin := round
				if n == 1 {
					if l.preds[dv.pred] {
						continue // internal edges propagate in the waves
					}
					pin = pinFor(dv, d, false)
				} else if dv.neg || !l.preds[dv.pred] {
					continue
				}
				if !hasPred(pin, dv.pred) {
					continue
				}
				dv.rule.Enumerate(v.pinned(dv, old, pin), func(b eval.Binding) bool {
					for _, f := range dv.rule.HeadFacts(b, nil) {
						if l.owns(f) && v.state.Delete(f.Pred, f.Tuple) {
							d.remove(f.Pred, f.Tuple)
							next.Insert(f.Pred, f.Tuple)
							overdel = append(overdel, eval.Fact{Pred: f.Pred, Tuple: f.Tuple})
						}
					}
					v.Stats.Fired(-1, 1, 0, 0)
					return true
				})
			}
		}
		round = next
		if round.Facts() == 0 {
			return engine.Outcome{Status: engine.Last}, nil
		}
		return engine.Outcome{Delta: -round.Facts()}, nil
	})
	if err != nil {
		return err
	}

	// Phase 2: insert and rederive. Seed the genuinely new firings
	// enabled by lower-layer changes against the current state, then
	// alternate semi-naive propagation with rederivation of
	// over-deleted facts until neither makes progress.
	if err := v.propagate(l, nil, d); err != nil {
		return err
	}
	for {
		changed := false
		remaining := overdel[:0]
		for _, f := range overdel {
			if v.state.Has(f.Pred, f.Tuple) {
				continue // already back via propagation
			}
			if v.derivable(f) {
				v.state.Insert(f.Pred, f.Tuple)
				d.add(f.Pred, f.Tuple)
				delta := tuple.NewInstance()
				delta.Insert(f.Pred, f.Tuple)
				if err := v.propagate(l, delta, d); err != nil {
					return err
				}
				changed = true
			} else {
				remaining = append(remaining, f)
			}
		}
		overdel = remaining
		if !changed {
			return nil
		}
	}
}

// propagate runs semi-naive insertion rounds within a recursive layer
// until a round adds nothing. A nil delta seeds the rounds from the
// batch instead: the first round then fires the variants pinned at the
// lower-layer (or EDB) changes in d. The driver polls the view's
// context between rounds; on interruption the state holds the
// partially-propagated model and callers surface the typed error so
// the view is known to be suspect.
func (v *View) propagate(l *layer, delta *tuple.Instance, d *Delta) error {
	_, err := v.opt.Loop(v.Stats, 0, nil, func(int) (engine.Outcome, error) {
		next := tuple.NewInstance()
		emit := func(f eval.Fact) bool {
			if !l.owns(f) || !v.state.Insert(f.Pred, f.Tuple) {
				return false
			}
			d.add(f.Pred, f.Tuple)
			next.Insert(f.Pred, f.Tuple)
			return true
		}
		for _, ri := range l.rules {
			for _, dv := range v.variants[ri] {
				pin := delta
				if delta == nil {
					if l.preds[dv.pred] {
						continue
					}
					pin = pinFor(dv, d, true)
				} else if dv.neg || !l.preds[dv.pred] {
					continue
				}
				if hasPred(pin, dv.pred) {
					dv.rule.Fire(v.pinned(dv, v.state, pin), -1, nil, emit)
				}
			}
		}
		delta = next
		if delta.Facts() == 0 {
			return engine.Outcome{Status: engine.Last}, nil
		}
		return engine.Outcome{Delta: delta.Facts()}, nil
	})
	return err
}

// extendAdom merges the tuple's values into the sorted active domain.
// For safe Datalog¬ the matcher only consults the domain for
// variables not bound by positive atoms — which cannot occur — so the
// domain only matters as metadata; still, we keep it exact and sorted
// for cheap (O(log n) search + amortized insert per value).
func (v *View) extendAdom(t tuple.Tuple) {
	for _, val := range t {
		lo, hi := 0, len(v.adom)
		for lo < hi {
			mid := (lo + hi) / 2
			if v.u.Compare(v.adom[mid], val) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(v.adom) && v.adom[lo] == val {
			continue
		}
		v.adom = append(v.adom, 0)
		copy(v.adom[lo+1:], v.adom[lo:])
		v.adom[lo] = val
	}
}

// derivable reports whether some rule instantiation derives the fact
// from the current state. The fact's constants are substituted into
// the rule body before matching, so the probe is selective (it starts
// from the bound head values instead of enumerating every
// instantiation). Negated body literals are checked against the
// current state, which is final for their (strictly lower) layers.
func (v *View) derivable(f eval.Fact) bool {
	for _, cr := range v.rules {
		src := cr.Src
		head := src.Head[0].Atom
		if head.Pred != f.Pred || len(head.Args) != len(f.Tuple) {
			continue
		}
		// Bind head variables to the fact's values; constants must
		// match, repeated variables must agree.
		subst := map[string]value.Value{}
		ok := true
		for i, a := range head.Args {
			if !a.IsVar() {
				if a.Const != f.Tuple[i] {
					ok = false
					break
				}
				continue
			}
			if prev, seen := subst[a.Var]; seen && prev != f.Tuple[i] {
				ok = false
				break
			}
			subst[a.Var] = f.Tuple[i]
		}
		if !ok {
			continue
		}
		probe := ast.Rule{
			Head: []ast.Literal{ast.PosLit(ast.NewAtom("__probe"))},
			Body: substituteBody(src.Body, subst),
		}
		pc, err := eval.Compile(probe)
		if err != nil {
			continue // cannot happen for valid stratified rules
		}
		// One-shot substituted probe rules: planning them would cost
		// more than the single enumeration saves.
		ctx := v.opt.EvalCtx(v.Stats, v.state, v.adom)
		ctx.NoPlan = true
		found := false
		pc.Enumerate(ctx, func(eval.Binding) bool {
			found = true
			return false
		})
		if found {
			return true
		}
	}
	return false
}

// substituteBody applies a variable substitution to body literals,
// preserving polarity and equality literals.
func substituteBody(body []ast.Literal, subst map[string]value.Value) []ast.Literal {
	substTerm := func(tm ast.Term) ast.Term {
		if tm.IsVar() {
			if c, ok := subst[tm.Var]; ok {
				return ast.C(c)
			}
		}
		return tm
	}
	out := make([]ast.Literal, len(body))
	for i, l := range body {
		switch l.Kind {
		case ast.LitAtom:
			a := l.Atom
			args := make([]ast.Term, len(a.Args))
			for j, tm := range a.Args {
				args[j] = substTerm(tm)
			}
			nl := ast.PosLit(ast.Atom{Pred: a.Pred, Args: args})
			if l.Neg {
				nl = ast.Neg(ast.Atom{Pred: a.Pred, Args: args})
			}
			out[i] = nl
		case ast.LitEq:
			nl := l
			nl.Left = substTerm(l.Left)
			nl.Right = substTerm(l.Right)
			out[i] = nl
		default:
			out[i] = l
		}
	}
	return out
}
