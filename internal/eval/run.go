package eval

import (
	"slices"

	"unchained/internal/ast"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Ctx carries the evaluation environment of an engine's enumerations:
// an engine holds one for a run and points it at each stage's instances.
type Ctx struct {
	// In is the instance positive literals match against and
	// negative literals are checked against (the current K).
	In *tuple.Instance
	// Adom is the active domain adom(P, K), sorted for determinism.
	// Variables not bound by the positive body structure are
	// enumerated over it. An engine leaves it nil when no rule it
	// enumerates reads it (DomainFor).
	Adom []value.Value
	// NegIn, if non-nil, is the instance negative literals are
	// checked against instead of In. The well-founded engine uses it
	// to evaluate the Gelfond–Lifschitz-style reduct: positives match
	// the growing fixpoint while negatives test a fixed estimate.
	NegIn *tuple.Instance
	// Delta, if non-nil, replaces In for the positive body literal
	// with index DeltaLit (semi-naive evaluation).
	Delta    *tuple.Instance
	DeltaLit int
	// DeltaFact, if non-nil, is the one fact the literal with index
	// DeltaLit matches, in place of Delta: a delta of a single fact,
	// which needs no relation to hold it. The rule then runs its
	// literal-order schedule (see stepsFor).
	DeltaFact tuple.Tuple
	// Buf is the storage of every Enumerate and Fire under this context
	// (see Scratch), grown as needed, with the schedules its rules chose:
	// enumerations under one context run one at a time. A context
	// without one gets one at its first enumeration.
	Buf *Scratch
	// Stats, if non-nil, receives the index probes and full scans of
	// every enumeration, tallied in the enumeration's frame and flushed
	// in one ProbeBatch at its end, and the plans it reports. An
	// enumeration allocates nothing for it.
	Stats *stats.Collector
	// Plans, if non-nil, shares planner schedules across rule
	// compilations and contexts (see PlanCache); every context keeps
	// those its rules chose in its Buf anyway.
	Plans *PlanCache
	// Done, if non-nil, stops the enumerations under the context within
	// 256 firings of its closing (one non-blocking check per 256): the
	// enumeration returns early, and so does every later one, and
	// Stopped reports it. An engine that sets it must not apply a stage
	// its enumerations did not finish.
	Done <-chan struct{}

	// polls counts the firings since Done was last checked.
	polls uint32

	// Scan disables hash-index probes (full-scan matching), for the
	// index-ablation benchmark.
	Scan bool
	// NoPlan disables the cardinality planner: rules enumerate with
	// their baseline literal-order schedule (the seed behavior, kept
	// for oracle comparisons and ablation).
	NoPlan bool
	// stopped: Done closed during an enumeration.
	stopped bool
}

// Stopped reports whether Done stopped an enumeration under ctx.
func (ctx *Ctx) Stopped() bool { return ctx.stopped }

// poll counts a firing and, every 256th, checks Done without blocking.
// It reports whether the enumeration must stop.
func (ctx *Ctx) poll() bool {
	if ctx.polls++; ctx.polls&255 != 0 {
		return false
	}
	select {
	case <-ctx.Done:
		ctx.stopped = true
		return true
	default:
		return false
	}
}

// Binding is a valuation of a compiled rule's variables, indexed by
// variable id; value.None means unbound.
type Binding []value.Value

// Scratch is what an enumeration works in: the binding and every step's
// probe pattern or check tuple (vals), every match step's cursor (its:
// cursors, for the programs whose rules match at most four atoms), the
// context's slot table (tab), with the schedule each rule chose, and
// Fire's head facts (fire for a rule with one small head, facts and
// heads for the others). The zero Scratch is ready; Ctx.Buf hands one to
// every enumeration under a context, which keeps the storage and the
// schedules from one call to the next. A Scratch is not copied.
type Scratch struct {
	vals    []value.Value
	its     []tuple.Iterator
	cursors [4]tuple.Iterator
	tab     slotTable
	fire    fireScratch
	facts   []Fact
	heads   []value.Value
}

// grow returns s's slice resized to n, reallocated only when it is too
// short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Enumerate calls emit for every valuation of the rule's body that is
// satisfied in ctx. The binding passed to emit is reused across
// calls; emit must copy it if it needs to retain it. emit returning
// false stops the enumeration early. Head-only (invented) variables
// are left as value.None in the binding.
func (r *Rule) Enumerate(ctx *Ctx, emit func(Binding) bool) {
	r.enumerate(ctx, false, emit)
}

// enumerate is Enumerate, which with cut visits only the first witness
// of each existential block (see cutBlocks): every head fact is still
// emitted at least once, and first where Enumerate emits it first.
func (r *Rule) enumerate(ctx *Ctx, cut bool, emit func(Binding) bool) {
	if ctx.stopped {
		return
	}
	b := ctx.scratch()
	tab := &b.tab
	steps, report := r.stepsFor(ctx, tab)
	// The binding and every step's probe pattern or check tuple share
	// one buffer, and every match step has a cursor: the whole
	// enumeration takes those two from the Scratch, grown if they are
	// too short, however many valuations it visits.
	n, nc := len(r.Vars)+len(steps)*r.width, len(r.posBody)+1
	switch {
	case len(b.its) >= nc:
	case nc <= len(b.cursors):
		b.its = b.cursors[:]
	default:
		b.its = make([]tuple.Iterator, max(nc, r.prog.cursors)) // room for every rule of the program
	}
	b.vals = grow(b.vals, n)
	buf, its := b.vals, b.its
	clear(buf[:len(r.Vars)])
	// Assigned field by field: a composite literal would be built aside
	// and copied.
	var f frame
	f.ctx, f.steps, f.its, f.width, f.cuts = ctx, steps, its, r.width, cut
	f.b, f.scratch = buf[:len(r.Vars):len(r.Vars)], buf[len(r.Vars):]
	np := len(r.prog.preds)
	f.rels, f.neg, f.delta = tab.rels, secIn*np, secDelta*np
	if ctx.NegIn != nil { // absence checks read NegIn, or In without one
		f.neg = secNeg * np
	}
	if report {
		tab.counts = grow(tab.counts, len(steps))
		clear(tab.counts)
		f.counts = tab.counts
	}
	f.run(0, emit)
	ctx.Stats.ProbeBatch(f.probes, f.scans)
	if report {
		ctx.Stats.PlanSpan(r.label(), r.appendPlan(ctx.Stats.PlanText(), ctx, tab, steps, f.counts))
	}
}

// stepsFor brings tab up to date with ctx — it resolves the body
// relations once per stage, not per call — and returns the schedule r
// enumerates with under ctx and whether this enumeration reports it
// (slotTable.plan). Under NoPlan a planned rule runs its literal-order
// schedule, and so does a pin at one fact (DeltaFact): the fact goes
// first and each join after it is the one with the most columns bound.
// Planning it afresh on every call would cost about as much as a check.
func (r *Rule) stepsFor(ctx *Ctx, tab *slotTable) ([]step, bool) {
	tab.sync(ctx, r.prog)
	switch {
	case !r.planned():
		return r.steps, false
	case ctx.NoPlan || ctx.DeltaFact != nil:
		return tab.literal(r), false
	}
	return tab.plan(ctx, r)
}

// frame is the state of one Enumerate call, on its stack. The scratch
// tuples and the cursors live here and not in the steps, because a plan
// is shared by every evaluation that enumerates the rule (a PlanCache
// hands one plan to the concurrent requests of a program); a step
// reuses its depth's cursor from one probe to the next. rels is the slot table's: a match step reads its In section (the
// Delta section, at offset delta, for the literal ctx pins to a delta
// relation), an absence check the section at offset neg. probes and
// scans tally the relation matches for ctx.Stats, so the match loop
// never touches a shared atomic; counts, only when the enumeration
// reports its plan, is the number of tuples each step pulled (the act=
// of the plan's text), in the slot table's reused storage. cuts turns
// the existential cut on (Fire), and stop is the pending cut: the loop
// step plus one that the steps unwind to (0: none; see ended).
type frame struct {
	ctx           *Ctx
	steps         []step
	probes, scans uint64
	counts        []int64
	b             Binding
	scratch       []value.Value // width values per step depth (Rule.width)
	width         int
	its           []tuple.Iterator // one per match step (step.cursor)
	rels          []*tuple.Relation
	neg, delta    int
	stop          int32
	cuts          bool
}

// ended is called where step si's recursive call returns true: the
// steps after si are done with the current binding. At the end of an
// existential block it sets the cut to the block's loop step. It
// reports whether step si's loop stops here: si is inside the block
// being cut, and the loop the cut names takes it back.
func (f *frame) ended(si int, st *step) bool {
	if st.cut != 0 && f.cuts {
		f.stop = st.cut
	}
	if f.stop == 0 {
		return false
	}
	if f.stop == int32(si)+1 {
		f.stop = 0
	}
	return true
}

// ground writes slots under the current binding into step si's scratch
// and returns it as a tuple: a probe pattern (unbound positions hold
// whatever the binding does; probes ignore them) or a fully bound fact
// to test. It is valid until the next ground call for the same depth.
func (f *frame) ground(si int, slots []slot) tuple.Tuple {
	t := f.scratch[si*f.width:][:len(slots)]
	for pos, s := range slots {
		t[pos] = slotVal(s, f.b)
	}
	return tuple.Tuple(t)
}

// drainMatch pulls it, step si's iterator, dry, binding and recursing
// per candidate. Returns false on early exit.
func (f *frame) drainMatch(si int, it *tuple.Iterator, emit func(Binding) bool) bool {
	st, b := &f.steps[si], f.b
	for {
		t, more := it.Next()
		if !more {
			return true
		}
		if f.counts != nil {
			f.counts[si]++
		}
		ok := true
		for _, ab := range st.binds {
			b[ab.varID] = t[ab.pos]
		}
		for _, ac := range st.checks {
			if t[ac.pos] != b[ac.varID] {
				ok = false
				break
			}
		}
		if ok {
			if !f.run(si+1, emit) {
				return false
			}
			if f.ended(si, st) {
				return true
			}
		}
	}
}

// matchFact is step si's match against the one fact ctx.DeltaFact:
// drainMatch over a relation holding just that fact.
func (f *frame) matchFact(si int, emit func(Binding) bool) bool {
	st, b, t := &f.steps[si], f.b, f.ctx.DeltaFact
	if len(t) != st.arity {
		return true
	}
	if st.mask != 0 {
		pattern := f.ground(si, st.slots)
		for pos, v := range t {
			if st.mask&(1<<uint(pos)) != 0 && v != pattern[pos] {
				return true
			}
		}
	}
	if f.counts != nil {
		f.counts[si]++
	}
	for _, ab := range st.binds {
		b[ab.varID] = t[ab.pos]
	}
	ok := true
	for _, ac := range st.checks {
		if t[ac.pos] != b[ac.varID] {
			ok = false
			break
		}
	}
	done := !ok || f.run(si+1, emit)
	if ok && done {
		f.ended(si, st)
	}
	for _, ab := range st.binds {
		b[ab.varID] = value.None
	}
	return done
}

// probe positions it on rel.
func (f *frame) probe(rel *tuple.Relation, mask uint32, pattern tuple.Tuple, it *tuple.Iterator) {
	if f.ctx.Scan {
		f.scans++
		rel.ScanIter(mask, pattern, it)
	} else {
		f.probes++
		rel.ProbeIter(mask, pattern, it)
	}
}

func (f *frame) run(si int, emit func(Binding) bool) bool {
	if si == len(f.steps) {
		if f.ctx.Done != nil && f.ctx.poll() {
			return false
		}
		return emit(f.b)
	}
	ctx, b, st := f.ctx, f.b, &f.steps[si]
	switch st.kind {
	case stepMatch:
		rel := f.rels[st.pred]
		if st.litIndex == ctx.DeltaLit {
			if ctx.DeltaFact != nil {
				return f.matchFact(si, emit)
			}
			if ctx.Delta != nil {
				rel = f.rels[f.delta+st.pred]
				if rel != nil && rel.Empty() {
					return true // a delta view its relation added nothing to: nothing to probe
				}
			}
		}
		if rel == nil || rel.Arity() != st.arity {
			return true // empty relation: no matches, keep going elsewhere
		}
		if st.full && !ctx.Scan {
			// Every position bound: a membership test, which binds
			// nothing.
			f.probes++
			if !rel.Contains(f.ground(si, st.slots)) {
				return true
			}
			if f.counts != nil {
				f.counts[si]++
			}
			break
		}
		var pattern tuple.Tuple
		if st.mask != 0 {
			pattern = f.ground(si, st.slots)
		}
		it := &f.its[st.cursor]
		f.probe(rel, st.mask, pattern, it)
		done := f.drainMatch(si, it, emit)
		for _, ab := range st.binds {
			b[ab.varID] = value.None
		}
		return done

	case stepNegCheck:
		rel := f.rels[f.neg+st.pred]
		if rel != nil && rel.Contains(f.ground(si, st.slots)) {
			return true // literal false under this valuation
		}

	case stepEqAssign:
		// left is the unbound variable side by construction.
		b[st.left.varID] = slotVal(st.right, b)
		ok := f.run(si+1, emit)
		b[st.left.varID] = value.None
		if ok {
			f.ended(si, st)
		}
		return ok

	case stepEqTest:
		l, rr := slotVal(st.left, b), slotVal(st.right, b)
		if (l == rr) == st.negEq {
			return true
		}

	case stepEnum:
		for _, v := range ctx.Adom {
			b[st.enumVar] = v
			if !f.run(si+1, emit) {
				b[st.enumVar] = value.None
				return false
			}
			if f.ended(si, st) {
				break
			}
		}
		b[st.enumVar] = value.None
		return true

	case stepForall:
		if !f.forallHolds(si, 0) {
			return true
		}
	}
	// A test passed (a membership, an absence, an (in)equality, a ∀):
	// on to the next step.
	if !f.run(si+1, emit) {
		return false
	}
	f.ended(si, st)
	return true
}

// forallHolds checks the ∀-literal of step si: every extension of the
// current binding over the quantified variables (valuated in the
// active domain) must satisfy all inner checks.
func (f *frame) forallHolds(si, qi int) bool {
	ctx, b, st := f.ctx, f.b, &f.steps[si]
	if qi == len(st.forall.vars) {
		for _, c := range st.forall.plan {
			switch c.kind {
			case stepMatch, stepNegCheck:
				rel := f.rels[c.pred]
				if c.kind == stepNegCheck {
					rel = f.rels[f.neg+c.pred]
				}
				has := rel != nil && rel.Contains(f.ground(si, c.slots))
				if has == (c.kind == stepNegCheck) {
					return false
				}
			case stepEqTest:
				l, rr := slotVal(c.left, b), slotVal(c.right, b)
				if (l == rr) == c.negEq {
					return false
				}
			}
		}
		return true
	}
	id := st.forall.vars[qi]
	saved := b[id]
	for _, v := range ctx.Adom {
		b[id] = v
		if !f.forallHolds(si, qi+1) {
			b[id] = saved
			return false
		}
	}
	b[id] = saved
	return true
}

func slotVal(s slot, b Binding) value.Value {
	if s.isVar {
		return b[s.varID]
	}
	return s.val
}

// Fact is one emitted head fact.
type Fact struct {
	Neg    bool // retraction (Datalog¬¬ head negation)
	Bottom bool // the inconsistency symbol ⊥
	Pred   string
	Tuple  tuple.Tuple
}

// HeadFacts materializes the head literals of the rule under binding
// b into fresh storage the caller may keep. invent supplies values for
// head-only variables; it is called once per head-only variable per
// call (so all head literals of one firing share the invented values).
// invent may be nil when the rule has no head-only variables.
func (r *Rule) HeadFacts(b Binding, invent func(varID int) value.Value) []Fact {
	if len(r.headOnly) > 0 {
		local := make(Binding, len(b))
		copy(local, b)
		for _, id := range r.headOnly {
			local[id] = invent(id)
		}
		b = local
	}
	return r.appendHeads(make([]Fact, 0, len(r.heads)), make([]value.Value, r.headWidth), b)
}

// ScratchHeads returns a heads function for Fire that materializes into
// scratch the next call overwrites, as Fire does with a nil heads: for a
// caller whose own heads function looks at the binding first.
func (r *Rule) ScratchHeads() func(Binding) []Fact {
	scratch, vals := make([]Fact, 0, len(r.heads)), make([]value.Value, r.headWidth)
	return func(b Binding) []Fact { return r.appendHeads(scratch, vals, b) }
}

// appendHeads appends the rule's head facts under b to out, writing
// their tuples into vals (r.headWidth values).
func (r *Rule) appendHeads(out []Fact, vals []value.Value, b Binding) []Fact {
	for _, h := range r.heads {
		if h.Bottom {
			out = append(out, Fact{Bottom: true})
			continue
		}
		n := len(h.Slots)
		for pos, s := range h.Slots {
			vals[pos] = slotVal(s, b)
		}
		out = append(out, Fact{Neg: h.Neg, Pred: h.Pred, Tuple: tuple.Tuple(vals[:n:n])})
		vals = vals[n:]
	}
	return out
}

// Fire is the firing kernel the engines share: it enumerates the rule
// under ctx and passes the head facts of the satisfied valuations to
// emit, which stages the fact wherever the engine collects its stage
// (see Staging) and reports whether it is new there. Every head fact is
// passed at least once, but a valuation that differs from an earlier
// one only in the variables of an existential block is not visited
// (see cutBlocks): set semantics needs one derivation per fact. Each
// valuation visited is one firing of rule ri (-1 for engines without
// per-rule attribution); firings and their new/already-present tally
// are counted in locals and charged to ctx.Stats once, inside the
// collector's rule bracket.
//
// heads materializes a valuation's head facts; an engine passes its
// own to invent values or to look at the binding. With a nil heads the
// facts are written into scratch that the next valuation overwrites:
// Fact.Tuple is then valid only during the emit call, and an emit that
// keeps a fact must copy the tuple (Relation.Insert does).
func (r *Rule) Fire(ctx *Ctx, ri int, heads func(Binding) []Fact, emit func(Fact) bool) {
	col := ctx.Stats
	col.BeginRule(ri)
	var scratch []Fact
	var vals []value.Value
	switch b := ctx.scratch(); {
	case heads != nil:
	case len(r.heads) == 1 && r.headWidth <= len(b.fire.vals):
		scratch, vals = b.fire.fact[:0], b.fire.vals[:r.headWidth]
	default:
		if cap(b.facts) < len(r.heads) {
			b.facts = make([]Fact, 0, len(r.heads))
		}
		b.heads = grow(b.heads, r.headWidth)
		scratch, vals = b.facts[:0], b.heads
	}
	var firings, derived, rederived uint64
	r.enumerate(ctx, true, func(b Binding) bool {
		var facts []Fact
		if heads != nil {
			facts = heads(b)
		} else {
			facts = r.appendHeads(scratch, vals, b)
		}
		firings++
		for _, f := range facts {
			if emit(f) {
				derived++
			} else {
				rederived++
			}
		}
		return true
	})
	col.Fired(ri, firings, derived, rederived)
	col.EndRule(ri)
}

// fireScratch is the head scratch of a rule with one head atom of arity
// up to four, in one allocation.
type fireScratch struct {
	fact [1]Fact
	vals [4]value.Value
}

// Staging is where a fixpoint engine collects the head facts of its
// rounds, for a whole run. Out is the instance the rounds read and the
// one their facts join: Emit stages each fact Out lacks into Out's own
// relation (tuple.Relation.Stage: one hash, one lookup, one copy), where
// no reader sees it until Fold publishes it, so every fact of a round is
// classified against Out as it stood when the round began. Delta holds
// the facts the last Fold added (empty before the first): one read-only
// view per relation, aliasing the rows Fold published in Out. A Delta
// is valid until the next Fold; whoever keeps one longer keeps a
// Snapshot of it. A round the engine stops is undone by Discard.
type Staging struct {
	Out, Delta *tuple.Instance
	// The relation of the last fact's predicate in Out, and its view in
	// Delta (nil until the run first stages into it): a rule emits runs
	// of facts for one head, so they are resolved once per run and not
	// once per fact.
	pred      string
	out, view *tuple.Relation
	rels      []stagedRel
	delta     tuple.Instance
}

// stagedRel is a relation of Out a run has staged into, beside its view
// in Delta. made marks one the current round added to Out.
type stagedRel struct {
	name      string
	out, view *tuple.Relation
	made      bool
}

// NewStaging returns an empty staging set over out.
func NewStaging(out *tuple.Instance) *Staging {
	s := &Staging{Out: out}
	s.Delta = &s.delta
	return s
}

// Emit is the emit function for Fire: it stages f unless Out holds it
// or the round staged it already, and reports whether it did — the
// derived-versus-rederived split of the firing tally, so a round's
// derived count is the number of facts it adds.
func (s *Staging) Emit(f Fact) bool {
	if f.Pred != s.pred {
		s.pred, s.out, s.view = f.Pred, s.Out.Relation(f.Pred), s.Delta.Relation(f.Pred)
	}
	if s.view == nil {
		return s.first(f)
	}
	return s.out.Stage(f.Tuple)
}

// first is Emit for a predicate the run has not staged into: only a new
// fact gives it a view in Delta (a predicate the round merely rederives
// gets none, where the next round would probe it), and a relation in
// Out if it has none.
func (s *Staging) first(f Fact) bool {
	made := s.out == nil
	if made {
		s.out = s.Out.Ensure(f.Pred, len(f.Tuple))
	}
	if !s.out.Stage(f.Tuple) {
		return false
	}
	s.view = s.Delta.Ensure(f.Pred, len(f.Tuple))
	s.rels = append(s.rels, stagedRel{f.Pred, s.out, s.view, made})
	return true
}

// Fold publishes the round's staged facts in Out, points each view of
// Delta at the facts its relation added (none for a relation that added
// none), and returns their number.
func (s *Staging) Fold() int {
	n := 0
	for i := range s.rels {
		e := &s.rels[i]
		n += e.out.Publish(e.view)
		e.made = false
	}
	s.pred, s.out, s.view = "", nil, nil
	return n
}

// Discard undoes the round: it drops the staged facts, and the
// relations the round added, from Out, which is then exactly as the
// round found it; Delta keeps the last Fold's facts.
func (s *Staging) Discard() {
	kept := s.rels[:0]
	for _, e := range s.rels {
		e.out.Unstage()
		if e.made {
			s.Out.Remove(e.name)
			s.Delta.Remove(e.name)
		} else {
			kept = append(kept, e)
		}
	}
	s.rels = kept
	s.pred, s.out, s.view = "", nil, nil
}

// Fold inserts every fact of from into out and returns from's size.
func Fold(out, from *tuple.Instance) int {
	from.EachRel(func(name string, r *tuple.Relation) {
		out.Ensure(name, r.Arity()).UnionInPlace(r)
	})
	return from.Facts()
}

// AppendBodyAtom appends the arguments of the atom literal (positive or
// negative) with index litIndex under binding b to dst, storage the
// caller reuses: the body fact a firing reads there.
func (r *Rule) AppendBodyAtom(dst []value.Value, b Binding, litIndex int) []value.Value {
	for _, s := range r.lits[litIndex].slots {
		dst = append(dst, slotVal(s, b))
	}
	return dst
}

// groundAtom materializes an atom literal under b into fresh storage.
func groundAtom(l *lit, b Binding) tuple.Tuple {
	t := make(tuple.Tuple, len(l.slots))
	for i, s := range l.slots {
		t[i] = slotVal(s, b)
	}
	return t
}

// BodySupports materializes the positive body atoms of the rule under
// binding b — the facts a firing "used", as recorded by provenance
// tracking. The returned facts are positive and in body order.
func (r *Rule) BodySupports(b Binding) []Fact {
	var out []Fact
	for i := range r.lits {
		if l := &r.lits[i]; l.kind == ast.LitAtom && !l.neg {
			out = append(out, Fact{Pred: l.pred, Tuple: groundAtom(l, b)})
		}
	}
	return out
}

// ActiveDomain computes adom(P, I): the program's constants plus
// every value occurring in the instance, sorted by u.Compare and
// deduplicated. The values are deduplicated first, by id in place, so
// the comparison sort, which reads names, sees each value once.
func ActiveDomain(u *value.Universe, progConsts []value.Value, in *tuple.Instance) []value.Value {
	var all []value.Value
	all = append(all, progConsts...)
	if in != nil {
		all = in.ActiveDomain(all)
	}
	slices.Sort(all)
	all = slices.Compact(all)
	slices.SortFunc(all, u.Compare)
	return all
}

// ReadsDomain reports whether a schedule of one of rules may enumerate
// a variable over the active domain: whether an engine that evaluates
// them needs adom(P, K) at all (see text.readsDomain).
func ReadsDomain(rules []*Rule) bool {
	for _, r := range rules {
		if r.readsDomain() {
			return true
		}
	}
	return false
}

// DomainFor returns adom(p, in) when one of rules, p's compiled rules,
// reads it (ReadsDomain), and nil when none does: the paper's engines
// need the domain only for the variables no positive literal binds.
func DomainFor(rules []*Rule, p *ast.Program, u *value.Universe, in *tuple.Instance) []value.Value {
	if !ReadsDomain(rules) {
		return nil
	}
	return ActiveDomain(u, p.Constants(), in)
}
