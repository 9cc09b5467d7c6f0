package eval

import (
	"slices"

	"unchained/internal/ast"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Ctx carries the evaluation environment for one enumeration pass.
type Ctx struct {
	// In is the instance positive literals match against and
	// negative literals are checked against (the current K).
	In *tuple.Instance
	// Adom is the active domain adom(P, K), sorted for determinism.
	// Variables not bound by the positive body structure are
	// enumerated over it.
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
	// which needs no relation to hold it.
	DeltaFact tuple.Tuple
	// Buf, if non-nil, is the storage of every Enumerate and Fire under
	// this context (see Scratch), grown as needed, instead of storage
	// allocated per call: for a caller that enumerates many times, one
	// enumeration at a time.
	Buf *Scratch
	// Stats, if non-nil, receives an index-probe/full-scan count for
	// every relation match. A nil collector costs one branch.
	Stats *stats.Collector
	// Plans, if non-nil, shares planner schedules across rule
	// compilations (see PlanCache); nil uses a per-rule memo.
	Plans *PlanCache

	// The flags go last, side by side: engines allocate a Ctx per
	// stage, and padding after each would take it up a size class.

	// Scan disables hash-index probes (full-scan matching), for the
	// index-ablation benchmark.
	Scan bool
	// NoPlan disables the cardinality planner: rules enumerate with
	// their baseline literal-order schedule (the seed behavior, kept
	// for oracle comparisons and ablation).
	NoPlan bool
	// PlanTrace allows Enumerate to report the chosen plan through
	// Stats. Engines set it only on single-goroutine evaluation paths
	// (the collector's tracing state is not safe for concurrent
	// emission from shard workers).
	PlanTrace bool
}

// Binding is a valuation of a compiled rule's variables, indexed by
// variable id; value.None means unbound.
type Binding []value.Value

// Scratch is what an enumeration works in: the binding and every step's
// probe pattern or check tuple (vals), the relation each body literal
// reads (rels, see Rule.resolve) and Fire's head facts (fire for a rule
// with one small head, facts and heads for the others). The zero Scratch
// is ready; Ctx.Buf hands one to every enumeration under a context,
// which keeps the storage from one call to the next.
type Scratch struct {
	vals  []value.Value
	rels  []*tuple.Relation
	fire  fireScratch
	facts []Fact
	heads []value.Value
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
	// The body relations are resolved once per call. Without a Buf the
	// table lives on the stack: the rules that outgrow it are rare.
	var local [16]*tuple.Relation
	var rels []*tuple.Relation
	switch nr := r.sources(); {
	case ctx.Buf != nil:
		ctx.Buf.rels = grow(ctx.Buf.rels, nr)
		rels = ctx.Buf.rels
	case nr <= len(local):
		rels = local[:nr]
	default:
		rels = make([]*tuple.Relation, nr)
	}
	r.resolve(ctx, rels)
	steps, planned := r.planFor(ctx, rels)
	var tr *planTrace
	if ctx.Stats.Enabled() {
		tr = &planTrace{}
		if planned && ctx.PlanTrace && ctx.Stats.PlanWanted() && r.planChanged(ctx, rels, steps) {
			tr.counts = make([]int64, len(steps))
		}
	}
	// The binding and every step's probe pattern or check tuple share
	// one buffer: the whole enumeration allocates it (or reuses Buf)
	// and nothing else, however many valuations it visits.
	n := len(r.Vars) + len(steps)*r.width
	var buf []value.Value
	if ctx.Buf == nil {
		buf = make([]value.Value, n)
	} else {
		ctx.Buf.vals = grow(ctx.Buf.vals, n)
		buf = ctx.Buf.vals
		clear(buf[:len(r.Vars)])
	}
	f := frame{
		ctx: ctx, steps: steps, tr: tr,
		b: buf[:len(r.Vars):len(r.Vars)], scratch: buf[len(r.Vars):], width: r.width,
	}
	f.run(0, rels, emit)
	if tr != nil {
		ctx.Stats.ProbeBatch(tr.probes, tr.scans)
		if tr.counts != nil {
			ctx.Stats.PlanSpan(r.label(), r.planDesc(ctx, rels, steps, tr.counts))
		}
	}
	clear(rels) // a Buf must not keep the caller's instances alive
}

// sources is the length of the rule's relation table: one entry per
// body literal, and one for the head atom a head-pinned variant matches
// first.
func (r *Rule) sources() int {
	if r.deltaLit == len(r.lits) {
		return len(r.lits) + 1
	}
	return len(r.lits)
}

// resolve fills rels, by literal index, with the relation each atom
// literal reads under ctx (see source), and the other literals' entries
// with nil. An atom with an earlier one of its sign over its predicate
// takes that one's entry when neither is pinned, instead of looking the
// relation up by name again: bodies repeat predicates (a k-bit
// counter's rules read One up to k times).
func (r *Rule) resolve(ctx *Ctx, rels []*tuple.Relation) {
	for li := range rels {
		if li < len(r.lits) {
			l := &r.lits[li]
			if l.kind != ast.LitAtom {
				rels[li] = nil
				continue
			}
			if j := l.prev; j >= 0 && !r.pinned(ctx, j) && !r.pinned(ctx, li) {
				rels[li] = rels[j]
				continue
			}
		}
		rels[li] = relOf(r.source(ctx, li))
	}
}

// pinned reports whether the rule or ctx pins the literal with index li.
func (r *Rule) pinned(ctx *Ctx, li int) bool { return li == r.deltaLit || li == ctx.DeltaLit }

// source returns the instance the atom literal with index li (one past
// the body: the head atom a head-pinned variant matches) reads under
// ctx, as a step of any schedule of the rule reads it, with its
// predicate: NegIn (or In) for a negative literal the rule does not
// pin, the delta for the literal ctx pins (nil when it pins one fact,
// which matchFact matches), and In otherwise.
func (r *Rule) source(ctx *Ctx, li int) (*tuple.Instance, string) {
	pred, check := "", false
	if li == len(r.lits) {
		pred = r.heads[0].Pred
	} else {
		l := &r.lits[li]
		pred, check = l.pred, l.neg && li != r.deltaLit
	}
	switch {
	case check && ctx.NegIn != nil:
		return ctx.NegIn, pred
	case check || li != ctx.DeltaLit:
		return ctx.In, pred
	case ctx.DeltaFact != nil:
		return nil, pred
	case ctx.Delta != nil:
		return ctx.Delta, pred
	}
	return ctx.In, pred
}

// frame is the state of one Enumerate call. The scratch tuples live
// here and not in the steps, because a plan is shared by every goroutine
// that enumerates the rule (PlanCache, the shard workers). The
// cursor of a match step is a stack value of that step's run call (an
// Iterator carries no key scratch to recycle), and emit and the relation
// table travel as arguments: what a frame points to escapes with the
// binding emit is handed, and the table may be Enumerate's stack array.
type frame struct {
	ctx     *Ctx
	steps   []step
	tr      *planTrace
	b       Binding
	scratch []value.Value // width values per step depth (Rule.width)
	width   int
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
func (f *frame) drainMatch(si int, it *tuple.Iterator, rels []*tuple.Relation, emit func(Binding) bool) bool {
	st, b := &f.steps[si], f.b
	for {
		t, more := it.Next()
		if !more {
			return true
		}
		if f.tr != nil && f.tr.counts != nil {
			f.tr.counts[si]++
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
		if ok && !f.run(si+1, rels, emit) {
			return false
		}
	}
}

// matchFact is step si's match against the one fact ctx.DeltaFact:
// drainMatch over a relation holding just that fact.
func (f *frame) matchFact(si int, rels []*tuple.Relation, emit func(Binding) bool) bool {
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
	if f.tr != nil && f.tr.counts != nil {
		f.tr.counts[si]++
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
	done := !ok || f.run(si+1, rels, emit)
	for _, ab := range st.binds {
		b[ab.varID] = value.None
	}
	return done
}

// probe positions it on rel.
func (f *frame) probe(rel *tuple.Relation, mask uint32, pattern tuple.Tuple, it *tuple.Iterator) {
	f.tr.probe(f.ctx.Scan)
	if f.ctx.Scan {
		rel.ScanIter(mask, pattern, it)
	} else {
		rel.ProbeIter(mask, pattern, it)
	}
}

func (f *frame) run(si int, rels []*tuple.Relation, emit func(Binding) bool) bool {
	if si == len(f.steps) {
		return emit(f.b)
	}
	ctx, b, st := f.ctx, f.b, &f.steps[si]
	switch st.kind {
	case stepMatch:
		if ctx.DeltaFact != nil && st.litIndex == ctx.DeltaLit {
			return f.matchFact(si, rels, emit)
		}
		rel := rels[st.litIndex]
		if rel == nil || rel.Arity() != st.arity {
			return true // empty relation: no matches, keep going elsewhere
		}
		var pattern tuple.Tuple
		if st.mask != 0 {
			pattern = f.ground(si, st.slots)
		}
		var it tuple.Iterator
		f.probe(rel, st.mask, pattern, &it)
		done := f.drainMatch(si, &it, rels, emit)
		for _, ab := range st.binds {
			b[ab.varID] = value.None
		}
		return done

	case stepNegCheck:
		rel := rels[st.litIndex]
		if rel != nil && rel.Contains(f.ground(si, st.slots)) {
			return true // literal false under this valuation
		}
		return f.run(si+1, rels, emit)

	case stepEqAssign:
		// left is the unbound variable side by construction.
		b[st.left.varID] = slotVal(st.right, b)
		ok := f.run(si+1, rels, emit)
		b[st.left.varID] = value.None
		return ok

	case stepEqTest:
		l, rr := slotVal(st.left, b), slotVal(st.right, b)
		if (l == rr) == st.negEq {
			return true
		}
		return f.run(si+1, rels, emit)

	case stepEnum:
		for _, v := range ctx.Adom {
			b[st.enumVar] = v
			if !f.run(si+1, rels, emit) {
				b[st.enumVar] = value.None
				return false
			}
		}
		b[st.enumVar] = value.None
		return true

	case stepForall:
		if f.forallHolds(si, 0) {
			return f.run(si+1, rels, emit)
		}
		return true
	}
	return true
}

// forallHolds checks the ∀-literal of step si: every extension of the
// current binding over the quantified variables (valuated in the
// active domain) must satisfy all inner checks.
func (f *frame) forallHolds(si, qi int) bool {
	ctx, b, st := f.ctx, f.b, &f.steps[si]
	if qi == len(st.forallVars) {
		for _, c := range st.forallPlan {
			switch c.kind {
			case stepMatch, stepNegCheck:
				src := ctx.In
				if c.kind == stepNegCheck && ctx.NegIn != nil {
					src = ctx.NegIn
				}
				rel := relOf(src, c.pred)
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
	id := st.forallVars[qi]
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
// under ctx and passes every head fact of every satisfied valuation to
// emit, which stages the fact wherever the engine collects its stage
// (see Staging) and reports whether it is new there. Each valuation is
// one firing of rule ri (-1 for engines without per-rule attribution);
// firings and their new/already-present tally are counted in locals
// and charged to ctx.Stats once, inside the collector's rule bracket.
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
	small := len(r.heads) == 1 && r.headWidth <= len(fireScratch{}.vals)
	switch b := ctx.Buf; {
	case heads != nil:
	case b != nil && small:
		scratch, vals = b.fire.fact[:0], b.fire.vals[:r.headWidth]
	case b != nil:
		if cap(b.facts) < len(r.heads) {
			b.facts = make([]Fact, 0, len(r.heads))
		}
		b.heads = grow(b.heads, r.headWidth)
		scratch, vals = b.facts[:0], b.heads
	case small:
		fs := &fireScratch{}
		scratch, vals = fs.fact[:0], fs.vals[:r.headWidth]
	default:
		scratch, vals = make([]Fact, 0, len(r.heads)), make([]value.Value, r.headWidth)
	}
	var firings, derived, rederived uint64
	r.Enumerate(ctx, func(b Binding) bool {
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

// Staging is the set a round of a fixpoint engine collects its head
// facts in: Out is the instance the round reads, Next holds the facts
// the round derived that Out lacks. Out is not written until Fold, so
// every fact of the round is classified against Out as it stood when
// the round began, and Fold knows every staged fact to be new.
type Staging struct {
	Out, Next *tuple.Instance
	// The relations of the last fact's predicate on both sides: a rule
	// emits runs of facts for one head, so they are resolved once per
	// run and not once per fact.
	pred    string
	out, to *tuple.Relation
}

// NewStaging returns an empty staging set over out.
func NewStaging(out *tuple.Instance) *Staging {
	s := &stagingAlloc{}
	s.Out, s.Next = out, &s.next
	return &s.Staging
}

// stagingAlloc is a new staging set and its Next, in one allocation.
type stagingAlloc struct {
	Staging
	next tuple.Instance
}

// Emit is the emit function for Fire: it stages f unless Out holds it,
// and reports whether the fact is new to Out and to the round — the
// derived-versus-rederived split of the firing tally, so a round's
// derived count is the number of facts it adds.
func (s *Staging) Emit(f Fact) bool {
	if f.Pred != s.pred {
		s.pred, s.out, s.to = f.Pred, s.Out.Relation(f.Pred), s.Next.Relation(f.Pred)
	}
	if s.out != nil && s.out.Contains(f.Tuple) {
		return false
	}
	if s.to == nil {
		// Only now: a predicate the round merely rederives must not
		// appear in Next, where the next round would probe it.
		s.to = s.Next.Ensure(f.Pred, len(f.Tuple))
	}
	return s.to.Insert(f.Tuple)
}

// Fold inserts the staged facts into Out and returns their number.
func (s *Staging) Fold() int { return Fold(s.Out, s.Next) }

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
// deduplicated.
func ActiveDomain(u *value.Universe, progConsts []value.Value, in *tuple.Instance) []value.Value {
	var all []value.Value
	all = append(all, progConsts...)
	if in != nil {
		all = in.ActiveDomain(all)
	}
	slices.SortFunc(all, u.Compare)
	out := all[:0]
	var prev value.Value
	for i, v := range all {
		if i == 0 || v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}
