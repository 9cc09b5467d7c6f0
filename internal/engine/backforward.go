package engine

import (
	"slices"
	"sync"

	"unchained/internal/eval"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// BackwardForward is the deletion step of incremental maintenance for
// one layer of a materialized model: the Backward/Forward algorithm of
// Motik, Nenov, Piro and Horrocks (AAAI 2015). Told which
// facts of the layer a change below it may have invalidated, it deletes
// from the state exactly the facts that lost their last proof. What the
// change makes newly derivable is the caller's to insert afterwards.
//
// It has two callers. incr.View maintains each layer of a view after a
// batch took facts away below it. The well-founded alternation
// shrinks a group's over-estimate Γ(underᵢ₋₁) to Γ(underᵢ): the
// under-estimate grew, so some negative literals stopped holding. There
// negative literals read Run's negIn, the new under-estimate, whose facts
// every over-estimate holds, so they are proved outright.
//
// Nothing is deleted before it is checked backward. The head-pinned
// plan enumerates the firings that derive the fact over the current
// state, and the fact is proved when some firing's positive body facts
// over the layer's own predicates are proved in turn. Those are checked
// recursively, each fact at most once per Run. Lower layers are final,
// so their facts read the state as it is, and every negative literal
// reads negIn, or the state when that is nil.
//
// A fact whose check is still open is not proved, so no fact proves
// itself around a cycle. "Unproved" is then not final while a check is
// open: a fact proved later may complete a firing of a fact whose check
// closed waiting on it. So a proof saturates: it is chained forward,
// through the plans pinned at the proved fact, to every checked fact it
// completes a proved firing for. Once a top-level check returns, each
// firing of a checked fact left unproved has an unproved body fact:
// they form an unfounded set, and none of them holds.
//
// A wave is one stage. It checks its candidates, deletes what stayed
// unproved and gathers the next wave's candidates: the heads of firings
// through a deleted fact, matched while the deleted facts are still in
// the state. A wave's derived count is the number of facts it deletes,
// and its delta is minus that.
//
// Every rule has one positive head atom. Run is called once per
// maintained batch, one Run at a time.
type BackwardForward struct {
	// preds are the layer's predicates, the heads of the rules; plans and
	// facts name them by index.
	preds  []string
	arity  []int
	checks []bfPlan // the head-pinned plans, those with no literal over the layer first
	// forward are the delta variants of the rules pinned at a positive
	// literal over the layer.
	forward []bfPlan
}

// bfRuns holds the state of finished Runs, *bfRun, for the next Run of
// any BackwardForward to reuse the storage of: a pool, so that between
// batches the garbage collector may still take it. A view's batches find
// their layer's own state again; a well-founded evaluation, whose groups
// each build a BackwardForward, finds the last group's.
var bfRuns = sync.Pool{New: func() any {
	r := &bfRun{}
	r.onSeed = r.seedFact
	return r
}}

// bfPlan is a plan with the positive body literals over the layer that
// it does not pin.
type bfPlan struct {
	rule *eval.Rule
	// pred is a check's head predicate and a forward plan's pinned one,
	// head a forward plan's head predicate.
	pred, head int
	own        []int // body indexes
	ownPred    []int
	heads      func(eval.Binding) []eval.Fact // forward plans only
}

// NewBackwardForward returns the deletion step of the layer whose rules
// are rules. heads[i] is rules[i]'s delta variant pinned at its head
// atom: fired over one fact of the head predicate, it enumerates the
// firings that derive it. forward holds the rules' delta variants pinned
// at each positive body literal over the layer's predicates: the
// variants a semi-naive run over the layer fires after its first round.
// Every plan runs in literal order: the pinned fact, or the few facts a
// wave deleted, go first, and each join after them is the one with the
// most columns bound. The planner leaves the head-pinned variants alone;
// the forward ones are scheduled here, once (eval.Rule.Literal), and not
// at a view's first batch.
func NewBackwardForward(rules, heads []*eval.Rule, forward []DeltaVariant) *BackwardForward {
	bf := &BackwardForward{forward: make([]bfPlan, 0, len(forward))}
	for _, r := range rules {
		if h := r.Heads()[0]; bf.pred(h.Pred) < 0 {
			bf.preds, bf.arity = append(bf.preds, h.Pred), append(bf.arity, len(h.Slots))
		}
	}
	plan := func(r *eval.Rule, pred int) bfPlan {
		p := bfPlan{rule: r, pred: pred, head: bf.pred(r.Heads()[0].Pred)}
		for _, li := range r.PositiveBodyLits() {
			if own := bf.pred(r.Src.Body[li].Atom.Pred); li != r.DeltaLit() && own >= 0 {
				p.own, p.ownPred = append(p.own, li), append(p.ownPred, own)
			}
		}
		return p
	}
	bf.checks = make([]bfPlan, 0, len(rules))
	for _, h := range heads {
		bf.checks = append(bf.checks, plan(h, bf.pred(h.Heads()[0].Pred)))
	}
	slices.SortStableFunc(bf.checks, func(a, b bfPlan) int { return min(len(a.own), 1) - min(len(b.own), 1) })
	for _, v := range forward {
		f := plan(v.Rule.Literal(), bf.pred(v.Rule.Src.Body[v.Rule.DeltaLit()].Atom.Pred))
		f.heads = f.rule.ScratchHeads()
		bf.forward = append(bf.forward, f)
	}
	return bf
}

// pred returns the index of a layer predicate, -1 for any other.
func (bf *BackwardForward) pred(name string) int {
	for i, p := range bf.preds {
		if p == name {
			return i
		}
	}
	return -1
}

// Run deletes from state the layer's facts that lost their last proof
// and adds them to deleted, which the caller owns: Run only inserts into
// it. seed enumerates the first
// wave's candidates through emit, which passes over a fact the state
// lacks and reports false: a candidate is no fact the stage adds. negIn and adom are what the
// enumerations' negative literals and unbound variables read (nil: the
// state, and no domain). A layer fact negIn holds is proved outright. On
// a context interruption between waves deleted holds the facts deleted
// so far, and the typed error is returned.
func (bf *BackwardForward) Run(opt *Options, state, negIn *tuple.Instance, adom []value.Value, seed func(emit func(eval.Fact) bool), deleted *tuple.Instance) error {
	col := opt.Collector()
	r := bfRuns.Get().(*bfRun)
	defer bfRuns.Put(r)
	r.bind(bf)
	r.open, r.waiting, r.firings = 0, 0, 0
	for _, l := range []*factList{&r.pending, &r.queue, &r.cand, &r.wave} {
		l.truncate(0)
	}
	r.from, r.need = r.from[:0], r.need[:0]
	r.ctx = *opt.EvalCtx(col, state, adom)
	r.ctx.NegIn, r.ctx.Buf = negIn, &r.buf
	for i, name := range bf.preds {
		rels := &r.rels[i]
		rels.state = state.Ensure(name, bf.arity[i])
		rels.checked.Clear()
		rels.proved.Clear()
		if negIn != nil {
			rels.base = negIn.Relation(name)
		}
	}
	_, err := opt.Loop(col, 0, nil, func(n int) (Outcome, error) {
		if n == 1 {
			seed(r.onSeed)
		}
		for i := range r.cand.at {
			r.check(r.cand.fact(i))
			r.open, r.waiting = 0, 0 // what the check left unproved is final
		}
		k := r.collect()
		r.cand.truncate(0)
		r.wave.truncate(0)
		if k > 0 {
			r.ctx.Delta = r.gone
			for i := range r.forward {
				if f := &r.forward[i]; !r.gone.Ensure(bf.preds[f.pred], bf.arity[f.pred]).Empty() {
					r.fire(f, nil, r.nextFiring)
				}
			}
			r.gone.EachRel(func(pred string, rel *tuple.Relation) {
				if rel.Empty() {
					return
				}
				st := state.Relation(pred)
				rel.Each(func(t tuple.Tuple) bool {
					st.Delete(t)
					return true
				})
				deleted.Ensure(pred, rel.Arity()).UnionInPlace(rel)
			})
		}
		col.Fired(-1, r.firings, uint64(k), 0)
		r.firings = 0
		if len(r.cand.at) == 0 {
			return Outcome{Status: Last, Delta: -k}, nil
		}
		return Outcome{Delta: -k}, nil
	})
	r.ctx = eval.Ctx{}
	r.buf.Release()
	for i := range r.rels {
		r.rels[i].state, r.rels[i].base = nil, nil
	}
	return err
}

// bfRun is the state of a Run. The memo (rels), the lists and the
// buffers keep their storage for the next Run that takes it from the
// pool, which clears them and binds it to its BackwardForward.
type bfRun struct {
	*BackwardForward
	ctx  eval.Ctx
	rels []bfRels // per layer predicate
	// open counts the facts the current top-level check has checked and
	// not (yet) proved: while it is 0 no proof has anyone to saturate.
	open int
	// waiting counts the facts whose check closed unproved meanwhile.
	waiting int
	// cur is the plan being enumerated, found whether a check's firing
	// proved it, firings the wave's tally.
	cur     *bfPlan
	found   bool
	firings uint64
	// pending holds the body facts the open checks recurse into, queue
	// the proved facts saturation chains forward from, cand the wave's
	// candidates and wave the facts it checked.
	pending, queue, cand, wave factList
	// from holds the index in need of each pending fact's firing; need
	// holds per firing of an open check its body facts not proved.
	from, need []int
	// buf is the enumerations' buffer (eval.Ctx.Buf), scratch the body
	// fact a saturation step tests.
	buf     eval.Scratch
	scratch []value.Value
	// gone holds the facts the current wave deletes, from the first wave
	// that deletes one.
	gone *tuple.Instance
	// onSeed is seedFact, bound once per bfRun: a seed keeps its emit
	// where an enumeration does not.
	onSeed func(eval.Fact) bool
}

// bfRels are one layer predicate's relations in the state and in the
// batch's memo (the facts checked and those proved), and in negIn (base:
// the facts proved outright), if any.
type bfRels struct {
	state, checked, proved, base *tuple.Relation
}

// bind makes r the state of bf's Run. A state another BackwardForward
// left keeps its memo relations where the arities match.
func (r *bfRun) bind(bf *BackwardForward) {
	if r.BackwardForward == bf {
		return
	}
	r.BackwardForward, r.gone = bf, nil
	r.rels = slices.Grow(r.rels[:0], len(bf.preds))[:len(bf.preds)]
	for i, a := range bf.arity {
		if rels := &r.rels[i]; rels.checked == nil || rels.checked.Arity() != a {
			rels.checked, rels.proved = tuple.NewRelation(a), tuple.NewRelation(a)
		}
	}
}

// seedFact is the emit of Run's seed: a candidate the state holds joins
// the first wave.
func (r *bfRun) seedFact(f eval.Fact) bool {
	if p := r.pred(f.Pred); p >= 0 && r.rels[p].state.Contains(f.Tuple) {
		r.cand.push(p, f.Tuple)
	}
	return false
}

// fire enumerates plan p pinned at fact t, or at ctx.Delta when t is
// nil.
func (r *bfRun) fire(p *bfPlan, t tuple.Tuple, emit func(eval.Binding) bool) {
	r.cur = p
	r.ctx.DeltaFact, r.ctx.DeltaLit = t, p.rule.DeltaLit()
	p.rule.Enumerate(&r.ctx, emit)
}

// collect puts the facts the wave checked and left unproved into gone,
// emptied first, and returns their number.
func (r *bfRun) collect() int {
	if r.gone != nil {
		r.gone.EachRel(func(_ string, rel *tuple.Relation) { rel.Clear() })
	}
	k := 0
	for i := range r.wave.at {
		if p, t := r.wave.fact(i); !r.rels[p].proved.Contains(t) {
			if r.gone == nil {
				r.gone = tuple.NewInstance()
			}
			r.gone.Ensure(r.preds[p], len(t)).Insert(t)
			k++
		}
	}
	return k
}

// check reports whether fact t of layer predicate p is proved, checking
// it first if no check has. The firings found hold body facts no check
// has seen yet; the check recurses into them until one of its firings
// has all its body facts proved, or a proof below saturates up to it.
func (r *bfRun) check(p int, t tuple.Tuple) bool {
	rels := &r.rels[p]
	if !rels.checked.Insert(t) {
		return rels.proved.Contains(t)
	}
	if rels.base != nil && rels.base.Contains(t) {
		// No check waiting can need t: a check closes only once every body
		// fact of its firings is checked, and t was not.
		rels.proved.Insert(t)
		return true
	}
	r.wave.push(p, t)
	r.open++
	mark, fmark := len(r.pending.at), len(r.need)
	r.found = false
	for i := range r.checks {
		if c := &r.checks[i]; c.pred == p && !r.found {
			r.fire(c, t, r.checkFiring)
		}
	}
	// Only saturation proves t behind the loop's back, and it runs only
	// while some fact waits.
	proved := r.found
	for i := mark; !proved && i < len(r.pending.at) && !(r.waiting > 0 && rels.proved.Contains(t)); i++ {
		if r.check(r.pending.fact(i)) {
			fi := r.from[i]
			r.need[fi]--
			proved = r.need[fi] == 0
		}
	}
	r.pending.truncate(mark)
	r.from, r.need = r.from[:mark], r.need[:fmark]
	switch {
	case rels.proved.Contains(t): // the last body fact's proof saturated up to t
		return true
	case proved:
		r.prove(p, t)
	default:
		r.waiting++
	}
	return proved
}

// checkFiring is a check's enumeration callback. A firing whose body
// facts over the layer are all proved proves the fact and ends the
// enumeration. Otherwise the body facts no check has seen are queued
// for the check to recurse into, and need counts the firing's unproved
// body facts: the check re-tests it as they are proved. One already
// checked and unproved is never taken off: only saturation completes
// such a firing.
func (r *bfRun) checkFiring(b eval.Binding) bool {
	r.firings++
	c, l := r.cur, &r.pending
	fi, n := len(r.need), len(l.at)
	need := 0
	for i, li := range c.own {
		lo := len(l.vals)
		l.vals = c.rule.AppendBodyAtom(l.vals, b, li)
		g, rels := tuple.Tuple(l.vals[lo:]), &r.rels[c.ownPred[i]]
		switch {
		case !rels.checked.Contains(g):
			l.at = append(l.at, factAt{c.ownPred[i], lo, len(l.vals)})
			r.from = append(r.from, fi)
			need++
		case rels.proved.Contains(g):
			l.vals = l.vals[:lo]
		default:
			l.vals = l.vals[:lo]
			need++
		}
	}
	if need == 0 {
		l.truncate(n)
		r.from = r.from[:n]
		r.found = true
		return false
	}
	r.need = append(r.need, need)
	return true
}

// prove records fact t of layer predicate p as proved. While a check of
// the current top-level check is waiting, having closed unproved, the
// proof saturates: every checked fact it completes a proved firing for
// is proved in turn, for as long as some check is unresolved. Until
// then a proof reaches the open checks above it through their need
// counts.
func (r *bfRun) prove(p int, t tuple.Tuple) {
	r.rels[p].proved.Insert(t)
	r.open--
	if r.waiting == 0 {
		return
	}
	r.queue.truncate(0)
	r.queue.push(p, t)
	for len(r.queue.at) > 0 && r.open > 0 {
		gp, g := r.queue.pop()
		for i := range r.forward {
			if f := &r.forward[i]; f.pred == gp {
				r.fire(f, g, r.forwardFiring)
			}
		}
	}
}

// forwardFiring is saturation's enumeration callback: a firing whose
// body facts over the layer are all proved proves its head, when that
// is a checked fact.
func (r *bfRun) forwardFiring(b eval.Binding) bool {
	r.firings++
	f := r.cur
	h, rels := f.heads(b)[0].Tuple, &r.rels[f.head]
	if !rels.checked.Contains(h) || rels.proved.Contains(h) {
		return true
	}
	for i, li := range f.own {
		r.scratch = f.rule.AppendBodyAtom(r.scratch[:0], b, li)
		if !r.rels[f.ownPred[i]].proved.Contains(r.scratch) {
			return true
		}
	}
	rels.proved.Insert(h)
	r.open--
	r.queue.push(f.head, h)
	return r.open > 0
}

// nextFiring gathers the next wave's candidates: the heads of firings
// through a deleted fact that are in the state and not checked.
func (r *bfRun) nextFiring(b eval.Binding) bool {
	r.firings++
	f := r.cur
	h, rels := f.heads(b)[0].Tuple, &r.rels[f.head]
	if rels.state.Contains(h) && !rels.checked.Contains(h) {
		r.cand.push(f.head, h)
	}
	return true
}

// factList is a list of facts of layer predicates whose values share
// one buffer, so a fact costs no allocation of its own.
type factList struct {
	at   []factAt
	vals []value.Value
}

// factAt is one fact of a factList: its predicate and value range.
type factAt struct {
	pred   int
	lo, hi int
}

func (l *factList) push(pred int, t tuple.Tuple) {
	lo := len(l.vals)
	l.vals = append(l.vals, t...)
	l.at = append(l.at, factAt{pred, lo, len(l.vals)})
}

// fact returns fact i. Its tuple aliases the buffer: it stays valid
// while the list keeps fact i, even across pushes.
func (l *factList) fact(i int) (int, tuple.Tuple) {
	a := l.at[i]
	return a.pred, l.vals[a.lo:a.hi:a.hi]
}

// pop removes the last fact and returns it. Its values stay in the
// buffer until the next truncate.
func (l *factList) pop() (int, tuple.Tuple) {
	pred, t := l.fact(len(l.at) - 1)
	l.at = l.at[:len(l.at)-1]
	return pred, t
}

// truncate keeps the first n facts.
func (l *factList) truncate(n int) {
	if n < len(l.at) {
		l.vals = l.vals[:l.at[n].lo]
	} else if n == 0 {
		l.vals = l.vals[:0]
	}
	l.at = l.at[:n]
}
