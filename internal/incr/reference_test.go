package incr

import (
	"unchained/internal/engine"
	"unchained/internal/eval"
	"unchained/internal/tuple"
)

// referenceDRed is delete–rederive, the way the view maintained a
// recursive layer before Backward/Forward deletion, kept as the oracle
// for every layer: over-delete everything reachable from a lost
// support, then put back what still has a derivation and add what is
// new, in one semi-naive loop. The layer's share of the net delta is
// what the two leave behind: an over-deleted fact that did not come
// back was removed, an inserted fact that was not over-deleted was
// added. View.apply takes it in place of maintain.
func referenceDRed(v *View, l *layer, d *Delta) error {
	over, err := referenceOverDelete(v, l, preBatch(v, d), d)
	if err != nil {
		return err
	}
	if err := referenceRederive(v, l, over, d); err != nil {
		return err
	}
	over.EachRel(func(pred string, r *tuple.Relation) {
		st := v.state.Relation(pred)
		r.Each(func(t tuple.Tuple) bool {
			if !st.Contains(t) {
				d.Removed.Insert(pred, t)
			}
			return true
		})
	})
	return nil
}

// preBatch returns the state the batch found, for a layer's maintenance
// to match the losses against: a copy of v's state with d, the net delta
// of the layers below, reverted. It costs a copy of the view, which the
// oracle pays to stay independent of View.seed's in-place rewind.
func preBatch(v *View, d *Delta) *tuple.Instance {
	old := v.state.Clone()
	d.Added.EachRel(func(pred string, r *tuple.Relation) {
		r.Each(func(t tuple.Tuple) bool {
			old.Delete(pred, t)
			return true
		})
	})
	d.Removed.EachRel(func(pred string, r *tuple.Relation) {
		r.Each(func(t tuple.Tuple) bool {
			old.Insert(pred, t)
			return true
		})
	})
	return old
}

// referenceOverDelete is DRed's first phase. The first wave deletes the
// head of every firing of the layer's rules that a lower-layer (or EDB)
// change may have invalidated; the following waves delete transitively
// along the layer's internal positive edges until a wave deletes
// nothing. Matching runs against the pre-batch state: that is where the
// invalidated derivations lived. It returns the deleted facts.
func referenceOverDelete(v *View, l *layer, old *tuple.Instance, d *Delta) (*tuple.Instance, error) {
	over := tuple.NewInstance()
	var round *tuple.Instance
	_, err := v.opt.Loop(v.Stats, 0, nil, func(n int) (engine.Outcome, error) {
		next := tuple.NewInstance()
		for _, ri := range l.rules {
			pred, arity := head(v, ri)
			st := v.state.Relation(pred)
			if st == nil {
				continue
			}
			nx, ov := next.Ensure(pred, arity), over.Ensure(pred, arity)
			fireVariants(v, l, ri, n, d, false, old, round, func(f eval.Fact) bool {
				if !st.Delete(f.Tuple) {
					return false
				}
				nx.Insert(f.Tuple)
				ov.Insert(f.Tuple)
				return true
			})
		}
		round = next
		if round.Facts() == 0 {
			return engine.Outcome{Status: engine.Last}, nil
		}
		return engine.Outcome{Delta: -round.Facts()}, nil
	})
	return over, err
}

// referenceRederive is DRed's second phase: semi-naive insertion rounds
// within the layer until a round adds nothing. The first round finds
// every fact one firing away from the state the over-deletion left: the
// over-deleted ones by firing each rule's rederive plan once over the
// whole set, the new ones by firing the variants pinned at the batch's
// lower-layer (or EDB) gains.
func referenceRederive(v *View, l *layer, over *tuple.Instance, d *Delta) error {
	var round *tuple.Instance
	_, err := v.opt.Loop(v.Stats, 0, nil, func(n int) (engine.Outcome, error) {
		next := tuple.NewInstance()
		for _, ri := range l.rules {
			pred, arity := head(v, ri)
			st, ov, nx := v.state.Relation(pred), over.Relation(pred), next.Ensure(pred, arity)
			emit := func(f eval.Fact) bool {
				if st == nil {
					st = v.state.Ensure(pred, arity)
				}
				if !st.Insert(f.Tuple) {
					return false
				}
				nx.Insert(f.Tuple)
				if ov == nil || !ov.Contains(f.Tuple) {
					d.Added.Insert(pred, f.Tuple)
				}
				return true
			}
			if n == 1 && ov != nil && ov.Len() > 0 {
				body := len(v.prog.Rules[ri].Body)
				v.rules[ri].Delta(body).Fire(pinned(v, body, v.state, over), -1, nil, emit)
			}
			fireVariants(v, l, ri, n, d, true, v.state, round, emit)
		}
		round = next
		if round.Facts() == 0 {
			return engine.Outcome{Status: engine.Last}, nil
		}
		return engine.Outcome{Delta: round.Facts()}, nil
	})
	return err
}

// fireVariants runs rule ri's share of round n of a semi-naive loop over
// layer l: in the first round the variants pinned at the lower-layer (or
// EDB) changes of the batch — the losses or the gains — and in every
// later one the variants pinned at the layer's own predicates, driven by
// round, the facts the round before moved. in is what the unpinned
// literals match.
func fireVariants(v *View, l *layer, ri, n int, d *Delta, gain bool, in, round *tuple.Instance, emit func(eval.Fact) bool) {
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
			dv.rule.Fire(pinned(v, dv.lit, in, pin), -1, nil, emit)
		}
	}
}

// pinned returns the matcher environment for a plan pinned at body
// literal lit: in is the instance the unpinned literals match, pin the
// delta driving the pinned one.
func pinned(v *View, lit int, in, pin *tuple.Instance) *eval.Ctx {
	ctx := v.opt.EvalCtx(v.Stats, in, nil)
	ctx.Delta, ctx.DeltaLit = pin, lit
	return ctx
}

// head returns the head predicate of rule ri and its arity.
func head(v *View, ri int) (string, int) {
	a := v.prog.Rules[ri].Head[0].Atom
	return a.Pred, len(a.Args)
}
