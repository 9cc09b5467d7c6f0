package incr

import (
	"unchained/internal/engine"
	"unchained/internal/eval"
	"unchained/internal/tuple"
)

// referenceDRed is delete–rederive, the way the view maintained a
// recursive layer before Backward/Forward deletion, kept as the oracle
// for it: over-delete everything reachable from a lost support, then
// put back what still has a derivation and add what is new, in one
// semi-naive loop. The layer's share of the net delta is what the two
// leave behind: an over-deleted fact that did not come back was
// removed, an inserted fact that was not over-deleted was added.
// View.apply takes it in place of bfLayer.
func referenceDRed(v *View, l *layer, old *tuple.Instance, d *Delta) error {
	over, err := referenceOverDelete(v, l, old, d)
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
			pred, arity := v.head(ri)
			st := v.state.Relation(pred)
			if st == nil {
				continue
			}
			nx, ov := next.Ensure(pred, arity), over.Ensure(pred, arity)
			v.fireVariants(l, ri, n, d, false, old, round, func(f eval.Fact) bool {
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
			pred, arity := v.head(ri)
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
				v.rederive[ri].Fire(v.pinned(len(v.prog.Rules[ri].Body), v.state, over), -1, nil, emit)
			}
			v.fireVariants(l, ri, n, d, true, v.state, round, emit)
		}
		round = next
		if round.Facts() == 0 {
			return engine.Outcome{Status: engine.Last}, nil
		}
		return engine.Outcome{Delta: round.Facts()}, nil
	})
	return err
}
