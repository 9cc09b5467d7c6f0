package engine

import (
	"unchained/internal/eval"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// SemiNaive is the delta kernel under every engine whose fixpoint only
// inserts: the minimal model, a stratum, a Γ application of the
// well-founded alternation and the inflationary stages of Section 4.1.
// Round one fires every rule against the whole instance; every later
// round fires, per rule and positive body literal over a predicate
// that grows (one some rule here has in a head), the delta variant that
// reads that literal from the facts new last round.
//
// A seeded run continues a fixpoint whose input changed: round one
// fires only what the seed enumerates, the firings the change gives —
// the well-founded alternation's under-estimate, which grows from the
// last one by the variants pinned at the over-facts just deleted, and a
// layer of an incr.View, which grows by the variants pinned at a
// batch's gains below it. That
// is complete when out is already closed under the rules over the old
// input: a firing over the new input that the old one lacked passes
// through the change, and every later one needs a fact the run added.
//
// Negative literals read NegIn or, when it is nil, the live instance —
// sound wherever facts are only added (EvalInflationary has the
// argument; within a stratum the negated predicates do not grow at all).
// A variant whose pinned predicate gained no facts last round does not
// fire: it has nothing to enumerate.
//
// A SemiNaive may Run more than once (the Γ applications do, changing
// NegIn in between): the delta variants are made on the first Run, and
// the Scratch the runs share (Buf, or the kernel's own) keeps their plan
// picks.
type SemiNaive struct {
	Rules []*eval.Rule
	// NegIn, if non-nil, is the fixed instance negative literals test.
	NegIn *tuple.Instance
	// Forward selects the conventions of the forward-chaining engines
	// over those of the declarative ones: the round that adds nothing
	// is no stage (Confirm, not Last), the firings of Rules[i] are
	// charged to rule i of the collector (the engine Reset it with one
	// name per rule) and Options.Trace is shown each round's new facts.
	Forward bool
	// Limit and LimitErr bound the stage count as Loop does.
	Limit    int
	LimitErr func(stages int) error
	// Buf, if non-nil, is the enumeration buffer (eval.Ctx.Buf) of the
	// runs, for an engine whose kernels run one at a time to share one:
	// its slot table then serves them all. Nil: the kernel's own, which
	// a run releases when it ends.
	Buf *eval.Scratch
	// Derived, if non-nil, is shown each fact a firing stages as new, with
	// the round, the rule index, the rule or delta variant and its binding
	// (valid, like the tuple, during the call only). Seed facts are not
	// shown.
	Derived func(round, rule int, cr *eval.Rule, b eval.Binding, f eval.Fact)
	// Heads, if non-nil, holds per rule the heads function (eval.Rule.Fire)
	// of it and its variants, nil for its own: EvalInvent's Skolem heads.
	Heads []func(eval.Binding) []eval.Fact
	// Adom, if non-nil, is a domain that grows: every round reads it anew
	// (Run's adom is unused), and a rule that reads it (eval.ReadsDomain)
	// fires whole every round, since a value new to the domain is no new
	// fact of a positive literal. Set it before the first Run.
	Adom *eval.AdomCache

	variants []DeltaVariant // nil until the first Run
	ctx      *eval.Ctx      // nil until the first Run
	own      *eval.Scratch  // the buffer when Buf is nil
}

// DeltaVariant is a delta variant of a rule (eval.Rule.Delta) with the
// index in SemiNaive.Rules of that rule.
type DeltaVariant struct {
	Rule  *eval.Rule
	Index int
}

// Variants returns the delta variants every round after the first
// fires, scheduling them if no Run has: per rule and positive body
// literal over a predicate some rule here has in a head, the rule pinned
// there. Under a growing domain (Adom) a rule that reads it is listed
// once, whole (its DeltaLit is -1).
func (k *SemiNaive) Variants() []DeltaVariant {
	if k.variants == nil {
		k.prepare()
	}
	return k.variants
}

// prepare schedules the delta variants.
func (k *SemiNaive) prepare() {
	grows := map[string]bool{}
	for _, cr := range k.Rules {
		for _, h := range cr.Heads() {
			grows[h.Pred] = true
		}
	}
	k.variants = make([]DeltaVariant, 0, len(k.Rules))
	for i, cr := range k.Rules {
		if k.Adom != nil && eval.ReadsDomain(k.Rules[i:i+1]) {
			k.variants = append(k.variants, DeltaVariant{Rule: cr, Index: i})
			continue
		}
		for _, li := range cr.PositiveBodyLits() {
			if grows[cr.Src.Body[li].Atom.Pred] {
				k.variants = append(k.variants, DeltaVariant{Rule: cr.Delta(li), Index: i})
			}
		}
	}
}

// Run evaluates the rules to fixpoint, mutating out, and returns the
// number of stages under the chosen convention, with a typed engine
// error when the context interrupts the fixpoint or the stage limit is
// reached. The collector records each round as one stage (callers Reset
// it; the kernel only records).
//
// seed, if non-nil, replaces round one's naive pass: it enumerates the
// round's head facts through emit, which stages them as the rules'
// firings are staged (BackwardForward.Run's seed has the same shape).
// added, if non-nil, receives every fact the run adds to out.
func (k *SemiNaive) Run(opt *Options, out *tuple.Instance, adom []value.Value, seed func(emit func(eval.Fact) bool), added *tuple.Instance) (int, error) {
	variants := k.Variants()
	col := opt.Collector()
	end := Outcome{Status: Last}
	if k.Forward {
		end.Status = Confirm
	}
	// The facts new last round are st.Delta.
	st := eval.NewStaging(out)
	// Every round of a run shares one matcher environment and buffer: a
	// round sets what it pins, and its enumerations run one at a time.
	// The next run reuses both.
	buf := k.Buf
	if buf == nil {
		if k.own == nil {
			k.own = new(eval.Scratch)
		}
		buf = k.own
	}
	if k.ctx == nil {
		k.ctx = new(eval.Ctx)
	}
	ctx := k.ctx
	*ctx = *opt.EvalCtx(col, out, adom)
	ctx.NegIn, ctx.Buf, ctx.Done = k.NegIn, buf, opt.Context().Done()
	defer func() { // the instances are the caller's
		*ctx = eval.Ctx{}
		if buf == k.own {
			buf.Release()
		}
	}()
	return opt.Loop(col, k.Limit, k.LimitErr, func(round int) (Outcome, error) {
		if k.Adom != nil {
			ctx.Adom = k.Adom.Domain(out)
		}
		ctx.NewStage()
		// Every head fact out lacks is staged at emission into out's own
		// rows, where Fold publishes it after the round and the next
		// delta views it: a new fact is hashed, looked up and copied once.
		switch {
		case round == 1 && seed != nil:
			seed(st.Emit)
		case round == 1:
			// A naive pass over every rule seeds the first delta.
			for i, cr := range k.Rules {
				k.fire(ctx, st, round, i, cr)
			}
		default:
			ctx.Delta = st.Delta
			for _, v := range variants {
				li := v.Rule.DeltaLit()
				if li >= 0 {
					if d := st.Delta.Relation(v.Rule.Src.Body[li].Atom.Pred); d == nil || d.Empty() {
						continue
					}
				}
				ctx.DeltaLit = li
				k.fire(ctx, st, round, v.Index, v.Rule)
			}
		}
		if err := opt.Cut(ctx, round); err != nil {
			st.Discard() // a round the context stopped is not applied
			return Outcome{}, err
		}
		n := st.Fold()
		if added != nil {
			eval.Fold(added, st.Delta)
		}
		if n == 0 {
			return end, nil
		}
		if k.Forward {
			return Outcome{Delta: n, State: st.Delta}, nil
		}
		return Outcome{Delta: n}, nil
	})
}

// fire fires cr, rule i or a variant of it, charged as rule i of the
// round, staging the head facts of rule i's heads function in st, and
// shows k.Derived each fact it stages as new.
func (k *SemiNaive) fire(ctx *eval.Ctx, st *eval.Staging, round, i int, cr *eval.Rule) {
	var heads func(eval.Binding) []eval.Fact
	if k.Heads != nil {
		heads = k.Heads[i]
	}
	ri := -1 // no per-rule attribution
	if k.Forward {
		ri = i
	}
	if k.Derived == nil {
		cr.Fire(ctx, ri, heads, st.Emit)
		return
	}
	if heads == nil {
		heads = cr.ScratchHeads()
	}
	var b eval.Binding
	cr.Fire(ctx, ri, func(cur eval.Binding) []eval.Fact { b = cur; return heads(cur) }, func(f eval.Fact) bool {
		ok := st.Emit(f)
		if ok {
			k.Derived(round, ri, cr, b, f)
		}
		return ok
	})
}
