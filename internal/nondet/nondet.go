// Package nondet implements the nondeterministic languages of
// Section 5: N-Datalog¬, N-Datalog¬¬ (Definition 5.1/5.2), and the
// two extensions N-Datalog¬⊥ (inconsistency symbol) and N-Datalog¬∀
// (universal quantification in bodies).
//
// The semantics fires one rule instantiation at a time, chosen
// nondeterministically (Definition 5.2): an immediate successor of I
// using rule r is obtained from a consistent instantiation whose body
// holds in I by deleting the facts negated in the head and inserting
// the positive ones. A computation ends in a terminal state: one with
// no immediate successor J ≠ I.
//
// Two evaluators are provided:
//
//   - Run performs one sampled computation, driven by a seeded RNG
//     (uniform choice among the currently applicable state-changing
//     instantiations), so runs are reproducible.
//   - Effects exhaustively enumerates eff(P) on small inputs by BFS
//     over instance states, enabling the poss/cert semantics of
//     Definition 5.10 and the deterministic-fragment checks of
//     Section 5.3.
//
// ⊥ interpretation: the paper says a computation that derives ⊥ is
// abandoned. For the constructions of Example 5.5 to be correct
// (no wrong answers surviving in eff), "derives" must be read as
// "reaches a state in which some ⊥-rule instantiation is applicable":
// such states poison the computation whether or not the scheduler
// fires the ⊥ rule. This is the reading implemented here; see
// DESIGN.md.
package nondet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"unchained/internal/ast"
	"unchained/internal/engine"
	"unchained/internal/eval"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Sentinel errors.
var (
	// ErrStepLimit reports a sampled run exceeding its step bound
	// (Options.MaxStages, default 1<<20).
	ErrStepLimit = errors.New("nondet: step limit exceeded")
	// ErrStateLimit reports exhaustive enumeration exceeding
	// Options.MaxStates distinct instance states.
	ErrStateLimit = errors.New("nondet: state limit exceeded")
	// ErrAllAborted reports that every sampled computation derived ⊥.
	ErrAllAborted = errors.New("nondet: all sampled computations derived ⊥")
)

// Options is the unified engine configuration (see engine.Options).
// The nondeterministic engines honor Ctx (polled between applied
// firings in Run and between popped states in Effects), Scan,
// MaxStages (the step bound of Run, default 1<<20), MaxStates
// (default 1<<16) and Stats: each applied rule firing counts as one
// stage of a sampled run. A nil *Options is valid.
type Options = engine.Options

// program is a validated, compiled N-Datalog program.
type program struct {
	dialect ast.Dialect
	rules   []*eval.Rule // state-changing rules (no ⊥ heads)
	bottoms []*eval.Rule // constraint rules (⊥ heads)
	consts  []value.Value
}

func compile(p *ast.Program, d ast.Dialect) (*program, error) {
	switch d {
	case ast.DialectNDatalogNeg, ast.DialectNDatalogNegNeg, ast.DialectNDatalogBot,
		ast.DialectNDatalogAll, ast.DialectNDatalogNew:
	default:
		return nil, fmt.Errorf("nondet: %v is not a nondeterministic dialect", d)
	}
	if err := p.Validate(d); err != nil {
		return nil, fmt.Errorf("nondet: %w", err)
	}
	all, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	prog := &program{dialect: d, consts: p.Constants()}
	for i, cr := range all {
		isBottom := false
		for _, h := range p.Rules[i].Head {
			if h.Kind == ast.LitBottom {
				isBottom = true
			}
		}
		if isBottom {
			prog.bottoms = append(prog.bottoms, cr)
		} else {
			prog.rules = append(prog.rules, cr)
		}
	}
	return prog, nil
}

// readsDomain reports whether one of the program's rules reads the
// active domain (eval.ReadsDomain).
func (p *program) readsDomain() bool {
	return eval.ReadsDomain(p.rules) || eval.ReadsDomain(p.bottoms)
}

// candidate is one applicable, state-changing instantiation. For
// inventing rules (N-Datalog¬new) the head facts are materialized
// only when the candidate is applied, so that unused candidates do
// not consume fresh values.
type candidate struct {
	facts []eval.Fact  // nil for inventing candidates
	rule  *eval.Rule   // set for inventing candidates
	b     eval.Binding // binding copy for inventing candidates
	key   string       // canonical sort key for reproducible choice
}

// materialize returns the head facts, inventing fresh values if the
// rule has head-only variables.
func (c candidate) materialize(u *value.Universe) []eval.Fact {
	if c.facts != nil {
		return c.facts
	}
	return c.rule.HeadFacts(c.b, func(int) value.Value { return u.Fresh() })
}

// apply produces the immediate successor of cur under the candidate,
// along with the deletion and insertion counts actually applied.
func (c candidate) apply(cur *tuple.Instance, u *value.Universe) (next *tuple.Instance, deleted, inserted int) {
	next = cur.Clone()
	facts := c.materialize(u)
	for _, f := range facts {
		if f.Neg && next.Delete(f.Pred, f.Tuple) {
			deleted++
		}
	}
	for _, f := range facts {
		if !f.Neg && next.Insert(f.Pred, f.Tuple) {
			inserted++
		}
	}
	return next, deleted, inserted
}

// changes reports whether applying facts to cur yields J ≠ cur, and
// whether the head is consistent (no fact both asserted and negated).
func changes(cur *tuple.Instance, facts []eval.Fact) (changing, consistent bool) {
	for i, f := range facts {
		for j := i + 1; j < len(facts); j++ {
			g := facts[j]
			if f.Neg != g.Neg && f.Pred == g.Pred && f.Tuple.Equal(g.Tuple) {
				return false, false
			}
		}
	}
	for _, f := range facts {
		if f.Neg == cur.Has(f.Pred, f.Tuple) {
			return true, true
		}
	}
	return false, true
}

// bottomApplicable reports whether any ⊥-rule instantiation is
// applicable in cur. The caller supplies the active domain (shared
// with the successors call on the same state via an eval.AdomCache).
func (p *program) bottomApplicable(cur *tuple.Instance, adom []value.Value, opt *Options) bool {
	if len(p.bottoms) == 0 {
		return false
	}
	ctx := opt.EvalCtx(nil, cur, adom)
	for _, cr := range p.bottoms {
		hit := false
		cr.Enumerate(ctx, func(eval.Binding) bool {
			hit = true
			return false
		})
		if hit {
			return true
		}
	}
	return false
}

// successors enumerates the state-changing candidates at cur in a
// canonical (sorted) order, so that a seeded random choice over them
// is reproducible even though relation iteration order is not.
func (p *program) successors(cur *tuple.Instance, adom []value.Value, u *value.Universe, opt *Options) []candidate {
	ctx := opt.EvalCtx(nil, cur, adom)
	var all []candidate
	var key []byte // every key is built here, then copied into its string
	for ri, cr := range p.rules {
		inventing := len(cr.HeadOnlyVarIDs()) > 0
		cr.Enumerate(ctx, func(b eval.Binding) bool {
			key = strconv.AppendInt(key[:0], int64(ri), 10)
			key = append(key, '|')
			if inventing {
				// Invention always changes the state (the fresh
				// values are new) and is consistent unless the head
				// pairs structurally identical positive and negative
				// atoms, which Compile-level patterns cannot produce
				// with distinct fresh values; key on the binding so
				// the choice is reproducible without consuming fresh
				// values for unused candidates.
				key = tuple.Tuple(b).AppendKey(key)
				bc := make(eval.Binding, len(b))
				copy(bc, b)
				all = append(all, candidate{rule: cr, b: bc, key: string(key)})
				return true
			}
			facts := cr.HeadFacts(b, nil)
			changing, consistent := changes(cur, facts)
			if !consistent || !changing {
				return true
			}
			for _, f := range facts {
				if f.Neg {
					key = append(key, '!')
				}
				key = append(key, f.Pred...)
				key = append(key, '(')
				key = f.Tuple.AppendKey(key)
				key = append(key, ')')
			}
			all = append(all, candidate{facts: facts, key: string(key)})
			return true
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	return all
}

// Result is the outcome of one sampled computation.
type Result struct {
	// Out is the terminal instance (nil when Aborted).
	Out *tuple.Instance
	// Steps is the number of rule firings performed.
	Steps int
	// Aborted reports that the computation derived ⊥ (reached a
	// state with an applicable ⊥-rule instantiation).
	Aborted bool
	// Stats is the evaluation summary when Options carried a
	// collector; nil otherwise. Stats.Stages equals Steps (each
	// applied firing is one stage).
	Stats *stats.Summary
}

// Run performs one nondeterministic computation of the program under
// dialect d on input in, choosing uniformly among applicable
// state-changing instantiations with a rand.Rand seeded by seed. It
// is deterministic given (program, input, seed).
func Run(p *ast.Program, d ast.Dialect, in *tuple.Instance, u *value.Universe, seed int64, opt *Options) (*Result, error) {
	prog, err := compile(p, d)
	if err != nil {
		return nil, err
	}
	col := opt.Collector()
	col.Reset("ndatalog", 0, nil)
	rng := rand.New(rand.NewSource(seed))
	cur := in.SnapshotWith(col.Cow())
	// One domain computation per state instead of one per Enumerate
	// batch: bottomApplicable and successors see the same instance, so
	// the second Domain call is a cache hit, and a step that only
	// rearranges known values (delete + reinsert) skips the re-sort
	// entirely.
	adomc := eval.NewAdomCache(u, prog.consts, prog.readsDomain())
	var cands []candidate
	aborted := false
	steps, err := opt.ChooseLoop(col, opt.StageLimit(1<<20),
		func(steps int) error { return fmt.Errorf("%w (after %d steps)", ErrStepLimit, steps) },
		func() bool {
			adom := adomc.Domain(cur)
			if aborted = prog.bottomApplicable(cur, adom, opt); aborted {
				return false
			}
			cands = prog.successors(cur, adom, u, opt)
			return len(cands) > 0
		},
		func(int) (engine.Outcome, error) {
			var freshBefore int64
			if col.Enabled() {
				freshBefore = u.FreshCount()
			}
			next, deleted, inserted := cands[rng.Intn(len(cands))].apply(cur, u)
			cur = next
			col.Fired(-1, 1, uint64(inserted), 0)
			col.Retracted(deleted)
			if col.Enabled() {
				col.Invented(int(u.FreshCount() - freshBefore))
			}
			return engine.Outcome{Delta: inserted - deleted}, nil
		})
	if err != nil && !engine.IsInterrupt(err) {
		return nil, err
	}
	if aborted {
		return &Result{Steps: steps, Aborted: true, Stats: col.Summary()}, nil
	}
	return &Result{Out: cur, Steps: steps, Stats: col.Summary()}, err
}

// SampleSuccessful retries Run with seeds seed, seed+1, ... until a
// non-aborted computation is found, at most tries times.
func SampleSuccessful(p *ast.Program, d ast.Dialect, in *tuple.Instance, u *value.Universe, seed int64, tries int, opt *Options) (*Result, error) {
	for i := 0; i < tries; i++ {
		res, err := Run(p, d, in, u, seed+int64(i), opt)
		if err != nil {
			return nil, err
		}
		if !res.Aborted {
			return res, nil
		}
	}
	return nil, fmt.Errorf("%w (%d tries)", ErrAllAborted, tries)
}

// EffectSet is eff(P) restricted to one input: the set of terminal
// instances reachable by some computation.
type EffectSet struct {
	// States are the terminal instances, deduplicated.
	States []*tuple.Instance
	// Explored is the number of distinct instance states visited.
	Explored int
	// Stats is the evaluation summary of the BFS when Options carried
	// a collector; nil otherwise (totals only, no stage breakdown).
	Stats *stats.Summary
}

// Effects exhaustively computes eff(P) on the input by breadth-first
// search over instance states. Intended for small inputs; the search
// fails with ErrStateLimit when Options.MaxStates is exceeded.
func Effects(p *ast.Program, d ast.Dialect, in *tuple.Instance, u *value.Universe, opt *Options) (*EffectSet, error) {
	prog, err := compile(p, d)
	if err != nil {
		return nil, err
	}
	for _, cr := range prog.rules {
		if len(cr.HeadOnlyVarIDs()) > 0 {
			return nil, fmt.Errorf("nondet: exhaustive effects are undefined for inventing rules (the state space is infinite); use Run")
		}
	}
	col := opt.Collector()
	col.Reset("effects", 0, nil)
	limit := opt.StateLimit(1 << 16)

	type bucket []*tuple.Instance
	seen := map[uint64]bucket{}
	lookup := func(s *tuple.Instance) bool {
		for _, t := range seen[s.Fingerprint()] {
			if t.Equal(s) {
				return true
			}
		}
		return false
	}
	remember := func(s *tuple.Instance) {
		fp := s.Fingerprint()
		seen[fp] = append(seen[fp], s)
	}

	start := in.SnapshotWith(col.Cow())
	adomc := eval.NewAdomCache(u, prog.consts, prog.readsDomain())
	queue := []*tuple.Instance{start}
	remember(start)
	eff := &EffectSet{}
	var effSeen = map[uint64]bucket{}

	// The search is polled like a stage loop but its states are not
	// stages (the summary carries totals only), so the driver runs it
	// with no collector: one popped state per pass.
	explored, err := opt.Loop(nil, 0, nil, func(n int) (engine.Outcome, error) {
		if n > limit {
			return engine.Outcome{}, fmt.Errorf("%w (%d states)", ErrStateLimit, n)
		}
		cur := queue[0]
		queue = queue[1:]
		adom := adomc.Domain(cur)
		// A state with an applicable ⊥ rule is an abandoned
		// computation: it contributes nothing.
		if !prog.bottomApplicable(cur, adom, opt) {
			cands := prog.successors(cur, adom, u, opt)
			if len(cands) == 0 {
				fp := cur.Fingerprint()
				dup := false
				for _, t := range effSeen[fp] {
					if t.Equal(cur) {
						dup = true
						break
					}
				}
				if !dup {
					effSeen[fp] = append(effSeen[fp], cur)
					eff.States = append(eff.States, cur)
				}
			}
			for _, c := range cands {
				next, deleted, inserted := c.apply(cur, u)
				col.Fired(-1, 1, uint64(inserted), 0)
				col.Retracted(deleted)
				if !lookup(next) {
					remember(next)
					queue = append(queue, next)
				}
			}
		}
		if len(queue) == 0 {
			return engine.Outcome{Status: engine.Last}, nil
		}
		return engine.Outcome{}, nil
	})
	if err != nil && !engine.IsInterrupt(err) {
		return nil, err
	}
	eff.Explored = explored
	eff.Stats = col.Summary()
	return eff, err
}

// Deterministic reports whether the effect is a single state (the
// program defines a deterministic transformation on this input,
// Section 5.3).
func (e *EffectSet) Deterministic() bool { return len(e.States) == 1 }

// Poss computes the possibility semantics poss(I,P) = ∪ J over
// terminal states (Definition 5.10). The second result is false when
// eff is empty.
func (e *EffectSet) Poss() (*tuple.Instance, bool) {
	if len(e.States) == 0 {
		return nil, false
	}
	out := e.States[0].Clone()
	for _, s := range e.States[1:] {
		for _, name := range s.Names() {
			r := s.Relation(name)
			r.Each(func(t tuple.Tuple) bool {
				out.Insert(name, t)
				return true
			})
		}
	}
	return out, true
}

// Cert computes the certainty semantics cert(I,P) = ∩ J over terminal
// states (Definition 5.10). The second result is false when eff is
// empty.
func (e *EffectSet) Cert() (*tuple.Instance, bool) {
	if len(e.States) == 0 {
		return nil, false
	}
	out := e.States[0].Clone()
	for _, s := range e.States[1:] {
		for _, name := range out.Names() {
			r := out.Relation(name)
			var drop []tuple.Tuple
			r.Each(func(t tuple.Tuple) bool {
				if !s.Has(name, t) {
					drop = append(drop, t.Clone())
				}
				return true
			})
			for _, t := range drop {
				out.Delete(name, t)
			}
		}
	}
	return out, true
}
