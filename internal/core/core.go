// Package core implements the paper's primary contribution: the
// forward-chaining (procedural) semantics of the Datalog family
// (Section 4).
//
//   - EvalInflationary — Datalog¬ under inflationary fixpoint
//     semantics (Section 4.1): all rules fire in parallel with all
//     applicable instantiations, stages accumulate, and the fixpoint
//     Γω_P(I) is reached after finitely many stages. The stages are
//     delta-driven, on the kernel the declarative engines run on
//     (engine.SemiNaive; the function has the soundness argument).
//     EvalInvent runs on it too; only EvalNonInflationary fires every
//     rule against the whole instance at every stage, and says why.
//   - EvalNonInflationary — Datalog¬¬ (Section 4.2): negations in
//     heads retract facts; the paper's default conflict resolution
//     gives priority to positive inferences and three alternative
//     policies are provided; termination is not guaranteed, so the
//     engine detects instance-state cycles (e.g. the flip-flop
//     program) and reports ErrNonTerminating.
//   - EvalInvent — Datalog¬new (Section 4.3): head-only variables
//     are valuated with brand-new values outside the active domain.
//     Invention is Skolemized (the same rule instantiation always
//     invents the same values), which realizes "one instantiation of
//     the remaining variables with distinct values outside the
//     active domain" deterministically up to isomorphism and makes
//     the inflationary fixpoint well defined.
package core

import (
	"errors"
	"fmt"
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
	// ErrNonTerminating reports that the Datalog¬¬ stage sequence
	// revisited an instance state (the evaluation flip-flops forever,
	// like the paper's T(0)/T(1) example in Section 4.2).
	ErrNonTerminating = errors.New("core: evaluation does not terminate (instance state cycle)")
	// ErrInconsistent reports simultaneous inference of A and ¬A
	// under the Inconsistent conflict policy (option (iii) in
	// Section 4.2).
	ErrInconsistent = errors.New("core: simultaneous inference of a fact and its negation")
	// ErrStageLimit reports that evaluation exceeded Options.MaxStages.
	ErrStageLimit = errors.New("core: stage limit exceeded")
	// ErrInvalidOptions reports an Options field outside its domain
	// (negative bounds or worker counts). It is the shared
	// engine.ErrInvalidOptions, re-exported for compatibility.
	ErrInvalidOptions = engine.ErrInvalidOptions
)

// ConflictPolicy selects how a Datalog¬¬ stage resolves the
// simultaneous inference of A and ¬A; it is the shared
// engine.ConflictPolicy (Section 4.2 lists the four options; the
// paper adopts PreferPositive).
type ConflictPolicy = engine.ConflictPolicy

// The conflict policies, re-exported from the shared engine layer.
const (
	PreferPositive = engine.PreferPositive
	PreferNegative = engine.PreferNegative
	NoOp           = engine.NoOp
	Inconsistent   = engine.Inconsistent
)

// Options is the unified engine configuration (see engine.Options):
// context, stats collector, stage bounds, and the Datalog¬¬ conflict
// policy. The zero value is the default configuration; a nil *Options
// is valid.
type Options = engine.Options

// Result is the outcome of a forward-chaining evaluation: Γω_P(I) (for
// Datalog¬¬, the final instance state) and the number of stages until
// the fixpoint, the final no-change confirmation stage excluded.
type Result = engine.Result

// begin is the prelude the engines of this package share: validate the
// program against the engine's dialect, compile it, reset the
// collector under the engine's name and fork the input into the
// working instance. The collector formats a rule's text only when a
// trace span or the summary's per-rule breakdown reads it.
func begin(engineName string, d ast.Dialect, p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) ([]*eval.Rule, *stats.Collector, *tuple.Instance, error) {
	if err := p.Validate(d); err != nil {
		return nil, nil, nil, fmt.Errorf("core: %w", err)
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, nil, nil, err
	}
	col := opt.Collector()
	if col.Enabled() {
		col.Reset(engineName, len(p.Rules), func(i int) string { return p.Rules[i].String(u) })
	}
	return rules, col, in.SnapshotWith(col.Cow()), nil
}

func stageLimitErr(stages int) error {
	return fmt.Errorf("%w (after %d stages)", ErrStageLimit, stages)
}

// EvalInflationary evaluates a Datalog¬ program under the
// inflationary fixpoint semantics of Section 4.1. The input is not
// mutated. The program may of course be pure Datalog; on positive
// programs the result coincides with the minimum model (Section 3.1).
//
// The stages are delta-driven (engine.SemiNaive with negation reading
// the live instance): stage 1 fires every rule against the input, every
// later stage only the instantiations that use a fact new at the stage
// before. That is Γ_P stage for stage, because facts are only added: a
// negative literal can only turn false, so an instantiation that is
// applicable at stage k+1 and was not at stage k has a positive literal
// on a fact stage k added; every other applicable instantiation fired
// before and its head facts are already there.
func EvalInflationary(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	return inflationary(p, in, u, opt, nil)
}

// inflationary is EvalInflationary with the kernel's Derived hook.
func inflationary(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options, derived func(round, rule int, cr *eval.Rule, b eval.Binding, f eval.Fact)) (*Result, error) {
	rules, col, out, err := begin("inflationary", ast.DialectDatalogNeg, p, in, u, opt)
	if err != nil {
		return nil, err
	}
	k := engine.SemiNaive{Rules: rules, Forward: true, Limit: opt.StageLimit(1 << 30), LimitErr: stageLimitErr, Derived: derived}
	stages, err := k.Run(opt, out, eval.DomainFor(rules, p, u, in), nil, nil)
	return engine.Finish(out, stages, col, err)
}

// EvalNonInflationary evaluates a Datalog¬¬ program (Section 4.2).
// Negative head literals retract facts; conflicts between A and ¬A
// in the same stage are resolved per Options.Policy. Input relations
// may occur in heads (the language performs updates), so Out is the
// full final instance. Termination is detected exactly: the stage
// transition is deterministic, so the engine runs Brent's cycle
// detection on instance states and returns ErrNonTerminating when a
// state repeats without being a fixpoint.
//
// Every stage fires every rule against the whole instance: a retraction
// can make a negative literal true again, so an instantiation can become
// applicable without any fact being new. The stage is then applied in
// place to the engine's fork of the input, so Options.Trace is shown
// the live instance (see Options.Trace).
func EvalNonInflationary(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	rules, col, cur, err := begin("noninflationary", ast.DialectDatalogNegNeg, p, in, u, opt)
	if err != nil {
		return nil, err
	}
	s := newNonInflationary(rules, opt.EvalCtx(col, cur, eval.DomainFor(rules, p, u, in)), opt.Conflict(), u)
	s.ctx.Done = opt.Context().Done()
	cycle := engine.NewCycle(cur)
	stages, err := opt.Loop(col, opt.StageLimit(1<<20), stageLimitErr, func(n int) (engine.Outcome, error) {
		s.ctx.NewStage()
		s.fire()
		if err := opt.Cut(s.ctx, n); err != nil {
			return engine.Outcome{}, err // a stage the context stopped is not applied
		}
		inserted, retracted, err := s.apply()
		switch {
		case err != nil:
			return engine.Outcome{}, err
		case inserted+retracted == 0:
			return engine.Outcome{Status: engine.Confirm}, nil
		}
		out := engine.Outcome{Delta: inserted - retracted, State: cur}
		if n := cycle.Visit(cur); n > 0 {
			out.Err = fmt.Errorf("%w (cycle of length %d)", ErrNonTerminating, n)
		}
		return out, nil
	})
	return engine.Finish(cur, stages, col, err)
}

// nonInflationary is the state of a Datalog¬¬ run: one matcher context
// with its scratch for every firing of every stage, and the sets a stage
// collects its head facts in, pos and neg, emptied for the next stage
// instead of made anew. Both hold one relation per head predicate of
// the program's sign, listed by name in sorted order, so a stage
// visits them in the same order every time and allocates nothing.
type nonInflationary struct {
	rules              []*eval.Rule
	ctx                *eval.Ctx
	buf                eval.Scratch
	policy             ConflictPolicy
	u                  *value.Universe
	pos, neg           *tuple.Instance
	posNames, negNames []string
	emit               func(eval.Fact) bool
}

func newNonInflationary(rules []*eval.Rule, ctx *eval.Ctx, policy ConflictPolicy, u *value.Universe) *nonInflationary {
	s := &nonInflationary{rules: rules, ctx: ctx, policy: policy, u: u, pos: tuple.NewInstance(), neg: tuple.NewInstance()}
	ctx.Buf = &s.buf
	for _, cr := range rules {
		for _, h := range cr.Heads() {
			if h.Neg {
				s.neg.Ensure(h.Pred, len(h.Slots))
			} else {
				s.pos.Ensure(h.Pred, len(h.Slots))
			}
		}
	}
	s.posNames, s.negNames = s.pos.Names(), s.neg.Names()
	// The relations of the last fact's predicate on each side: a rule
	// emits runs of facts for one head, and a stage only clears them.
	var posPred, negPred string
	var posRel, negRel *tuple.Relation
	s.emit = func(f eval.Fact) bool {
		if f.Neg {
			if f.Pred != negPred {
				negPred, negRel = f.Pred, s.neg.Relation(f.Pred)
			}
			return negRel.Insert(f.Tuple)
		}
		if f.Pred != posPred {
			posPred, posRel = f.Pred, s.pos.Relation(f.Pred)
		}
		return posRel.Insert(f.Tuple)
	}
	return s
}

// fire computes one parallel firing of all rules on the instance of
// the context into pos and neg.
func (s *nonInflationary) fire() {
	for _, name := range s.posNames {
		s.pos.Relation(name).Clear()
	}
	for _, name := range s.negNames {
		s.neg.Relation(name).Clear()
	}
	for ri, cr := range s.rules {
		cr.Fire(s.ctx, ri, nil, s.emit)
	}
}

// apply applies the firing to the instance of the context, returning
// the number of facts it inserted and retracted: both 0 when the
// instance is a fixpoint. It returns ErrInconsistent (wrapped, naming
// the fact) when the policy is Inconsistent and a conflict arises; the
// instance is then left partly applied.
func (s *nonInflationary) apply() (inserted, retracted int, err error) {
	pos, neg, cur, col := s.pos, s.neg, s.ctx.In, s.ctx.Stats
	var conflictErr error
	// Deletions first, then insertions, applying the policy to the
	// overlap. No policy deletes a fact and inserts it again:
	// PreferNegative keeps a conflicting fact from the insertions, the
	// others do not delete it. So a stage that applied nothing changed
	// nothing, and under NoOp cur still holds a conflicting fact iff it
	// did before the stage.
	for _, name := range s.negNames {
		neg.Relation(name).Each(func(t tuple.Tuple) bool {
			inPos := pos.Has(name, t)
			if inPos {
				col.Conflict()
			}
			switch s.policy {
			case PreferPositive:
				if !inPos && cur.Delete(name, t) {
					retracted++
					col.Retracted(1)
				}
			case PreferNegative:
				if cur.Delete(name, t) {
					retracted++
					col.Retracted(1)
				}
			case NoOp:
				if !inPos && cur.Delete(name, t) {
					retracted++
					col.Retracted(1)
				}
				// Conflicting fact: leave as in cur (no-op), so
				// suppress the later insertion by removing it from
				// pos unless cur holds it.
				if inPos && !cur.Has(name, t) {
					pos.Delete(name, t)
				}
			case Inconsistent:
				if inPos {
					conflictErr = fmt.Errorf("%w: %s%s", ErrInconsistent, name, t.String(s.u))
					return false
				}
				if cur.Delete(name, t) {
					retracted++
					col.Retracted(1)
				}
			}
			return true
		})
		if conflictErr != nil {
			return 0, 0, conflictErr
		}
	}
	for _, name := range s.posNames {
		pos.Relation(name).Each(func(t tuple.Tuple) bool {
			if s.policy == PreferNegative && neg.Has(name, t) {
				return true
			}
			if cur.Insert(name, t) {
				inserted++
			}
			return true
		})
	}
	return inserted, retracted, nil
}

// EvalInvent evaluates a Datalog¬new program (Section 4.3):
// inflationary semantics where variables occurring only in rule heads
// are valuated with fresh values outside the active domain, supplied
// by the universe. Invention is Skolemized per (rule, body
// instantiation), so re-firing an instantiation re-uses its invented
// values and the fixpoint is well defined. Because the language is
// computationally complete (Theorem 4.6), termination is not
// guaranteed; the default stage limit is 4096.
//
// The stages are EvalInflationary's with Skolem heads: a re-fired
// instantiation emits facts already present, so firing each one once,
// at the stage it becomes applicable, derives what firing every rule
// against the whole instance derives, stage for stage. Invented values
// join the domain without being new facts, so the kernel reads it anew
// every stage and fires a rule that reads it (eval.ReadsDomain) whole.
func EvalInvent(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	rules, col, out, err := begin("invent", ast.DialectDatalogNew, p, in, u, opt)
	if err != nil {
		return nil, err
	}
	k := engine.SemiNaive{Rules: rules, Forward: true, Limit: opt.StageLimit(4096), LimitErr: stageLimitErr,
		Heads: skolemHeads(rules, u, col), Adom: eval.NewAdomCache(u, p.Constants(), eval.ReadsDomain(rules))}
	stages, err := k.Run(opt, out, nil, nil, nil)
	return engine.Finish(out, stages, col, err)
}

// skolemHeads returns per rule the heads function that values its
// head-only variables, nil for a rule without any. A memo maps (rule,
// body binding), keyed in one reused buffer, to the values invented for
// it, which col counts. The binding copy with the values filled in and
// the heads are scratch a rule reuses at every firing, since the staging
// copies every fact it keeps.
func skolemHeads(rules []*eval.Rule, u *value.Universe, col *stats.Collector) []func(eval.Binding) []eval.Fact {
	memo := make(map[string][]value.Value)
	var key []byte
	heads := make([]func(eval.Binding) []eval.Fact, len(rules))
	for ri, cr := range rules {
		ho := cr.HeadOnlyVarIDs()
		if len(ho) == 0 {
			continue
		}
		var local eval.Binding
		scratch := cr.ScratchHeads()
		heads[ri] = func(b eval.Binding) []eval.Fact {
			key = strconv.AppendInt(key[:0], int64(ri), 10)
			key = append(key, '|')
			for _, v := range b {
				key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			vs, ok := memo[string(key)]
			if !ok {
				vs = make([]value.Value, len(ho))
				for i := range vs {
					vs[i] = u.Fresh()
				}
				col.Invented(len(vs))
				memo[string(key)] = vs
			}
			local = append(local[:0], b...)
			for i, v := range vs {
				local[ho[i]] = v
			}
			return scratch(local)
		}
	}
	return heads
}

// ValidateDomainSafe checks the syntactic safety restriction of
// Section 4.3 for a Datalog¬new program: the named answer relations
// must be guaranteed (by the ast.MayInvent flow analysis) to contain
// only values from the input domain, which makes the defined query
// deterministic. It returns an error naming the first unsafe answer
// relation.
func ValidateDomainSafe(p *ast.Program, answers ...string) error {
	if err := p.Validate(ast.DialectDatalogNew); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	may := p.MayInvent()
	if len(answers) == 0 {
		answers = p.IDB()
	}
	for _, a := range answers {
		if may[a] {
			return fmt.Errorf("core: answer relation %s may contain invented values (Datalog¬new domain-safety)", a)
		}
	}
	return nil
}

// InventedIn reports whether any fact of the named relations in the
// result contains an invented value — the dynamic counterpart of
// ValidateDomainSafe, useful in tests and assertions.
func InventedIn(res *tuple.Instance, u *value.Universe, preds ...string) bool {
	if len(preds) == 0 {
		preds = res.Names()
	}
	for _, name := range preds {
		r := res.Relation(name)
		if r == nil {
			continue
		}
		found := false
		r.Each(func(t tuple.Tuple) bool {
			for _, v := range t {
				if u.IsFresh(v) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// Answer extracts the answer relations of a program from a result:
// the IDB restricted to the given predicates (or all IDB predicates
// when none are given).
func Answer(p *ast.Program, res *tuple.Instance, preds ...string) *tuple.Instance {
	if len(preds) == 0 {
		preds = p.IDB()
	}
	sch, _ := p.Schema()
	return res.Restrict(preds, tuple.Schema(sch))
}
