// Package eval contains the rule compiler and matcher shared by every
// engine in the repository.
//
// A rule is compiled once into a plan: a schedule of steps that binds
// the rule's variables left to right. Positive atom literals become
// index probes (joins), equality literals become assignments or
// checks, negative literals become absence checks once their
// variables are bound, ∀-literals become sub-plans, and any variable
// not bound by the positive structure is enumerated over the active
// domain — exactly the paper's convention that valuations map
// variables into adom(P, K) (Section 4.1).
package eval

import (
	"fmt"

	"unchained/internal/ast"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// slot is a compiled term: either a constant or a variable id.
type slot struct {
	isVar bool
	varID int
	val   value.Value
}

type stepKind uint8

const (
	stepMatch    stepKind = iota // join with a positive atom
	stepNegCheck                 // negative atom: absence check
	stepEqAssign                 // X = t with X unbound: bind X
	stepEqTest                   // (in)equality with both sides bound
	stepEnum                     // enumerate a variable over adom
	stepForall                   // universally quantified conjunction
)

// argCheck records an intra-atom consistency check: tuple position
// pos must equal the value already bound (or bound earlier in the
// same tuple) for variable varID.
type argBind struct {
	pos   int
	varID int
}

type step struct {
	kind stepKind

	// stepMatch / stepNegCheck
	pred     string
	arity    int
	litIndex int    // index of the literal in the rule body (for delta targeting)
	mask     uint32 // positions bound before the step runs (consts + bound vars)
	slots    []slot // the compiled argument list
	binds    []argBind
	checks   []argBind // repeated new variables within the same atom

	// stepEqAssign / stepEqTest
	left, right slot
	negEq       bool

	// stepEnum
	enumVar int

	// stepForall
	forallVars []int   // ids of the quantified variables
	forallPlan []check // fully-bound checks evaluated under each extension
}

// check is a fully-bound literal test used inside ∀-literals.
type check struct {
	kind        stepKind // stepMatch (containment), stepNegCheck, stepEqTest
	pred        string
	slots       []slot
	left, right slot
	negEq       bool
}

// HeadAtom is a compiled head literal.
type HeadAtom struct {
	Neg    bool
	Bottom bool
	Pred   string
	Slots  []slot
}

// Rule is a compiled rule ready for enumeration. The baseline steps
// follow the seed's literal-order greedy schedule; the planner
// (plan.go) may substitute a cardinality-ordered alternative per
// evaluation context, sharing the same variable ids.
type Rule struct {
	Src      ast.Rule
	Vars     []string // variable names; index is the variable id
	varIDs   map[string]int
	steps    []step
	heads    []HeadAtom
	headOnly []int // ids of head-only (invented-value) variables
	nBody    int   // number of body literals (for delta variants)
	posBody  []int // body indexes of positive atom literals
	// width is the widest body atom, ∀-bodies included: the scratch a
	// step depth needs for its probe pattern or check tuple. headWidth
	// is the summed arity of the head atoms (see Enumerate, Fire).
	width, headWidth int

	deltaLit int    // pinned-first delta literal, or -1
	planKey  string // structural body identity for shared plan caching
	plan     planState
}

// HeadOnlyVarIDs returns the ids of the invented-value variables.
func (r *Rule) HeadOnlyVarIDs() []int { return r.headOnly }

// PositiveBodyLits returns the body indexes of positive atom
// literals, used by semi-naive rewriting.
func (r *Rule) PositiveBodyLits() []int { return r.posBody }

// Heads returns the compiled head literals.
func (r *Rule) Heads() []HeadAtom { return r.heads }

// Compile compiles a rule. Head-only variables are permitted (they
// become invented-value slots); engines that forbid invention must
// validate the dialect before compiling.
func Compile(r ast.Rule) (*Rule, error) { return compile(r, -1) }

// CompileDelta compiles a delta variant of the rule for semi-naive
// evaluation: the positive body literal with the given index is
// scheduled first, so when the evaluation context targets it with a
// (small) delta relation, the join starts from the delta instead of
// scanning another relation — the classic "delta rule" plan.
func CompileDelta(r ast.Rule, deltaLit int) (*Rule, error) { return compile(r, deltaLit) }

func compile(r ast.Rule, firstLit int) (*Rule, error) { return compileCost(r, firstLit, nil) }

// sizeFn reports the cardinality of the relation a positive body
// literal matches against (In, or Delta for the pinned delta
// literal). A nil sizeFn selects the seed's literal-order greedy
// schedule; a non-nil one turns the scheduler into the cost-based
// planner (see plan.go).
type sizeFn func(litIndex int, pred string) int

func compileCost(r ast.Rule, firstLit int, size sizeFn) (*Rule, error) {
	cr := &Rule{Src: r, varIDs: map[string]int{}, nBody: len(r.Body), deltaLit: firstLit}
	id := func(name string) int {
		if i, ok := cr.varIDs[name]; ok {
			return i
		}
		i := len(cr.Vars)
		cr.varIDs[name] = i
		cr.Vars = append(cr.Vars, name)
		return i
	}
	mkSlot := func(t ast.Term) slot {
		if t.IsVar() {
			return slot{isVar: true, varID: id(t.Var)}
		}
		return slot{val: t.Const}
	}
	for _, l := range r.Body {
		cr.width = max(cr.width, len(l.Atom.Args))
		for _, inner := range l.ForallBody {
			cr.width = max(cr.width, len(inner.Atom.Args))
		}
	}

	// Pre-intern body variables so ids follow first occurrence order.
	// Quantified ∀-variables are interned here too (not at schedule
	// time): ids then depend only on the rule text, never on the
	// schedule, so a replanned step sequence shares the baseline's
	// Binding layout.
	type pending struct {
		lit   ast.Literal
		index int
	}
	var todo []pending
	for i, l := range r.Body {
		todo = append(todo, pending{l, i})
		for _, v := range bodyLitVars(l) {
			id(v)
		}
		if l.Kind == ast.LitForall {
			for _, v := range l.ForallVars {
				id(v)
			}
		}
	}

	bound := make([]bool, 0, 16)
	ensure := func(i int) {
		for len(bound) <= i {
			bound = append(bound, false)
		}
	}
	isBound := func(s slot) bool {
		if !s.isVar {
			return true
		}
		ensure(s.varID)
		return bound[s.varID]
	}
	bind := func(i int) {
		ensure(i)
		bound[i] = true
	}

	var arityErr error
	compileAtomStep := func(kind stepKind, a ast.Atom, litIndex int) step {
		if len(a.Args) > 32 && arityErr == nil {
			arityErr = fmt.Errorf("eval: relation %s has arity %d > 32", a.Pred, len(a.Args))
		}
		st := step{kind: kind, pred: a.Pred, arity: len(a.Args), litIndex: litIndex}
		seenNew := map[int]int{} // varID -> first new position
		for pos, t := range a.Args {
			s := mkSlot(t)
			st.slots = append(st.slots, s)
			if !s.isVar {
				st.mask |= 1 << uint(pos)
				continue
			}
			if isBound(s) {
				st.mask |= 1 << uint(pos)
				continue
			}
			if _, dup := seenNew[s.varID]; dup {
				st.checks = append(st.checks, argBind{pos: pos, varID: s.varID})
				continue
			}
			seenNew[s.varID] = pos
			st.binds = append(st.binds, argBind{pos: pos, varID: s.varID})
		}
		for v := range seenNew {
			bind(v)
		}
		return st
	}

	compileForall := func(l ast.Literal) (step, error) {
		st := step{kind: stepForall}
		// Quantified variables get ids too; they are bound only
		// within the sub-plan.
		for _, v := range l.ForallVars {
			st.forallVars = append(st.forallVars, id(v))
		}
		quant := map[int]bool{}
		for _, v := range st.forallVars {
			quant[v] = true
		}
		for _, b := range l.ForallBody {
			switch b.Kind {
			case ast.LitAtom:
				c := check{kind: stepMatch, pred: b.Atom.Pred}
				if b.Neg {
					c.kind = stepNegCheck
				}
				for _, t := range b.Atom.Args {
					s := mkSlot(t)
					if s.isVar && !quant[s.varID] && !isBound(s) {
						return st, fmt.Errorf("eval: forall literal uses unbound outer variable %s", t.Var)
					}
					c.slots = append(c.slots, s)
				}
				st.forallPlan = append(st.forallPlan, c)
			case ast.LitEq:
				c := check{kind: stepEqTest, negEq: b.Neg, left: mkSlot(b.Left), right: mkSlot(b.Right)}
				for _, s := range []slot{c.left, c.right} {
					if s.isVar && !quant[s.varID] && !isBound(s) {
						return st, fmt.Errorf("eval: forall literal uses unbound outer variable %s", cr.Vars[s.varID])
					}
				}
				st.forallPlan = append(st.forallPlan, c)
			default:
				return st, fmt.Errorf("eval: unsupported literal kind inside forall")
			}
		}
		return st, nil
	}

	// tryEq schedules one equality with at least one side bound,
	// reporting whether it progressed.
	tryEq := func() bool {
		for i, p := range todo {
			if p.lit.Kind != ast.LitEq {
				continue
			}
			l, rr := mkSlot(p.lit.Left), mkSlot(p.lit.Right)
			lb, rb := isBound(l), isBound(rr)
			switch {
			case lb && rb:
				cr.steps = append(cr.steps, step{kind: stepEqTest, left: l, right: rr, negEq: p.lit.Neg})
			case !p.lit.Neg && lb != rb:
				// Positive equality binds the free side.
				st := step{kind: stepEqAssign, left: l, right: rr}
				if lb {
					st.left, st.right = rr, l // normalize: left is the unbound side
				}
				bind(st.left.varID)
				cr.steps = append(cr.steps, st)
			default:
				continue
			}
			todo = append(todo[:i], todo[i+1:]...)
			return true
		}
		return false
	}

	// tryNeg schedules one negative atom with all variables bound.
	tryNeg := func() bool {
		for i, p := range todo {
			if p.lit.Kind != ast.LitAtom || !p.lit.Neg {
				continue
			}
			ready := true
			for _, t := range p.lit.Atom.Args {
				if t.IsVar() && !isBound(mkSlot(t)) {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			st := compileAtomStep(stepNegCheck, p.lit.Atom, p.index)
			cr.steps = append(cr.steps, st)
			todo = append(todo[:i], todo[i+1:]...)
			return true
		}
		return false
	}

	// boundCount counts the argument positions of an atom that are
	// bound (constants or already-bound variables) right now.
	boundCount := func(a ast.Atom) int {
		n := 0
		for _, t := range a.Args {
			if !t.IsVar() {
				n++
			} else if j, ok := cr.varIDs[t.Var]; ok {
				ensure(j)
				if bound[j] {
					n++
				}
			}
		}
		return n
	}

	// Greedy scheduling loop.
	for len(todo) > 0 {
		progressed := false

		// 0. A designated delta literal is scheduled first so the
		// enumeration starts from the (small) delta relation.
		if firstLit >= 0 {
			for i, p := range todo {
				if p.index == firstLit && p.lit.Kind == ast.LitAtom && !p.lit.Neg {
					st := compileAtomStep(stepMatch, p.lit.Atom, p.index)
					cr.steps = append(cr.steps, st)
					cr.posBody = append(cr.posBody, p.index)
					todo = append(todo[:i], todo[i+1:]...)
					break
				}
			}
			firstLit = -1
			continue
		}

		// 0b. Predicate pushdown (planner only): drain every equality
		// and negative check the current bindings already satisfy
		// before paying for the next join, so failing valuations are
		// pruned at the cheapest possible point. The seed schedule
		// runs these only after all joins (kept as the baseline the
		// oracle tests compare against).
		if size != nil && (tryEq() || tryNeg()) {
			continue
		}

		// 1. Positive atoms are always schedulable. The seed picks the
		// one with the most bound argument positions (ties: first); the
		// planner picks the smallest estimated probe output
		// |R| / 10^bound (ties: more bound positions, then first).
		bestIdx, bestScore := -1, -1
		var bestEst, bestBound = 0, -1
		for i, p := range todo {
			if p.lit.Kind != ast.LitAtom || p.lit.Neg {
				continue
			}
			bc := boundCount(p.lit.Atom)
			if size == nil {
				if bc > bestScore {
					bestScore, bestIdx = bc, i
				}
				continue
			}
			est := estCard(size(p.index, p.lit.Atom.Pred), bc)
			if bestIdx < 0 || est < bestEst || (est == bestEst && bc > bestBound) {
				bestIdx, bestEst, bestBound = i, est, bc
			}
		}
		if bestIdx >= 0 {
			p := todo[bestIdx]
			st := compileAtomStep(stepMatch, p.lit.Atom, p.index)
			cr.steps = append(cr.steps, st)
			cr.posBody = append(cr.posBody, p.index)
			todo = append(todo[:bestIdx], todo[bestIdx+1:]...)
			continue
		}

		// 2. Equalities with at least one side bound.
		if tryEq() {
			continue
		}

		// 3. Negative atoms with all variables bound.
		if tryNeg() {
			continue
		}

		// 4. Forall literals with all outer variables bound.
		for i, p := range todo {
			if p.lit.Kind != ast.LitForall {
				continue
			}
			ready := true
			for _, v := range bodyLitVars(p.lit) {
				if j, ok := cr.varIDs[v]; !ok || func() bool { ensure(j); return !bound[j] }() {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			st, err := compileForall(p.lit)
			if err != nil {
				return nil, err
			}
			// Quantified variables are scoped to the ∀-literal; mark
			// them bound so they are not misread as invented-value
			// variables below.
			for _, v := range st.forallVars {
				bind(v)
			}
			cr.steps = append(cr.steps, st)
			todo = append(todo[:i], todo[i+1:]...)
			progressed = true
			break
		}
		if progressed {
			continue
		}

		// 5. Nothing ready: enumerate the first unbound variable of
		// the first remaining literal over the active domain.
		var enumID = -1
		for _, v := range bodyLitVars(todo[0].lit) {
			j := id(v)
			ensure(j)
			if !bound[j] {
				enumID = j
				break
			}
		}
		if enumID < 0 {
			return nil, fmt.Errorf("eval: cannot schedule literal %d of rule", todo[0].index)
		}
		bind(enumID)
		cr.steps = append(cr.steps, step{kind: stepEnum, enumVar: enumID})
	}

	// Compile heads. Unbound head variables are invented-value slots.
	for _, h := range r.Head {
		switch h.Kind {
		case ast.LitBottom:
			cr.heads = append(cr.heads, HeadAtom{Bottom: true})
		case ast.LitAtom:
			ha := HeadAtom{Neg: h.Neg, Pred: h.Atom.Pred}
			for _, t := range h.Atom.Args {
				s := mkSlot(t)
				ha.Slots = append(ha.Slots, s)
			}
			cr.heads = append(cr.heads, ha)
			cr.headWidth += len(ha.Slots)
		default:
			return nil, fmt.Errorf("eval: illegal head literal kind")
		}
	}
	if arityErr != nil {
		return nil, arityErr
	}
	seenHO := map[int]bool{}
	for i := range cr.Vars {
		ensure(i)
		if !bound[i] && !seenHO[i] {
			seenHO[i] = true
			cr.headOnly = append(cr.headOnly, i)
		}
	}
	cr.planKey = bodyKey(r, cr.deltaLit)
	return cr, nil
}

// CompileProgram compiles every rule of a program.
func CompileProgram(p *ast.Program) ([]*Rule, error) {
	out := make([]*Rule, len(p.Rules))
	for i, r := range p.Rules {
		cr, err := Compile(r)
		if err != nil {
			return nil, fmt.Errorf("rule %d: %w", i+1, err)
		}
		out[i] = cr
	}
	return out, nil
}

// bodyLitVars returns the free variables of a body literal (for
// forall literals, the outer variables only).
func bodyLitVars(l ast.Literal) []string {
	switch l.Kind {
	case ast.LitAtom:
		var out []string
		for _, t := range l.Atom.Args {
			if t.IsVar() {
				out = append(out, t.Var)
			}
		}
		return out
	case ast.LitEq:
		var out []string
		if l.Left.IsVar() {
			out = append(out, l.Left.Var)
		}
		if l.Right.IsVar() {
			out = append(out, l.Right.Var)
		}
		return out
	case ast.LitForall:
		quant := map[string]bool{}
		for _, v := range l.ForallVars {
			quant[v] = true
		}
		var out []string
		for _, b := range l.ForallBody {
			for _, v := range bodyLitVars(b) {
				if !quant[v] {
					out = append(out, v)
				}
			}
		}
		return out
	default:
		return nil
	}
}

// relOf returns the relation for pred in in, or nil.
func relOf(in *tuple.Instance, pred string) *tuple.Relation {
	if in == nil {
		return nil
	}
	return in.Relation(pred)
}
