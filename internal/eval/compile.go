// Package eval contains the rule compiler and matcher shared by every
// engine in the repository.
//
// A rule is compiled once (Compile): its variables get ids, its body
// literals and heads become slots over those ids. Everything an
// evaluation varies is a schedule of that one compiled form — an order
// of steps that binds the rule's variables left to right. Positive atom
// literals become index probes (joins), equality literals become
// assignments or checks, negative literals become absence checks once
// their variables are bound, ∀-literals become sub-plans, and any
// variable not bound by the positive structure is enumerated over the
// active domain — exactly the paper's convention that valuations map
// variables into adom(P, K) (Section 4.1).
package eval

import (
	"fmt"
	"slices"
	"sync/atomic"

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

// lit is a compiled body literal.
type lit struct {
	kind        ast.LitKind
	neg         bool
	pred        string
	slots       []slot // LitAtom: the compiled argument list
	prev        int    // LitAtom: the last atom before it of its sign over pred, or -1
	left, right slot   // LitEq
	// LitForall: the ids of the free (outer) variables in order of
	// occurrence, of the quantified ones, and the inner checks.
	outer, forallVars []int
	forallPlan        []check
}

// text is what the rule text alone decides: variable ids, the compiled
// literals and heads, the scratch widths. It is built once by Compile
// and shared, read-only, by the rule and its delta variants, so every
// schedule of the rule has the same Binding layout.
type text struct {
	Src      ast.Rule
	Vars     []string // variable names; index is the variable id
	lits     []lit
	heads    []HeadAtom
	headOnly []int // ids of head-only (invented-value) variables
	posBody  []int // body indexes of positive atom literals, in baseline join order
	// width is the widest body atom, ∀-bodies included: the scratch a
	// step depth needs for its probe pattern or check tuple. headWidth
	// is the summed arity of the head atoms (see Enumerate, Fire).
	width, headWidth int
	// nArgs is the summed arity of the body atoms (what a schedule's
	// binds and checks are carved from), nEnum the number of variables
	// that first occur in a negative literal, an equality or free in a
	// ∀ (no schedule enumerates more over the active domain).
	nArgs, nEnum int
	// planKey is the body's structural identity for shared plan caching
	// (bodyKey), rendered by the first lookup in a PlanCache.
	planKey atomic.Pointer[string]
}

// cacheKey returns the rule body's planKey. Two goroutines that render
// it at once store equal strings.
func (t *text) cacheKey() string {
	if k := t.planKey.Load(); k != nil {
		return *k
	}
	k := bodyKey(t.Src)
	t.planKey.Store(&k)
	return k
}

// Rule is a compiled rule ready for enumeration. The baseline steps
// follow the seed's literal-order greedy schedule; the planner
// (plan.go) may substitute a cardinality-ordered alternative per
// evaluation context. A delta variant (Delta) is the same text under a
// schedule that starts from one pinned literal, with a plan memo of its
// own.
type Rule struct {
	*text
	deltaLit int // pinned-first delta literal, or -1
	steps    []step
	plan     planState
}

// HeadOnlyVarIDs returns the ids of the invented-value variables.
func (r *Rule) HeadOnlyVarIDs() []int { return r.headOnly }

// PositiveBodyLits returns the body indexes of positive atom
// literals, used by semi-naive rewriting.
func (r *Rule) PositiveBodyLits() []int { return r.posBody }

// Heads returns the compiled head literals.
func (r *Rule) Heads() []HeadAtom { return r.heads }

// DeltaLit returns the body index of the literal a delta variant pins
// first (what Ctx.DeltaLit is set to when the variant fires over a
// delta), or -1 for a rule that is not a variant.
func (r *Rule) DeltaLit() int { return r.deltaLit }

// Compile compiles a rule. Head-only variables are permitted (they
// become invented-value slots); engines that forbid invention must
// validate the dialect before compiling.
func Compile(r ast.Rule) (*Rule, error) {
	t, err := compileText(r)
	if err != nil {
		return nil, err
	}
	cr := &Rule{text: t, deltaLit: -1}
	cr.steps = cr.schedule(-1, nil, nil)
	for i := range cr.steps {
		if st := &cr.steps[i]; st.kind == stepMatch {
			t.posBody = append(t.posBody, st.litIndex)
		}
	}
	return cr, nil
}

// Delta returns the delta variant of the rule for semi-naive
// evaluation: the body atom literal with the given index is scheduled
// first, so when the evaluation context targets it with a (small) delta
// relation, the join starts from the delta instead of scanning another
// relation — the classic "delta rule" plan. A negative literal pinned
// this way is matched, not checked: the variant enumerates the firings
// the delta's facts block, each with its other literals as in the rule —
// the firings a fact entering the negated relation takes away, or one
// leaving it gives.
//
// lit one past the last body literal pins the head atom of a rule with
// one: the variant asks "does the rule still derive this fact?". Driven
// by a fact of the head predicate it enumerates the firings that derive
// that fact; head constants and repeated head variables are checks of
// the pinned step like any other atom's.
//
// The variant is a schedule of the compiled text, not a compilation.
func (r *Rule) Delta(lit int) *Rule {
	return &Rule{text: r.text, deltaLit: lit, steps: r.schedule(lit, nil, nil)}
}

// compiler interns a rule's variables and compiles its terms. Every
// slot list is carved from one backing array. A ∀-quantified variable
// gets an id of its own, which its name resolves to inside its literal
// and nowhere else: quantified holds those ids, scope the ones of the ∀
// being compiled.
type compiler struct {
	t                 *text
	slots             []slot
	quantified, scope []int
}

func (c *compiler) slot(tm ast.Term) slot {
	if !tm.IsVar() {
		return slot{val: tm.Const}
	}
	for _, id := range c.scope {
		if c.t.Vars[id] == tm.Var {
			return slot{isVar: true, varID: id}
		}
	}
	for i, v := range c.t.Vars {
		if v == tm.Var && !slices.Contains(c.quantified, i) {
			return slot{isVar: true, varID: i}
		}
	}
	c.t.Vars = append(c.t.Vars, tm.Var)
	return slot{isVar: true, varID: len(c.t.Vars) - 1}
}

func (c *compiler) slotList(args []ast.Term) []slot {
	from := len(c.slots)
	for _, tm := range args {
		c.slots = append(c.slots, c.slot(tm))
	}
	return c.slots[from:len(c.slots):len(c.slots)]
}

// compileText interns the rule's variables — the body's first, in
// order of first occurrence, so ids depend only on the text — and
// compiles the literals and heads over them.
func compileText(r ast.Rule) (*text, error) {
	nTerms, nPos := 0, 0
	for i := range r.Body {
		l := &r.Body[i]
		nTerms += len(l.Atom.Args) + 2 + len(l.ForallVars)
		for j := range l.ForallBody {
			nTerms += len(l.ForallBody[j].Atom.Args) + 2
		}
		if l.Kind == ast.LitAtom && !l.Neg {
			nPos++
		}
	}
	for i := range r.Head {
		nTerms += len(r.Head[i].Atom.Args)
	}
	t := &text{Src: r, Vars: make([]string, 0, nTerms), lits: make([]lit, len(r.Body)), posBody: make([]int, 0, nPos)}
	c := compiler{t: t, slots: make([]slot, 0, nTerms)}
	for i := range r.Body {
		l, cl := &r.Body[i], &t.lits[i]
		cl.kind, cl.neg, cl.prev = l.Kind, l.Neg, -1
		before := len(t.Vars)
		switch l.Kind {
		case ast.LitAtom:
			if len(l.Atom.Args) > 32 {
				return nil, fmt.Errorf("eval: relation %s has arity %d > 32", l.Atom.Pred, len(l.Atom.Args))
			}
			cl.pred, cl.slots = l.Atom.Pred, c.slotList(l.Atom.Args)
			for j := i - 1; j >= 0 && cl.prev < 0; j-- {
				if pl := &t.lits[j]; pl.kind == ast.LitAtom && pl.neg == cl.neg && pl.pred == cl.pred {
					cl.prev = j
				}
			}
			t.width = max(t.width, len(cl.slots))
			t.nArgs += len(cl.slots)
			if l.Neg {
				t.nEnum += len(t.Vars) - before
			}
		case ast.LitEq:
			cl.left, cl.right = c.slot(l.Left), c.slot(l.Right)
			t.nEnum += len(t.Vars) - before
		case ast.LitForall:
			if err := c.forall(l, cl); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("eval: cannot schedule literal %d of rule", i)
		}
	}
	nBodyVars := len(t.Vars)

	// Compile heads. Head variables the body lacks are invented-value
	// slots.
	t.heads = make([]HeadAtom, 0, len(r.Head))
	for _, h := range r.Head {
		switch h.Kind {
		case ast.LitBottom:
			t.heads = append(t.heads, HeadAtom{Bottom: true})
		case ast.LitAtom:
			ha := HeadAtom{Neg: h.Neg, Pred: h.Atom.Pred, Slots: c.slotList(h.Atom.Args)}
			t.heads = append(t.heads, ha)
			t.headWidth += len(ha.Slots)
			t.width = max(t.width, len(ha.Slots)) // a head-pinned step's scratch
		default:
			return nil, fmt.Errorf("eval: illegal head literal kind")
		}
	}
	for id := nBodyVars; id < len(t.Vars); id++ {
		t.headOnly = append(t.headOnly, id)
	}
	return t, nil
}

// forall compiles a ∀-literal: the outer variables first (they
// are what the literal waits for), then the quantified ones, then the
// inner literals as fully bound checks.
func (c *compiler) forall(l *ast.Literal, cl *lit) error {
	before := len(c.t.Vars)
	outer := func(tm ast.Term) {
		if tm.IsVar() && !slices.Contains(l.ForallVars, tm.Var) {
			cl.outer = append(cl.outer, c.slot(tm).varID)
		}
	}
	for i := range l.ForallBody {
		switch b := &l.ForallBody[i]; b.Kind {
		case ast.LitAtom:
			for _, tm := range b.Atom.Args {
				outer(tm)
			}
		case ast.LitEq:
			outer(b.Left)
			outer(b.Right)
		default:
			return fmt.Errorf("eval: unsupported literal kind inside forall")
		}
	}
	c.t.nEnum += len(c.t.Vars) - before
	for _, v := range l.ForallVars {
		cl.forallVars = append(cl.forallVars, len(c.t.Vars))
		c.t.Vars = append(c.t.Vars, v)
	}
	c.quantified, c.scope = append(c.quantified, cl.forallVars...), cl.forallVars
	for i := range l.ForallBody {
		b := &l.ForallBody[i]
		if b.Kind == ast.LitEq {
			cl.forallPlan = append(cl.forallPlan, check{kind: stepEqTest, negEq: b.Neg, left: c.slot(b.Left), right: c.slot(b.Right)})
			continue
		}
		ck := check{kind: stepMatch, pred: b.Atom.Pred, slots: c.slotList(b.Atom.Args)}
		if b.Neg {
			ck.kind = stepNegCheck
		}
		c.t.width = max(c.t.width, len(ck.slots))
		cl.forallPlan = append(cl.forallPlan, ck)
	}
	c.scope = nil
	return nil
}

// scheduler is the state of one schedule call: which variables are
// bound, which literals are placed, the steps so far. It lives on the
// stack; the flags, the steps and the binds are its three allocations.
type scheduler struct {
	t     *text
	ctx   *Ctx   // the cardinalities to plan for, or nil (see schedule)
	bound []bool // by variable id
	done  []bool // by body literal
	left  int    // literals not yet placed
	steps []step
	binds []argBind // what the steps' binds and checks are carved from
}

// schedule orders the rule's literals into steps and fills in what the
// order decides: each atom's mask, binds and checks. firstLit, when it
// names an atom (or, one past the body, the head atom), is placed first
// as a match, so the enumeration starts from the (small) delta
// relation. A nil ctx selects the seed's
// literal-order greedy schedule; a non-nil one turns the scheduler into
// the cost-based planner, reading the live cardinalities of rels, the
// relations resolved under ctx (see plan.go). It cannot fail:
// compileText has rejected every literal a schedule could not place.
func (r *Rule) schedule(firstLit int, ctx *Ctx, rels []*tuple.Relation) []step {
	t := r.text
	nv, nl := len(t.Vars), len(t.lits)
	flags := make([]bool, nv+nl)
	var head *HeadAtom // pinned first
	nSteps, nBinds := nl+t.nEnum, t.nArgs
	if firstLit == nl && len(t.heads) == 1 && !t.heads[0].Bottom {
		head = &t.heads[0]
		nSteps, nBinds = nSteps+1, nBinds+len(head.Slots)
	}
	s := scheduler{
		t: t, ctx: ctx, bound: flags[:nv], done: flags[nv:], left: nl,
		steps: make([]step, 0, nSteps), binds: make([]argBind, 0, nBinds),
	}
	switch {
	case head != nil:
		s.steps = append(s.steps, s.match(stepMatch, firstLit, &lit{kind: ast.LitAtom, pred: head.Pred, slots: head.Slots}))
	case firstLit >= 0 && firstLit < nl && t.lits[firstLit].kind == ast.LitAtom:
		s.atom(stepMatch, firstLit)
	}
	for s.left > 0 {
		// Predicate pushdown (planner only): drain every equality and
		// negative check the current bindings already satisfy before
		// paying for the next join, so failing valuations are pruned at
		// the cheapest possible point. The seed schedule runs these only
		// after all joins (kept as the baseline the oracle tests compare
		// against).
		if ctx != nil && (s.tryEq() || s.tryNeg()) {
			continue
		}
		// Positive atoms are always schedulable; then equalities with a
		// side bound, negative atoms and ∀-literals with every (outer)
		// variable bound. When nothing is ready, the first unbound
		// variable of the first remaining literal is enumerated over the
		// active domain.
		if s.tryJoin(rels) || s.tryEq() || s.tryNeg() || s.tryForall() {
			continue
		}
		s.enumerate()
	}
	return s.steps
}

func (s *scheduler) isBound(sl slot) bool { return !sl.isVar || s.bound[sl.varID] }

func (s *scheduler) place(li int, st step) {
	s.steps = append(s.steps, st)
	s.done[li] = true
	s.left--
}

// atom places atom literal li as a match or an absence check.
func (s *scheduler) atom(kind stepKind, li int) {
	s.place(li, s.match(kind, li, &s.t.lits[li]))
}

// match returns the step of atom l, with index li: bound positions go
// into the mask, the first occurrence of each new variable binds it, a
// repeat within the atom is checked against it.
func (s *scheduler) match(kind stepKind, li int, l *lit) step {
	st := step{kind: kind, pred: l.pred, arity: len(l.slots), litIndex: li, slots: l.slots}
	from := len(s.binds)
	for pos, sl := range l.slots {
		if s.isBound(sl) {
			st.mask |= 1 << uint(pos)
		} else if bindsVar(s.binds[from:], sl.varID) < 0 {
			s.binds = append(s.binds, argBind{pos: pos, varID: sl.varID})
		}
	}
	mid := len(s.binds)
	for pos, sl := range l.slots {
		if s.isBound(sl) {
			continue
		}
		if first := s.binds[from+bindsVar(s.binds[from:mid], sl.varID)]; first.pos != pos {
			s.binds = append(s.binds, argBind{pos: pos, varID: sl.varID})
		}
	}
	if mid > from {
		st.binds = s.binds[from:mid:mid]
	}
	if end := len(s.binds); end > mid {
		st.checks = s.binds[mid:end:end]
	}
	for _, ab := range st.binds {
		s.bound[ab.varID] = true
	}
	return st
}

// bindsVar returns the index of the bind of varID in binds, or -1.
func bindsVar(binds []argBind, varID int) int {
	for i, ab := range binds {
		if ab.varID == varID {
			return i
		}
	}
	return -1
}

// tryJoin places one positive atom. The seed picks the one with the
// most bound argument positions (ties: first); the planner picks the
// smallest estimated probe output |R| / 10^bound (ties: more bound
// positions, then first), |R| read from rels. rels is an argument, not a
// field, so that the scheduler's escaping state does not take it along.
func (s *scheduler) tryJoin(rels []*tuple.Relation) bool {
	best, bestEst, bestBound := -1, 0, -1
	for li := range s.t.lits {
		l := &s.t.lits[li]
		if s.done[li] || l.kind != ast.LitAtom || l.neg {
			continue
		}
		bc := 0
		for _, sl := range l.slots {
			if s.isBound(sl) {
				bc++
			}
		}
		if s.ctx == nil {
			if bc > bestBound {
				best, bestBound = li, bc
			}
			continue
		}
		est := estCard(ctxSize(s.ctx, rels, li), bc)
		if best < 0 || est < bestEst || (est == bestEst && bc > bestBound) {
			best, bestEst, bestBound = li, est, bc
		}
	}
	if best >= 0 {
		s.atom(stepMatch, best)
	}
	return best >= 0
}

// tryEq places one equality with at least one side bound: a test when
// both are, an assignment when a positive equality has one side free.
func (s *scheduler) tryEq() bool {
	for li := range s.t.lits {
		l := &s.t.lits[li]
		if s.done[li] || l.kind != ast.LitEq {
			continue
		}
		lb, rb := s.isBound(l.left), s.isBound(l.right)
		switch {
		case lb && rb:
			s.place(li, step{kind: stepEqTest, left: l.left, right: l.right, negEq: l.neg})
		case !l.neg && lb:
			s.bound[l.right.varID] = true
			s.place(li, step{kind: stepEqAssign, left: l.right, right: l.left}) // left is the unbound side
		case !l.neg && rb:
			s.bound[l.left.varID] = true
			s.place(li, step{kind: stepEqAssign, left: l.left, right: l.right})
		default:
			continue
		}
		return true
	}
	return false
}

// tryNeg places one negative atom with all variables bound.
func (s *scheduler) tryNeg() bool {
	for li := range s.t.lits {
		l := &s.t.lits[li]
		if s.done[li] || l.kind != ast.LitAtom || !l.neg || s.firstUnbound(l) >= 0 {
			continue
		}
		s.atom(stepNegCheck, li)
		return true
	}
	return false
}

// tryForall places one ∀-literal with all outer variables bound. The
// quantified variables are scoped to the literal; they are marked bound
// so no later step enumerates them.
func (s *scheduler) tryForall() bool {
	for li := range s.t.lits {
		l := &s.t.lits[li]
		if s.done[li] || l.kind != ast.LitForall || s.firstUnbound(l) >= 0 {
			continue
		}
		for _, v := range l.forallVars {
			s.bound[v] = true
		}
		s.place(li, step{kind: stepForall, forallVars: l.forallVars, forallPlan: l.forallPlan})
		return true
	}
	return false
}

// enumerate binds the first unbound variable of the first remaining
// literal by enumeration over the active domain.
func (s *scheduler) enumerate() {
	for li := range s.t.lits {
		if s.done[li] {
			continue
		}
		id := s.firstUnbound(&s.t.lits[li])
		if id < 0 {
			panic("eval: a body literal with every variable bound was not placed")
		}
		s.bound[id] = true
		s.steps = append(s.steps, step{kind: stepEnum, enumVar: id})
		return
	}
}

// firstUnbound returns the id of the literal's first free variable not
// yet bound (for a ∀-literal, of its outer variables), or -1.
func (s *scheduler) firstUnbound(l *lit) int {
	switch l.kind {
	case ast.LitAtom:
		for _, sl := range l.slots {
			if !s.isBound(sl) {
				return sl.varID
			}
		}
	case ast.LitEq:
		if !s.isBound(l.left) {
			return l.left.varID
		}
		if !s.isBound(l.right) {
			return l.right.varID
		}
	case ast.LitForall:
		for _, v := range l.outer {
			if !s.bound[v] {
				return v
			}
		}
	}
	return -1
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

// relOf returns the relation for pred in in, or nil.
func relOf(in *tuple.Instance, pred string) *tuple.Relation {
	if in == nil {
		return nil
	}
	return in.Relation(pred)
}
