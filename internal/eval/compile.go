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

	"unchained/internal/ast"
	"unchained/internal/value"
)

// slot is a compiled term: either a constant or a variable id.
type slot struct {
	val   value.Value
	varID int32
	isVar bool
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
	pos   int32
	varID int32
}

type step struct {
	kind  stepKind
	full  bool // stepMatch: mask binds every position, so the match is a membership test
	negEq bool // stepEqTest
	// cut, on the last step of an existential block, is the block's
	// outermost loop step plus one (0: none). See cutBlocks.
	cut int32

	// stepMatch / stepNegCheck
	pred     int // predicate id (see program)
	arity    int
	litIndex int    // index of the literal in the rule body (for delta targeting)
	mask     uint32 // positions bound before the step runs (consts + bound vars)
	cursor   int32  // stepMatch: the index of its cursor (frame.its)
	slots    []slot // the compiled argument list
	binds    []argBind
	checks   []argBind // repeated new variables within the same atom

	// stepEqAssign / stepEqTest
	left, right slot

	// stepEnum
	enumVar int

	// stepForall
	forall *forall
}

// forall is a compiled ∀-literal: the ids of its free (outer) variables
// in order of occurrence, and of the quantified ones, and the fully
// bound checks evaluated under each extension of a binding over them.
type forall struct {
	outer, vars []int
	plan        []check
}

// check is a fully-bound literal test used inside ∀-literals.
type check struct {
	kind        stepKind // stepMatch (containment), stepNegCheck, stepEqTest
	pred        int      // predicate id
	slots       []slot
	left, right slot
	negEq       bool
}

// HeadAtom is a compiled head literal.
type HeadAtom struct {
	Neg    bool
	Bottom bool
	id     int32 // Pred's id
	Pred   string
	Slots  []slot
}

// lit is a compiled body literal.
type lit struct {
	kind        ast.LitKind
	neg         bool
	pred        string
	id          int     // LitAtom: pred's id
	slots       []slot  // LitAtom: the compiled argument list
	left, right slot    // LitEq
	forall      *forall // LitForall
}

// text is what the rule text alone decides: variable ids, the compiled
// literals and heads, the scratch widths. It is built once by Compile
// and shared, read-only, by the rule and its delta variants, so every
// schedule of the rule has the same Binding layout.
type text struct {
	Src      ast.Rule
	prog     *program // numbers the predicates of the literals and heads
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
	// that first occur in a negative literal or an equality and in no
	// positive atom, or free in a ∀ (no schedule enumerates more over
	// the active domain).
	nArgs, nEnum int32
	// forall reports a ∀-literal, whose quantified variables range over
	// the active domain.
	forall bool
}

// readsDomain reports whether a schedule of the rule may enumerate the
// active domain: a variable that occurs in no positive atom may be left
// unbound by every join (the bound of nEnum), and a ∀-literal ranges
// over the domain. A rule for which it is false has no stepEnum and no
// stepForall in any schedule: every variable occurs in a positive atom,
// and every schedule places all positive atoms before it would
// enumerate anything. The literal order does not matter.
func (t *text) readsDomain() bool { return t.nEnum > 0 || t.forall }

// Rule is a compiled rule ready for enumeration, read-only once Compile,
// Delta or Literal returns it: what an evaluation varies lives in its
// context's Scratch. The baseline steps follow the seed's literal-order
// greedy schedule; the planner (plan.go) may substitute a
// cardinality-ordered alternative per evaluation context. A delta
// variant (Delta) is the same text under a schedule that starts from one
// pinned literal.
type Rule struct {
	*text
	deltaLit int32 // pinned-first delta literal, or -1
	// id numbers the rule among its program's planned rules and
	// variants (-1: not planned): the index of its plan pick in a slot
	// table (see slotTable.plan).
	id int32
	// steps is the literal-order schedule: nil for a planned variant,
	// whose one a context builds where the planner is off
	// (slotTable.literal).
	steps []step
}

// planned reports whether the planner may reorder the rule's schedule
// (see slotTable.plan).
func (r *Rule) planned() bool { return r.id >= 0 }

// planID returns the plan pick id of a schedule of the rule pinned at
// lit (-1: none), or -1 when the planner leaves it alone. Fewer than two
// joins leave nothing to reorder, and past 16 the signature packing
// would overflow (such bodies are rare enough that the baseline schedule
// is fine). A head-pinned variant keeps its baseline too: the plan cache
// keys on the body and the variables the heads read, not on the head
// atoms, and two rules with one body and different heads must not share
// a plan that matches a head first.
func (t *text) planID(lit int) int32 {
	if n := len(t.posBody); n < 2 || n > 16 || lit == len(t.lits) {
		return -1
	}
	return int32(t.prog.planned.Add(1) - 1)
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
func (r *Rule) DeltaLit() int { return int(r.deltaLit) }

// Compile compiles a rule. Head-only variables are permitted (they
// become invented-value slots); engines that forbid invention must
// validate the dialect before compiling.
func Compile(r ast.Rule) (*Rule, error) {
	rules, _, err := compileRules([]ast.Rule{r})
	if err != nil {
		return nil, err
	}
	return &rules[0].Rule, nil
}

// compiled is a compiled rule with its text, which compileRules
// allocates together.
type compiled struct {
	Rule
	t text
}

// compileRules compiles rules over one predicate numbering. The rules
// with their texts, and the texts' names, literals, slots, heads and
// positive-literal lists are carved from one array each. On failure it
// returns the index of the rule that failed.
func compileRules(src []ast.Rule) ([]compiled, int, error) {
	var total sizes
	for i := range src {
		total.add(sizeOf(&src[i]))
	}
	// The predicate names get room for a few; a program that names more
	// names them over fewer atoms than it has, and the list grows.
	preds := min(total.atoms, linearNames)
	strs := make([]string, preds+total.vars)
	a := arena{
		strs: strs[preds:], lits: make([]lit, total.lits), slots: make([]slot, total.slots),
		heads: make([]HeadAtom, total.heads), ints: make([]int, total.pos),
	}
	nm := newNamer(strs[:0:preds], total.atoms)
	rules := make([]compiled, len(src))
	for i := range src {
		cr, t := &rules[i].Rule, &rules[i].t
		if err := compileText(t, src[i], &nm, &a); err != nil {
			return nil, i, err
		}
		cr.text, cr.deltaLit = t, -1
		cr.steps = cr.schedule(-1, nil, nil)
		for i := range cr.steps {
			if st := &cr.steps[i]; st.kind == stepMatch {
				t.posBody = append(t.posBody, st.litIndex)
			}
		}
		cr.id = t.planID(-1)
		// A schedule matches every positive atom, and the literal it pins.
		nm.p.cursors = max(nm.p.cursors, len(t.posBody)+1)
	}
	return rules, 0, nil
}

// sizes bounds what compiling a rule (or rules) stores: atoms (in the
// body, the ∀-literals and the head; a bound on the predicates named),
// variable occurrences (a bound on the variables), slots, body literals,
// heads and positive atoms.
type sizes struct{ atoms, vars, slots, lits, heads, pos int }

func sizeOf(r *ast.Rule) sizes {
	n := sizes{atoms: len(r.Head), lits: len(r.Body), heads: len(r.Head)}
	lit := func(l *ast.Literal) {
		for _, tm := range l.Atom.Args { // an atom's arguments, an equality's terms
			n.vars += vars(tm)
		}
		if l.Kind == ast.LitAtom {
			n.slots += len(l.Atom.Args)
		}
		n.vars += len(l.ForallVars())
	}
	for i := range r.Body {
		l := &r.Body[i]
		body := l.ForallBody()
		n.atoms += 1 + len(body)
		lit(l)
		for j := range body {
			lit(&body[j])
		}
		if l.Kind == ast.LitAtom && !l.Neg {
			n.pos++
		}
	}
	for i := range r.Head {
		lit(&r.Head[i])
	}
	return n
}

// vars is 1 for a variable and 0 for a constant.
func vars(tm ast.Term) int {
	if tm.IsVar() {
		return 1
	}
	return 0
}

func (n *sizes) add(m sizes) {
	n.atoms, n.vars, n.slots = n.atoms+m.atoms, n.vars+m.vars, n.slots+m.slots
	n.lits, n.heads, n.pos = n.lits+m.lits, n.heads+m.heads, n.pos+m.pos
}

// arena is the storage compileRules carves the texts from. A text's
// names and slots take what they fill, the next text's follow.
type arena struct {
	strs  []string
	lits  []lit
	slots []slot
	heads []HeadAtom
	ints  []int
}

// carve cuts the first n elements off *s and returns them as an empty
// slice of capacity n.
func carve[T any](s *[]T, n int) []T {
	out := (*s)[:0:n]
	*s = (*s)[n:]
	return out
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
// The variant is a schedule of the compiled text, not a compilation,
// and Delta schedules it only for a variant the planner leaves alone
// (see planID): a planned one is scheduled where it is enumerated.
func (r *Rule) Delta(lit int) *Rule {
	v := &Rule{text: r.text, deltaLit: int32(lit), id: r.planID(lit)}
	if !v.planned() {
		v.steps = v.schedule(lit, nil, nil)
	}
	return v
}

// Literal returns the rule under its literal-order schedule, never
// planned: for an engine that runs the rule only in literal order, so
// that the schedule is built here and not at its first enumeration.
func (r *Rule) Literal() *Rule {
	v := *r
	if v.id = -1; v.steps == nil {
		v.steps = r.schedule(int(r.deltaLit), nil, nil)
	}
	return &v
}

// compiler interns a rule's variables and compiles its terms. Every
// slot list is carved from one backing array. A ∀-quantified variable
// gets an id of its own, which its name resolves to inside its literal
// and nowhere else: quantified holds those ids, scope the ones of the ∀
// being compiled.
type compiler struct {
	t                 *text
	nm                *namer
	slots             []slot
	quantified, scope []int
}

func (c *compiler) slot(tm ast.Term) slot {
	if !tm.IsVar() {
		return slot{val: tm.Const}
	}
	for _, id := range c.scope {
		if c.t.Vars[id] == tm.Var {
			return slot{isVar: true, varID: int32(id)}
		}
	}
	for i, v := range c.t.Vars {
		if v == tm.Var && !slices.Contains(c.quantified, i) {
			return slot{isVar: true, varID: int32(i)}
		}
	}
	c.t.Vars = append(c.t.Vars, tm.Var)
	return slot{isVar: true, varID: int32(len(c.t.Vars) - 1)}
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
func compileText(t *text, r ast.Rule, nm *namer, a *arena) error {
	n := sizeOf(&r)
	t.Src, t.prog = r, nm.p
	// The names and slots are appended where the last text's end, and
	// cut to size when the text is done.
	t.Vars, t.lits, t.posBody = a.strs[:0], carve(&a.lits, n.lits)[:n.lits], carve(&a.ints, n.pos)
	c := compiler{t: t, nm: nm, slots: a.slots[:0]}
	for i := range r.Body {
		l, cl := &r.Body[i], &t.lits[i]
		cl.kind, cl.neg = l.Kind, l.Neg
		before := len(t.Vars)
		switch l.Kind {
		case ast.LitAtom:
			if len(l.Atom.Args) > 32 {
				return fmt.Errorf("eval: relation %s has arity %d > 32", l.Atom.Pred, len(l.Atom.Args))
			}
			cl.pred, cl.id, cl.slots = l.Atom.Pred, nm.id(l.Atom.Pred), c.slotList(l.Atom.Args)
			t.width = max(t.width, len(cl.slots))
			t.nArgs += int32(len(cl.slots))
			if l.Neg {
				t.nEnum += unbound(t.Vars[before:], r.Body[i+1:])
			}
		case ast.LitEq:
			cl.left, cl.right = c.slot(l.Left()), c.slot(l.Right())
			t.nEnum += unbound(t.Vars[before:], r.Body[i+1:])
		case ast.LitForall:
			if err := c.forall(l, cl); err != nil {
				return err
			}
			t.forall = true
		default:
			return fmt.Errorf("eval: cannot schedule literal %d of rule", i)
		}
	}
	nBodyVars := len(t.Vars)

	// Compile heads. Head variables the body lacks are invented-value
	// slots.
	t.heads = carve(&a.heads, n.heads)
	for _, h := range r.Head {
		switch h.Kind {
		case ast.LitBottom:
			t.heads = append(t.heads, HeadAtom{Bottom: true})
		case ast.LitAtom:
			ha := HeadAtom{Neg: h.Neg, Pred: h.Atom.Pred, Slots: c.slotList(h.Atom.Args), id: int32(nm.id(h.Atom.Pred))}
			t.heads = append(t.heads, ha)
			t.headWidth += len(ha.Slots)
			t.width = max(t.width, len(ha.Slots)) // a head-pinned step's scratch
		default:
			return fmt.Errorf("eval: illegal head literal kind")
		}
	}
	for id := nBodyVars; id < len(t.Vars); id++ {
		t.headOnly = append(t.headOnly, id)
	}
	t.Vars = slices.Clip(t.Vars)
	a.strs, a.slots = a.strs[len(t.Vars):], a.slots[len(c.slots):]
	return nil
}

// unbound counts the vars no positive atom of rest holds: a schedule
// places every positive atom before it enumerates anything, so only
// these may be enumerated, whatever the literal order.
func unbound(vars []string, rest []ast.Literal) (n int32) {
	for _, v := range vars {
		if !slices.ContainsFunc(rest, func(l ast.Literal) bool {
			return l.Kind == ast.LitAtom && !l.Neg && slices.ContainsFunc(l.Atom.Args, func(tm ast.Term) bool { return tm.IsVar() && tm.Var == v })
		}) {
			n++
		}
	}
	return n
}

// forall compiles a ∀-literal: the outer variables first (they
// are what the literal waits for), then the quantified ones, then the
// inner literals as fully bound checks.
func (c *compiler) forall(l *ast.Literal, cl *lit) error {
	fa := &forall{}
	cl.forall = fa
	before := len(c.t.Vars)
	quant, body := l.ForallVars(), l.ForallBody()
	for i := range body {
		switch b := &body[i]; b.Kind {
		case ast.LitAtom, ast.LitEq:
			for _, tm := range b.Atom.Args {
				if tm.IsVar() && !slices.Contains(quant, tm.Var) {
					fa.outer = append(fa.outer, int(c.slot(tm).varID))
				}
			}
		default:
			return fmt.Errorf("eval: unsupported literal kind inside forall")
		}
	}
	c.t.nEnum += int32(len(c.t.Vars) - before)
	for _, v := range quant {
		fa.vars = append(fa.vars, len(c.t.Vars))
		c.t.Vars = append(c.t.Vars, v)
	}
	c.quantified, c.scope = append(c.quantified, fa.vars...), fa.vars
	for i := range body {
		b := &body[i]
		if b.Kind == ast.LitEq {
			fa.plan = append(fa.plan, check{kind: stepEqTest, negEq: b.Neg, left: c.slot(b.Left()), right: c.slot(b.Right())})
			continue
		}
		ck := check{kind: stepMatch, pred: c.nm.id(b.Atom.Pred), slots: c.slotList(b.Atom.Args)}
		if b.Neg {
			ck.kind = stepNegCheck
		}
		c.t.width = max(c.t.width, len(ck.slots))
		fa.plan = append(fa.plan, ck)
	}
	c.scope = nil
	return nil
}

// scheduler is the state of one schedule call: which variables are
// bound, which literals are placed, the steps so far. It lives on the
// stack; the flags, the steps and the binds are its three allocations.
// Once every literal is placed, cutBlocks reuses the bound flags.
type scheduler struct {
	t     *text
	ctx   *Ctx   // the cardinalities to plan for, or nil (see schedule)
	bound []bool // by variable id
	done  []bool // by body literal
	left  int    // literals not yet placed
	// cursors counts the match steps so far, each of which has a cursor
	// of its own during an enumeration.
	cursors int
	steps   []step
	binds   []argBind // what the steps' binds and checks are carved from
}

// schedule orders the rule's literals into steps and fills in what the
// order decides: each atom's mask, binds and checks. firstLit, when it
// names an atom (or, one past the body, the head atom), is placed first
// as a match, so the enumeration starts from the (small) delta
// relation. A nil ctx selects the seed's
// literal-order greedy schedule; a non-nil one turns the scheduler into
// the cost-based planner, reading the live cardinalities of the
// relations tab resolved under ctx (see plan.go). It cannot fail:
// compileText has rejected every literal a schedule could not place.
func (r *Rule) schedule(firstLit int, ctx *Ctx, tab *slotTable) []step {
	t := r.text
	nv, nl := len(t.Vars), len(t.lits)
	flags := make([]bool, nv+nl)
	var head *HeadAtom // pinned first
	nSteps, nBinds := nl+int(t.nEnum), int(t.nArgs)
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
		s.steps = append(s.steps, s.match(stepMatch, firstLit, &lit{kind: ast.LitAtom, pred: head.Pred, id: int(head.id), slots: head.Slots}))
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
		if s.tryJoin(tab) || s.tryEq() || s.tryNeg() || s.tryForall() {
			continue
		}
		s.enumerate()
	}
	t.cutBlocks(s.steps, s.bound)
	return s.steps
}

// cutBlocks marks the existential blocks of steps: a run of steps whose
// variables no later step and no head reads. Once the steps after such
// a block return, every other witness of the block would only replay
// them, so its outermost loop step (a match that is not a membership
// test, or an enumeration) can stop: a block's last step k gets that
// loop's index plus one in cut, and Fire cuts (frame.ended). Each step
// takes the longest block that ends at it. A rule that invents values
// gets no cut: its values are keyed on the whole binding. live is
// scratch, one flag per variable, which is cleared and then set as the
// steps are walked from the last: the variables the heads and the steps
// after k read.
func (t *text) cutBlocks(steps []step, live []bool) {
	if len(t.headOnly) > 0 {
		return
	}
	clear(live)
	for _, h := range t.heads {
		for _, sl := range h.Slots {
			if sl.isVar {
				live[sl.varID] = true
			}
		}
	}
	for k := len(steps) - 1; k >= 0; k-- {
		for i := k; i >= 0 && !bindsLive(&steps[i], live); i-- {
			if st := &steps[i]; st.kind == stepEnum || st.kind == stepMatch && !st.full {
				steps[k].cut = int32(i) + 1
			}
		}
		markReads(&steps[k], live)
	}
}

// bindsLive reports whether st binds a variable live flags.
func bindsLive(st *step, live []bool) bool {
	switch st.kind {
	case stepMatch:
		for _, ab := range st.binds {
			if live[ab.varID] {
				return true
			}
		}
	case stepEqAssign:
		return live[st.left.varID]
	case stepEnum:
		return live[st.enumVar]
	}
	return false
}

// markReads flags live every variable st reads: one bound before it
// runs. A ∀-literal reads its outer variables; its quantified ones are
// its own.
func markReads(st *step, live []bool) {
	switch st.kind {
	case stepMatch, stepNegCheck:
		for pos, sl := range st.slots {
			if sl.isVar && (st.kind == stepNegCheck || st.mask&(1<<uint(pos)) != 0) {
				live[sl.varID] = true
			}
		}
	case stepEqTest:
		markSlot(st.left, live)
		markSlot(st.right, live)
	case stepEqAssign:
		markSlot(st.right, live) // left is the variable it binds
	case stepForall:
		for _, v := range st.forall.outer {
			live[v] = true
		}
	}
}

func markSlot(sl slot, live []bool) {
	if sl.isVar {
		live[sl.varID] = true
	}
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
	st := step{kind: kind, pred: l.id, arity: len(l.slots), litIndex: li, slots: l.slots}
	if kind == stepMatch {
		st.cursor, s.cursors = int32(s.cursors), s.cursors+1
	}
	from := len(s.binds)
	for pos, sl := range l.slots {
		if s.isBound(sl) {
			st.mask |= 1 << uint(pos)
		} else if bindsVar(s.binds[from:], sl.varID) < 0 {
			s.binds = append(s.binds, argBind{pos: int32(pos), varID: sl.varID})
		}
	}
	mid := len(s.binds)
	for pos, sl := range l.slots {
		if s.isBound(sl) {
			continue
		}
		if first := s.binds[from+bindsVar(s.binds[from:mid], sl.varID)]; int(first.pos) != pos {
			s.binds = append(s.binds, argBind{pos: int32(pos), varID: sl.varID})
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
	st.full = kind == stepMatch && st.arity > 0 && st.mask == 1<<uint(st.arity)-1
	return st
}

// bindsVar returns the index of the bind of varID in binds, or -1.
func bindsVar(binds []argBind, varID int32) int {
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
// positions, then first), |R| read from tab. tab is an argument, not a
// field, so that the scheduler's escaping state does not take it along.
func (s *scheduler) tryJoin(tab *slotTable) bool {
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
		est := estCard(tab.size(s.ctx, li, l.id), bc)
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
		for _, v := range l.forall.vars {
			s.bound[v] = true
		}
		s.place(li, step{kind: stepForall, forall: l.forall})
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
				return int(sl.varID)
			}
		}
	case ast.LitEq:
		if !s.isBound(l.left) {
			return int(l.left.varID)
		}
		if !s.isBound(l.right) {
			return int(l.right.varID)
		}
	case ast.LitForall:
		for _, v := range l.forall.outer {
			if !s.bound[v] {
				return v
			}
		}
	}
	return -1
}

// CompileProgram compiles every rule of a program, numbering the
// predicates of all of them once: an evaluation context resolves each
// number to a relation once per stage (see slotTable).
func CompileProgram(p *ast.Program) ([]*Rule, error) {
	rules, bad, err := compileRules(p.Rules)
	if err != nil {
		return nil, fmt.Errorf("rule %d: %w", bad+1, err)
	}
	out := make([]*Rule, len(rules))
	for i := range rules {
		out[i] = &rules[i].Rule
	}
	return out, nil
}
