// θ-subsumption-based redundant-rule elimination. Rule r1 subsumes
// rule r2 when a substitution θ over r1's variables maps r1's head
// onto r2's head and every body literal of θ(r1) onto some body
// literal of r2 (same polarity; equalities in either orientation).
// Then any valuation satisfying r2's body at some stage satisfies
// θ∘(r1's body) at the same stage — the matched literals are
// literally among r2's — and derives the identical ground head fact,
// so r2 contributes nothing at any stage of any engine. Under the
// well-founded semantics the same containment argument runs per truth
// value (true and not-false), so removal is exact there too.
//
// Guards: single positive atom heads on both sides, bodies of atoms
// and equalities only, no head-only variables (a Datalog¬new rule
// invents distinct fresh values per rule, so even an exact duplicate
// is not redundant), and a body-size cap — the check is NP-complete
// in general, and rules past the cap are left alone.
package opt

import (
	"unchained/internal/ast"
)

// subsumeMaxBody bounds the backtracking matcher.
const subsumeMaxBody = 12

// subsumables marks the rules the relation is defined on: plain
// deterministic-shaped ones, with one positive atom head, a capped body
// of atoms and equalities only, and no head-only variables. The rule's
// feature mask has all but the cap. Such a rule is listed once, in the
// Derive list of its head predicate, so those lists are the buckets
// the relation can hold within.
func subsumables(ix *ast.Index) []bool {
	const never = ast.FeatMultiHead | ast.FeatHeadNeg | ast.FeatBottom | ast.FeatForall |
		ast.FeatHeadOnlyVar | ast.FeatMalformed
	ok := make([]bool, len(ix.Rules))
	for ri := range ix.Rules {
		ok[ri] = ix.Rules[ri].Mask&never == 0 && len(ix.Prog.Rules[ri].Body) <= subsumeMaxBody
	}
	return ok
}

// subsume removes every rule subsumed by an earlier-surviving rule.
// When two rules subsume each other (variants), the one appearing
// first in the program wins.
func subsume(ix *ast.Index, res *Result) *ast.Index {
	p, ok := ix.Prog, subsumables(ix)
	by := make([]int32, len(p.Rules)) // 1 + the index of the rule that subsumes this one
	var m matcher
	n := 0
	for id := range ix.Preds {
		idxs := ix.Preds[id].Derive
		for a, i := range idxs {
			if !ok[i] || by[i] != 0 {
				continue
			}
			for _, j := range idxs[a+1:] {
				if !ok[j] || by[j] != 0 {
					continue
				}
				if m.subsumes(&p.Rules[i], &p.Rules[j]) {
					by[j], n = i+1, n+1
				} else if m.subsumes(&p.Rules[j], &p.Rules[i]) {
					by[i], n = j+1, n+1
					break
				}
			}
		}
	}
	drop := make([]bool, len(p.Rules))
	for i := range p.Rules {
		if by[i] != 0 {
			drop[i] = true
			res.note("subsume", p.Rules[i].SrcPos,
				"rule for "+headPred(&p.Rules[i])+" removed: subsumed by the rule at "+p.Rules[by[i]-1].SrcPos.String())
		}
	}
	res.RulesRemoved += n
	return dropRules(ix, drop, n)
}

// matcher decides θ-subsumption. θ maps r1's variables to r2's terms
// in one map reused across calls; bindings are undone from a trail of
// the variables bound, not by copying the map.
type matcher struct {
	theta map[string]ast.Term
	trail []string
}

// undo unbinds everything bound since the trail was n long.
func (m *matcher) undo(n int) {
	for _, v := range m.trail[n:] {
		delete(m.theta, v)
	}
	m.trail = m.trail[:n]
}

// subsumes reports whether r1 subsumes r2 (both already subsumable).
// r2 is treated as frozen — its variables only match themselves.
func (m *matcher) subsumes(r1, r2 *ast.Rule) bool {
	if m.theta == nil {
		m.theta = map[string]ast.Term{}
	}
	m.undo(0)
	return m.atom(&r1.Head[0].Atom, &r2.Head[0].Atom) && m.body(r1.Body, r2.Body)
}

func (m *matcher) body(body1, body2 []ast.Literal) bool {
	if len(body1) == 0 {
		return true
	}
	l1 := &body1[0]
	for i := range body2 {
		l2 := &body2[i]
		if l1.Kind != l2.Kind || l1.Neg != l2.Neg {
			continue
		}
		mark := len(m.trail)
		if m.literal(l1, l2) && m.body(body1[1:], body2) {
			return true
		}
		m.undo(mark)
	}
	return false
}

func (m *matcher) literal(l1, l2 *ast.Literal) bool {
	switch l1.Kind {
	case ast.LitAtom:
		return m.atom(&l1.Atom, &l2.Atom)
	case ast.LitEq:
		mark := len(m.trail)
		if m.term(l1.Left(), l2.Left()) && m.term(l1.Right(), l2.Right()) {
			return true
		}
		m.undo(mark)
		return m.term(l1.Left(), l2.Right()) && m.term(l1.Right(), l2.Left())
	}
	return false
}

func (m *matcher) atom(a1, a2 *ast.Atom) bool {
	if a1.Pred != a2.Pred || len(a1.Args) != len(a2.Args) {
		return false
	}
	for i := range a1.Args {
		if !m.term(a1.Args[i], a2.Args[i]) {
			return false
		}
	}
	return true
}

// term directionally matches a term of r1 against a frozen term of
// r2, extending θ.
func (m *matcher) term(t1, t2 ast.Term) bool {
	if !t1.IsVar() {
		return !t2.IsVar() && t1.Const == t2.Const
	}
	if bound, ok := m.theta[t1.Var]; ok {
		return sameTerm(bound, t2)
	}
	m.theta[t1.Var] = t2
	m.trail = append(m.trail, t1.Var)
	return true
}
