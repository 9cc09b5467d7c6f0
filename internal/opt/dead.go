// Dead-rule elimination: three independent justifications for
// removing a rule, from strongest to most conditional.
//
//   - unsat: the body contains a ground-false literal, so no stage of
//     any engine can satisfy it. Ground equalities are two-valued
//     even under the well-founded semantics, so removal is exact
//     there too.
//   - underivable: a positive body atom reads a predicate that has
//     deriving rules but whose rules can transitively never fire from
//     the extensional seeds. Sound only if the underivable predicates
//     carry no input facts — this repository allows facts on IDB
//     predicates — so every removal registers that assumption for the
//     caller to check against the actual instance.
//   - unreachable: the rule's head cannot reach any declared output
//     root in the dependency graph. Derivations of reachable
//     predicates never read unreachable ones (edges point from head
//     to body), so the observed fragment is computed stage-exactly;
//     the caller promised to read only the roots.
package opt

import (
	"unchained/internal/ast"
	"unchained/internal/value"
)

// dropRules returns the index of ix.Prog without the n rules drop
// marks (ix itself when n is 0), derived from ix.
func dropRules(ix *ast.Index, drop []bool, n int) *ast.Index {
	if n == 0 {
		return ix
	}
	p := ix.Prog
	out, from := make([]ast.Rule, 0, len(p.Rules)-n), make([]int32, 0, len(p.Rules)-n)
	for ri := range p.Rules {
		if !drop[ri] {
			out, from = append(out, p.Rules[ri]), append(from, int32(ri))
		}
	}
	return ix.Update(&ast.Program{Rules: out}, from)
}

// deadUnsat removes rules whose body contains a ground-false literal
// (left behind as a witness by constprop, or written by the user).
func deadUnsat(ix *ast.Index, u *value.Universe, res *Result) *ast.Index {
	p := ix.Prog
	drop, n := make([]bool, len(p.Rules)), 0
	for ri := range p.Rules {
		r := &p.Rules[ri]
		if lit, ok := groundFalseLiteral(r); ok {
			drop[ri], n = true, n+1
			res.note("dead", r.SrcPos, "rule for "+headPred(r)+" removed: body literal "+lit.String(u)+" can never hold")
		}
	}
	res.RulesRemoved += n
	return dropRules(ix, drop, n)
}

// deadUnderivable removes rules with a positive body atom on an
// underivable predicate. Derivability is the analyzer's fixpoint
// (ast.Index.Underivable): extensional predicates (no positive head
// occurrence) may always receive input facts, and an intensional
// predicate is derivable once some rule for it has every positive body
// atom derivable. Negations, equalities, and ∀-literals are
// conservatively treated as satisfiable.
//
// Removals assume the underivable predicates carry no input facts;
// the assumption set is recorded for the caller's instance check.
func deadUnderivable(ix *ast.Index, res *Result, assumed map[string]bool) *ast.Index {
	p, under := ix.Prog, ix.Underivable(false)
	drop, n := make([]bool, len(p.Rules)), 0
	for ri := range p.Rules {
		for _, o := range ix.Body(ri) {
			if !o.Nested && !o.Lit.Neg && under[o.Pred] {
				drop[ri], n = true, n+1
				res.note("dead", p.Rules[ri].SrcPos, "rule for "+headPred(&p.Rules[ri])+
					" removed: body reads underivable predicate "+ix.Preds[o.Pred].Name+" (assuming it has no input facts)")
				break
			}
		}
	}
	if n > 0 {
		// The justification is transitive across the whole underivable
		// set, so the assumption covers all of it.
		for id, is := range under {
			if is {
				assumed[ix.Preds[id].Name] = true
			}
		}
	}
	res.RulesRemoved += n
	return dropRules(ix, drop, n)
}

// deadUnreachable removes rules none of whose head predicates can
// reach a root. Rules with ⊥ heads are kept (and keep their body
// predicates reachable): inconsistency is a global observation.
func deadUnreachable(ix *ast.Index, roots []string, res *Result) *ast.Index {
	p, reach := ix.Prog, reachableFrom(ix, roots)
	drop, n := make([]bool, len(p.Rules)), 0
	for ri := range p.Rules {
		heads := ix.Heads(ri)
		keep := len(heads) < len(p.Rules[ri].Head) // a ⊥ (or malformed) head
		for _, h := range heads {
			keep = keep || reach[h.Pred]
		}
		if !keep {
			drop[ri], n = true, n+1
			res.note("dead", p.Rules[ri].SrcPos, "rule for "+headPred(&p.Rules[ri])+" removed: unreachable from output root(s)")
		}
	}
	res.RulesRemoved += n
	return dropRules(ix, drop, n)
}
