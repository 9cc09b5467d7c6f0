// Adornment (binding-pattern) analysis and the sideways-information-
// passing body reorder. Starting from the output roots (all-free, the
// magic-sets convention for a top-level query), binding patterns
// propagate through rule bodies left to right: an argument is bound
// when it is a constant or a variable already bound by an earlier
// positive literal. The derived pattern set is plan metadata — the
// planner's cost model starts from the static order this pass
// produces, and -explain narrates both.
//
// The reorder itself is semantically free: the repository's join
// order independence is pinned by the planner oracle, and the rule
// compiler defers negative literals until their variables are bound
// regardless of source order. The pass still keeps reordering
// conservative — only rules whose bodies are plain atoms and
// equalities are touched, and ineligible literals keep their relative
// source order.
package opt

import (
	"sort"
	"strings"

	"unchained/internal/ast"
)

// reorder rewrites every eligible rule body bound-first.
func reorder(p *ast.Program, res *Result) (*ast.Program, bool) {
	var out []ast.Rule
	for ri := range p.Rules {
		r := &p.Rules[ri]
		if nb, ch := reorderBody(r); ch {
			if out == nil {
				out = append(out, p.Rules...)
			}
			out[ri].Body = nb
			res.note("adorn", CodeAdorned, r.SrcPos,
				"rule for %s: body reordered bound-first (SIPS)", headPred(r))
		}
	}
	if out == nil {
		return p, false
	}
	return &ast.Program{Rules: out}, true
}

// reorderBody greedily orders body literals: once-eligible filters
// (equalities and negated atoms with every variable bound) run as
// early as possible, and among positive atoms the one with the most
// bound arguments goes next (ties keep source order). Rules with ∀
// or ⊥ literals, or fewer than three body literals, are left alone.
func reorderBody(r *ast.Rule) ([]ast.Literal, bool) {
	if len(r.Body) < 3 {
		return nil, false
	}
	for _, l := range r.Body {
		if l.Kind != ast.LitAtom && l.Kind != ast.LitEq {
			return nil, false
		}
	}

	bound := map[string]bool{}
	taken := make([]bool, len(r.Body))
	var order []int
	for len(order) < len(r.Body) {
		pick := -1
		pickScore := -1
		for i, l := range r.Body {
			if taken[i] {
				continue
			}
			free := 0
			boundArgs := 0
			for _, v := range literalVars(l) {
				if !bound[v] {
					free++
				}
			}
			switch l.Kind {
			case ast.LitEq:
				if free > 0 {
					continue // not yet a filter; wait for bindings
				}
				boundArgs = len(r.Body) // filters run first
			case ast.LitAtom:
				if l.Neg {
					if free > 0 {
						continue
					}
					boundArgs = len(r.Body) // bound filter: run it now
					break
				}
				for _, t := range l.Atom.Args {
					if !t.IsVar() || bound[t.Var] {
						boundArgs++
					}
				}
			}
			if pick == -1 || boundArgs > pickScore {
				pick = i
				pickScore = boundArgs
			}
		}
		if pick == -1 {
			// Only unbound filters remain (an unsafe rule the engine
			// will reject anyway): append them in source order.
			for i := range r.Body {
				if !taken[i] {
					order = append(order, i)
				}
			}
			break
		}
		taken[pick] = true
		order = append(order, pick)
		for _, v := range literalVars(r.Body[pick]) {
			bound[v] = true
		}
	}

	same := true
	for i, idx := range order {
		if i != idx {
			same = false
			break
		}
	}
	if same {
		return nil, false
	}
	out := make([]ast.Literal, len(order))
	for i, idx := range order {
		out[i] = r.Body[idx]
	}
	return out, true
}

func literalVars(l ast.Literal) []string {
	var vars []string
	switch l.Kind {
	case ast.LitAtom:
		for _, t := range l.Atom.Args {
			if t.IsVar() {
				vars = append(vars, t.Var)
			}
		}
	case ast.LitEq:
		if l.Left.IsVar() {
			vars = append(vars, l.Left.Var)
		}
		if l.Right.IsVar() {
			vars = append(vars, l.Right.Var)
		}
	}
	return vars
}

// adornments propagates binding patterns from the roots (all IDB
// predicates, all-free, when no roots are declared) through every
// single-head rule of p, magic-sets style. ix indexes p up to body
// order.
func adornments(p *ast.Program, ix *ast.Index, roots []string) []Adornment {
	if len(ix.ArityDiags()) > 0 {
		return nil
	}
	if len(roots) == 0 {
		roots = ix.IDB()
	}
	seen := map[string]bool{}
	var queue []Adornment
	push := func(pred, pattern string) {
		key := pred + "^" + pattern
		if seen[key] {
			return
		}
		seen[key] = true
		queue = append(queue, Adornment{Pred: pred, Pattern: pattern})
	}
	for _, q := range roots {
		if id, ok := ix.ID(q); ok && ix.Preds[id].IDB() {
			push(q, strings.Repeat("f", ix.Preds[id].Arity))
		}
	}

	var all []Adornment
	for len(queue) > 0 {
		ad := queue[0]
		queue = queue[1:]
		all = append(all, ad)
		id, _ := ix.ID(ad.Pred)
		for _, ri := range ix.Preds[id].Derive {
			r := &p.Rules[ri]
			head := r.Head[0].Atom
			if len(r.Head) != 1 || len(head.Args) != len(ad.Pattern) {
				continue
			}
			bound := map[string]bool{}
			for i, t := range head.Args {
				if t.IsVar() && ad.Pattern[i] == 'b' {
					bound[t.Var] = true
				}
			}
			for _, l := range r.Body {
				switch l.Kind {
				case ast.LitAtom:
					if id, _ := ix.ID(l.Atom.Pred); ix.Preds[id].IDB() {
						push(l.Atom.Pred, l.Atom.Adornment(bound))
					}
					if !l.Neg {
						for _, t := range l.Atom.Args {
							if t.IsVar() {
								bound[t.Var] = true
							}
						}
					}
				case ast.LitEq:
					if !l.Neg {
						lv, rv := l.Left, l.Right
						if lv.IsVar() && (!rv.IsVar() || bound[rv.Var]) {
							bound[lv.Var] = true
						}
						if rv.IsVar() && (!lv.IsVar() || bound[lv.Var]) {
							bound[rv.Var] = true
						}
					}
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Pred != all[j].Pred {
			return all[i].Pred < all[j].Pred
		}
		return all[i].Pattern < all[j].Pattern
	})
	return all
}
