// Constant propagation and eq folding: the per-rule simplification
// pass. Everything here is stage-exact for every engine — rewrites
// change neither the set of satisfying valuations of a rule body nor
// the head facts those valuations derive, so the immediate-consequence
// operator is untouched.
package opt

import (
	"fmt"
	"strings"

	"unchained/internal/ast"
	"unchained/internal/value"
)

// constprop simplifies every rule independently: substitute variables
// bound by positive equality literals, fold ground equalities, and
// drop duplicate body literals. Ground-false literals are *kept* (the
// dead pass removes the whole rule; keeping the witness makes both
// passes idempotent and the diagnostics precise).
func constprop(p *ast.Program, u *value.Universe, res *Result) (*ast.Program, bool) {
	var out []ast.Rule
	for ri := range p.Rules {
		if nr, ch := simplifyRule(&p.Rules[ri], u, res); ch {
			if out == nil {
				out = append(out, p.Rules...)
			}
			out[ri] = nr
		}
	}
	if out == nil {
		return p, false
	}
	return &ast.Program{Rules: out}, true
}

// simplifyRule rewrites one rule; the input rule is never mutated.
func simplifyRule(r *ast.Rule, u *value.Universe, res *Result) (ast.Rule, bool) {
	// Variables quantified by a ∀ anywhere in the rule are scoped to
	// that literal; substituting through them (in either direction)
	// could capture, so they are excluded from substitutions wholesale.
	shadowed := map[string]bool{}
	var collectShadow func(l ast.Literal)
	collectShadow = func(l ast.Literal) {
		if l.Kind == ast.LitForall {
			for _, v := range l.ForallVars {
				shadowed[v] = true
			}
			for _, b := range l.ForallBody {
				collectShadow(b)
			}
		}
	}
	for _, l := range r.Body {
		collectShadow(l)
	}

	// Rules with head-only variables invent fresh values per distinct
	// body valuation (Datalog¬new); eliminating a determined variable
	// changes the valuation layout that keys invention, so such rules
	// only get folding and duplicate elimination, not substitution.
	subst := map[string]ast.Term{}
	if r.Features()&ast.FeatHeadOnlyVar == 0 {
		for _, l := range r.Body {
			if l.Kind != ast.LitEq || l.Neg {
				continue
			}
			left, right := resolveTerm(l.Left, subst), resolveTerm(l.Right, subst)
			if left.IsVar() && !shadowed[left.Var] && !sameTerm(left, right) && !(right.IsVar() && shadowed[right.Var]) {
				subst[left.Var] = right
			} else if right.IsVar() && !shadowed[right.Var] && !sameTerm(left, right) && !left.IsVar() {
				subst[right.Var] = left
			}
		}
	}

	// Rebuild the body: substitute, fold, deduplicate.
	var body []ast.Literal
	seen := map[string]bool{}
	folded, deduped := 0, 0
	for _, l := range r.Body {
		nl := substLiteral(l, subst)
		if nl.Kind == ast.LitEq {
			if truth, known := eqTruth(nl); known {
				if truth {
					folded++
					continue // trivially true: drop
				}
				// Trivially false: keep as the dead-rule witness.
			}
		}
		k := litKey(nl)
		if seen[k] {
			deduped++
			continue
		}
		seen[k] = true
		body = append(body, nl)
	}

	substituted := 0
	head := r.Head
	if len(subst) > 0 {
		head = make([]ast.Literal, len(r.Head))
		for i, h := range r.Head {
			head[i] = substLiteral(h, subst)
		}
		substituted = len(subst)
	}

	if substituted == 0 && folded == 0 && deduped == 0 {
		return ast.Rule{}, false
	}
	nr := ast.Rule{Head: head, Body: body, SrcPos: r.SrcPos}
	var parts []string
	if substituted > 0 {
		parts = append(parts, fmt.Sprintf("substituted %d variable(s) bound by equalities", substituted))
	}
	if folded > 0 {
		parts = append(parts, fmt.Sprintf("folded %d trivially true literal(s)", folded))
	}
	if deduped > 0 {
		parts = append(parts, fmt.Sprintf("dropped %d duplicate literal(s)", deduped))
	}
	res.note("constprop", CodeConstProp, r.SrcPos, "rule for %s simplified: %s", headPred(r), strings.Join(parts, "; "))
	return nr, true
}

// resolveTerm chases t through the substitution to its representative.
// Insert-time resolution keeps the map acyclic, so the chase
// terminates.
func resolveTerm(t ast.Term, subst map[string]ast.Term) ast.Term {
	for t.IsVar() {
		next, ok := subst[t.Var]
		if !ok {
			return t
		}
		t = next
	}
	return t
}

func sameTerm(a, b ast.Term) bool {
	if a.IsVar() != b.IsVar() {
		return false
	}
	if a.IsVar() {
		return a.Var == b.Var
	}
	return a.Const == b.Const
}

// substLiteral applies the substitution copy-on-write; ∀-quantified
// variables shadow the substitution inside their body.
func substLiteral(l ast.Literal, subst map[string]ast.Term) ast.Literal {
	if len(subst) == 0 {
		return l
	}
	switch l.Kind {
	case ast.LitAtom:
		nl := l
		nl.Atom = substAtom(l.Atom, subst)
		return nl
	case ast.LitEq:
		nl := l
		nl.Left = substTerm(l.Left, subst)
		nl.Right = substTerm(l.Right, subst)
		return nl
	case ast.LitForall:
		inner := subst
		for _, v := range l.ForallVars {
			if _, ok := inner[v]; ok {
				// Quantified variables are distinct binders: strip
				// them from the substitution for the quantified body.
				inner = cloneSubstWithout(inner, l.ForallVars)
				break
			}
		}
		nl := l
		nb := make([]ast.Literal, len(l.ForallBody))
		for i, b := range l.ForallBody {
			nb[i] = substLiteral(b, inner)
		}
		nl.ForallBody = nb
		return nl
	default:
		return l
	}
}

func substAtom(a ast.Atom, subst map[string]ast.Term) ast.Atom {
	na := a
	args := make([]ast.Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = substTerm(t, subst)
	}
	na.Args = args
	return na
}

func substTerm(t ast.Term, subst map[string]ast.Term) ast.Term {
	r := resolveTerm(t, subst)
	if sameTerm(r, t) {
		return t
	}
	// Keep the original source position so diagnostics stay anchored.
	r.SrcPos = t.SrcPos
	return r
}

func cloneSubstWithout(subst map[string]ast.Term, drop []string) map[string]ast.Term {
	out := make(map[string]ast.Term, len(subst))
	for k, v := range subst {
		out[k] = v
	}
	for _, v := range drop {
		delete(out, v)
	}
	return out
}

// eqTruth evaluates a ground or same-variable equality literal.
// known is false when the literal still involves two distinct terms
// at least one of which is a variable.
func eqTruth(l ast.Literal) (truth, known bool) {
	if l.Kind != ast.LitEq {
		return false, false
	}
	switch {
	case !l.Left.IsVar() && !l.Right.IsVar():
		return (l.Left.Const == l.Right.Const) != l.Neg, true
	case l.Left.IsVar() && l.Right.IsVar() && l.Left.Var == l.Right.Var:
		return !l.Neg, true
	}
	return false, false
}

// groundFalseLiteral returns the first body literal that can never
// hold (a folded-false equality), if any.
func groundFalseLiteral(r *ast.Rule) (ast.Literal, bool) {
	for _, l := range r.Body {
		if truth, known := eqTruth(l); known && !truth {
			return l, true
		}
	}
	return ast.Literal{}, false
}

// litKey renders a literal to a canonical string for duplicate
// detection and subsumption matching. Equality literals are
// orientation-normalized.
func litKey(l ast.Literal) string {
	var b strings.Builder
	writeLitKey(&b, l)
	return b.String()
}

func writeLitKey(b *strings.Builder, l ast.Literal) {
	if l.Neg {
		b.WriteByte('!')
	}
	switch l.Kind {
	case ast.LitAtom:
		b.WriteString(l.Atom.Pred)
		b.WriteByte('(')
		for i, t := range l.Atom.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			writeTermKey(b, t)
		}
		b.WriteByte(')')
	case ast.LitEq:
		lk, rk := termKey(l.Left), termKey(l.Right)
		if rk < lk {
			lk, rk = rk, lk
		}
		b.WriteString(lk)
		b.WriteByte('=')
		b.WriteString(rk)
	case ast.LitBottom:
		b.WriteString("bottom")
	case ast.LitForall:
		b.WriteString("forall ")
		b.WriteString(strings.Join(l.ForallVars, ","))
		b.WriteByte('(')
		for i, inner := range l.ForallBody {
			if i > 0 {
				b.WriteByte(';')
			}
			writeLitKey(b, inner)
		}
		b.WriteByte(')')
	}
}

func termKey(t ast.Term) string {
	var b strings.Builder
	writeTermKey(&b, t)
	return b.String()
}

func writeTermKey(b *strings.Builder, t ast.Term) {
	if t.IsVar() {
		b.WriteString("v:")
		b.WriteString(t.Var)
	} else {
		fmt.Fprintf(b, "c:%d", uint32(t.Const))
	}
}
