// Constant propagation and eq folding: the per-rule simplification
// pass. Everything here is stage-exact for every engine — rewrites
// change neither the set of satisfying valuations of a rule body nor
// the head facts those valuations derive, so the immediate-consequence
// operator is untouched.
package opt

import (
	"hash/maphash"
	"slices"
	"strconv"
	"strings"

	"unchained/internal/ast"
	"unchained/internal/value"
)

// constprop simplifies every rule independently: substitute variables
// bound by positive equality literals, fold ground equalities, and
// drop duplicate body literals. Ground-false literals are *kept* (the
// dead pass removes the whole rule; keeping the witness makes both
// passes idempotent and the diagnostics precise).
func constprop(ix *ast.Index, u *value.Universe, res *Result) *ast.Index {
	return rewriteRules(ix, func(ri int) (ast.Rule, bool) { return simplifyRule(&ix.Prog.Rules[ri], u, res) })
}

// simplifyRule rewrites one rule; the input rule is never mutated.
func simplifyRule(r *ast.Rule, u *value.Universe, res *Result) (ast.Rule, bool) {
	// Only an equality can be substituted through or folded; without
	// one, a repeated literal is the only change there can be.
	if !slices.ContainsFunc(r.Body, func(l ast.Literal) bool { return l.Kind == ast.LitEq }) && !hasRepeat(r.Body) {
		return ast.Rule{}, false
	}

	// Variables quantified by a ∀ anywhere in the rule are scoped to
	// that literal; substituting through them (in either direction)
	// could capture, so they are excluded from substitutions wholesale.
	shadowed := map[string]bool{}
	var collectShadow func(l ast.Literal)
	collectShadow = func(l ast.Literal) {
		if l.Kind == ast.LitForall {
			for _, v := range l.ForallVars() {
				shadowed[v] = true
			}
			for _, b := range l.ForallBody() {
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
			left, right := resolveTerm(l.Left(), subst), resolveTerm(l.Right(), subst)
			if left.IsVar() && !shadowed[left.Var] && !sameTerm(left, right) && !(right.IsVar() && shadowed[right.Var]) {
				subst[left.Var] = right
			} else if right.IsVar() && !shadowed[right.Var] && !sameTerm(left, right) && !left.IsVar() {
				subst[right.Var] = left
			}
		}
	}

	// Rebuild the body: substitute, fold, deduplicate.
	var body []ast.Literal
	seen := newLitSet(len(r.Body))
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
		if seen.seen(body, &nl) {
			deduped++
			continue
		}
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
		parts = append(parts, "substituted "+strconv.Itoa(substituted)+" variable(s) bound by equalities")
	}
	if folded > 0 {
		parts = append(parts, "folded "+strconv.Itoa(folded)+" trivially true literal(s)")
	}
	if deduped > 0 {
		parts = append(parts, "dropped "+strconv.Itoa(deduped)+" duplicate literal(s)")
	}
	res.note("constprop", r.SrcPos, "rule for "+headPred(r)+" simplified: "+strings.Join(parts, "; "))
	return nr, true
}

// hasRepeat reports whether some literal of body repeats an earlier one.
func hasRepeat(body []ast.Literal) bool {
	seen := newLitSet(len(body))
	for i := range body {
		if seen.seen(body[:i], &body[i]) {
			return true
		}
	}
	return false
}

// A litSet finds repeated literals. Bodies have a handful of literals,
// which a scan compares without allocating; only an outsized body
// pays for a set, of literal hashes, that a new literal usually
// misses.
type litSet map[uint64]bool

func newLitSet(n int) litSet {
	if n > 16 {
		return make(litSet, n)
	}
	return nil
}

// seen reports whether l equals one of kept, the literals seen so far.
func (s litSet) seen(kept []ast.Literal, l *ast.Literal) bool {
	if s != nil {
		if h := litHash(l); !s[h] {
			s[h] = true
			return false
		}
	}
	for i := range kept {
		if sameLit(&kept[i], l) {
			return true
		}
	}
	return false
}

// sameLit reports whether two literals are the same: equalities in
// either orientation, ∀-literals by their variables and bodies.
func sameLit(a, b *ast.Literal) bool {
	if a.Kind != b.Kind || a.Neg != b.Neg {
		return false
	}
	switch a.Kind {
	case ast.LitAtom:
		return a.Atom.Pred == b.Atom.Pred && slices.EqualFunc(a.Atom.Args, b.Atom.Args, sameTerm)
	case ast.LitEq:
		return sameTerm(a.Left(), b.Left()) && sameTerm(a.Right(), b.Right()) ||
			sameTerm(a.Left(), b.Right()) && sameTerm(a.Right(), b.Left())
	case ast.LitForall:
		return slices.Equal(a.ForallVars(), b.ForallVars()) &&
			slices.EqualFunc(a.ForallBody(), b.ForallBody(), func(x, y ast.Literal) bool { return sameLit(&x, &y) })
	}
	return true
}

var litSeed = maphash.MakeSeed()

// litHash hashes what sameLit compares: equal literals hash equal.
func litHash(l *ast.Literal) uint64 {
	h := uint64(l.Kind) << 1
	if l.Neg {
		h |= 1
	}
	switch l.Kind {
	case ast.LitAtom:
		h = mix(h, maphash.String(litSeed, l.Atom.Pred))
		for _, t := range l.Atom.Args {
			h = mix(h, termHash(t))
		}
	case ast.LitEq:
		a, b := termHash(l.Left()), termHash(l.Right())
		h = mix(mix(h, min(a, b)), max(a, b))
	case ast.LitForall:
		for _, v := range l.ForallVars() {
			h = mix(h, maphash.String(litSeed, v))
		}
		body := l.ForallBody()
		for i := range body {
			h = mix(h, litHash(&body[i]))
		}
	}
	return h
}

func termHash(t ast.Term) uint64 {
	if t.IsVar() {
		return maphash.String(litSeed, t.Var)
	}
	return uint64(t.Const)
}

func mix(h, x uint64) uint64 { return (h ^ x) * 0x100000001b3 }

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
	case ast.LitAtom, ast.LitEq:
		l.Atom.Args = substArgs(l.Atom.Args, subst)
		return l
	case ast.LitForall:
		inner := subst
		vars, body := l.ForallVars(), l.ForallBody()
		for _, v := range vars {
			if _, ok := inner[v]; ok {
				// Quantified variables are distinct binders: strip
				// them from the substitution for the quantified body.
				inner = cloneSubstWithout(inner, vars)
				break
			}
		}
		nb := make([]ast.Literal, len(body))
		for i, b := range body {
			nb[i] = substLiteral(b, inner)
		}
		l.Quant = &ast.Quant{Vars: vars, Body: nb}
		return l
	default:
		return l
	}
}

// substArgs applies the substitution to an atom's arguments or an
// equality's terms. It copies them only when a term changes: the input
// rule's lists are never written to.
func substArgs(args []ast.Term, subst map[string]ast.Term) []ast.Term {
	var out []ast.Term
	for i, t := range args {
		s := substTerm(t, subst)
		if out == nil {
			if sameTerm(s, t) {
				continue
			}
			out = make([]ast.Term, len(args))
			copy(out, args)
		}
		out[i] = s
	}
	if out == nil {
		return args
	}
	return out
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
	left, right := l.Left(), l.Right()
	switch {
	case !left.IsVar() && !right.IsVar():
		return (left.Const == right.Const) != l.Neg, true
	case left.IsVar() && right.IsVar() && left.Var == right.Var:
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
