package opt

import (
	"unchained/internal/ast"
	"unchained/internal/value"
)

// The active domain adom(P, K) is the set of constants occurring in
// the program or the instance. Engines enumerate it to valuate
// variables no positive literal binds (unsafe negation, unbound head
// or equality variables) and to range ∀-quantified variables. For
// such programs the program's constant set is semantically
// observable: removing a rule can remove a constant, shrink the
// domain, and change the model — the differential fuzzer found
// exactly that through a subsumption removal. domainSensitive detects
// the condition so Optimize can discard constant-changing rewrites.
func domainSensitive(p *ast.Program) bool {
	for ri := range p.Rules {
		if ruleDomainSensitive(&p.Rules[ri]) {
			return true
		}
	}
	return false
}

// ruleDomainSensitive reports whether evaluating r can enumerate the
// active domain: it quantifies over it (∀-literals) or it contains a
// variable bound neither by a positive body atom nor by an equality
// chain rooted in a constant or an already-bound variable.
func ruleDomainSensitive(r *ast.Rule) bool {
	for _, l := range r.Body {
		if l.Kind == ast.LitForall {
			return true
		}
	}
	bound := map[string]bool{}
	for _, v := range r.PositiveBodyVars() {
		bound[v] = true
	}
	// Equality-assignment closure: X = c and X = Y (Y bound) bind X,
	// in whichever order the chain resolves.
	for changed := true; changed; {
		changed = false
		for _, l := range r.Body {
			if l.Kind != ast.LitEq || l.Neg {
				continue
			}
			bind := func(a, b ast.Term) {
				if a.IsVar() && !bound[a.Var] && (!b.IsVar() || bound[b.Var]) {
					bound[a.Var] = true
					changed = true
				}
			}
			bind(l.Left(), l.Right())
			bind(l.Right(), l.Left())
		}
	}
	for _, v := range r.BodyVars() {
		if !bound[v] {
			return true
		}
	}
	for _, v := range r.HeadVars() {
		if !bound[v] {
			return true
		}
	}
	return false
}

// sameConstSet reports whether two programs mention the same set of
// constants (and hence contribute identically to the active domain).
func sameConstSet(a, b *ast.Program) bool {
	as, bs := constSet(a), constSet(b)
	if len(as) != len(bs) {
		return false
	}
	for v := range as {
		if !bs[v] {
			return false
		}
	}
	return true
}

func constSet(p *ast.Program) map[value.Value]bool {
	m := map[value.Value]bool{}
	for _, v := range p.Constants() {
		m[v] = true
	}
	return m
}
