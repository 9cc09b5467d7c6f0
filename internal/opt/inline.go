// Predicate inlining: a non-recursive predicate defined by a single
// negation-free rule is expanded into its positive call sites. At the
// fixpoint the callee's extension is exactly the set of head
// instances its one rule derives (assuming no input facts land on it
// — the assumption is recorded), so replacing the call with the
// rule's freshly-renamed body preserves the set of satisfying
// valuations of every caller. What it does *not* preserve is the
// stage at which facts appear: the inlined caller no longer waits for
// the callee's stage. The facade therefore only enables this pass for
// semantics whose result is timing-independent (minimal model,
// stratified, semi-positive, well-founded) and only when no stage
// bound is in force.
//
// The defining rule is kept: the callee stays observable, negated
// references to it stay correct, and a later reachability pass
// removes it when the roots prove nobody looks.
package opt

import (
	"fmt"

	"unchained/internal/ast"
	"unchained/internal/stratify"
	"unchained/internal/value"
)

// Inlining guards: candidates past these sizes are left alone so the
// rewrite never explodes a program.
const (
	inlineMaxBody      = 6  // callee body literals
	inlineMaxCallSites = 16 // positive call sites program-wide
	inlineMaxResult    = 24 // rewritten caller body literals
)

// inlineCand is one inlinable predicate.
type inlineCand struct {
	pred      string
	rule      *ast.Rule
	callSites int
}

// inlineCandidates finds predicates defined by exactly one
// single-head positive rule whose body is all positive atoms and
// equalities, with no head-only variables and no recursion through
// the dependency graph g of ix, and counts their call sites: the
// positive top-level body atoms of matching arity in other rules.
func inlineCandidates(ix *ast.Index, g *stratify.Graph) []inlineCand {
	const never = ast.FeatMultiHead | ast.FeatBottom | ast.FeatBodyNeg | ast.FeatForall |
		ast.FeatHeadOnlyVar | ast.FeatMalformed
	recursive := g.Recursive()
	var cands []inlineCand
	for id := range ix.Preds {
		q := &ix.Preds[id]
		if len(q.Derive) != 1 || len(q.Retract) != 0 || recursive[id] {
			continue
		}
		def := q.Derive[0]
		r := &ix.Prog.Rules[def]
		if ix.Rules[def].Mask&never != 0 || len(r.Body) > inlineMaxBody {
			continue
		}
		sites := 0
		for _, o := range q.Readers {
			occ := ix.Occ(o)
			if occ.Rule != def && !occ.Nested && !occ.Lit.Neg && occ.Lit.Atom.Arity() == r.Head[0].Atom.Arity() {
				sites++
			}
		}
		cands = append(cands, inlineCand{pred: q.Name, rule: r, callSites: sites})
	}
	return cands
}

// inline expands every eligible call site; chains of candidates
// resolve over successive pipeline iterations.
func inline(ix *ast.Index, u *value.Universe, res *Result, assumed map[string]bool) (*ast.Program, bool) {
	cmap := map[string]inlineCand{}
	for _, c := range inlineCandidates(ix, stratify.NewGraph(ix)) {
		if c.callSites == 0 || c.callSites > inlineMaxCallSites {
			continue
		}
		cmap[c.pred] = c
	}
	p := ix.Prog
	if len(cmap) == 0 {
		return p, false
	}

	var out []ast.Rule
	for ri := range p.Rules {
		r := &p.Rules[ri]
		body, inlined := inlineRule(r, cmap, u, res)
		if len(inlined) == 0 {
			continue
		}
		if out == nil {
			out = append(out, p.Rules...)
		}
		for _, q := range inlined {
			assumed[q] = true
		}
		out[ri].Body = body
	}
	if out == nil {
		return p, false
	}
	return &ast.Program{Rules: out}, true
}

// inlineRule expands the candidate call sites of one rule, returning
// the rewritten body and the predicates inlined (empty when nothing
// fired or a guard tripped).
func inlineRule(r *ast.Rule, cmap map[string]inlineCand, u *value.Universe, res *Result) ([]ast.Literal, []string) {
	// The defining rule never calls its own predicate (candidates are
	// non-recursive), so it can be processed like any other rule.
	callee := func(l *ast.Literal) (inlineCand, bool) {
		if l.Kind != ast.LitAtom || l.Neg {
			return inlineCand{}, false
		}
		c, ok := cmap[l.Atom.Pred]
		return c, ok && len(l.Atom.Args) == c.rule.Head[0].Atom.Arity()
	}
	hit := false
	for i := range r.Body {
		if _, ok := callee(&r.Body[i]); ok {
			hit = true
			break
		}
	}
	if !hit {
		return nil, nil
	}

	used := map[string]bool{}
	for _, v := range r.Vars() {
		used[v] = true
	}
	counter := 0
	var body []ast.Literal
	var inlined []string
	var sites []ast.Pos
	for i := range r.Body {
		l := &r.Body[i]
		c, ok := callee(l)
		if !ok {
			body = append(body, *l)
			continue
		}
		body = append(body, instantiate(c.rule, l, used, &counter)...)
		inlined = append(inlined, c.pred)
		sites = append(sites, l.SrcPos)
	}
	if len(body) > inlineMaxResult {
		return nil, nil
	}
	for i, q := range inlined {
		res.note("inline", CodeInlined, sites[i],
			"inlined %s into the rule for %s (assuming %s has no input facts)", q, headPred(r), q)
	}
	return body, inlined
}

// instantiate returns the callee's body with variables freshly
// renamed and its head unified against the call arguments. Repeated
// or constant head arguments surface as equality literals; an
// impossible constant match surfaces as a ground-false equality that
// the next constprop/dead round turns into rule removal.
func instantiate(def *ast.Rule, call *ast.Literal, used map[string]bool, counter *int) []ast.Literal {
	ren := map[string]ast.Term{}
	renamed := map[string]bool{}
	for _, v := range def.Vars() {
		name := ""
		for {
			*counter++
			name = fmt.Sprintf("%s_i%d", v, *counter)
			if !used[name] {
				break
			}
		}
		used[name] = true
		renamed[name] = true
		ren[v] = ast.V(name)
	}

	sigma := map[string]ast.Term{}
	var eqs []ast.Literal
	head := def.Head[0].Atom
	for k, h := range head.Args {
		t := call.Atom.Args[k]
		hr := resolveTerm(substTerm(h, ren), sigma)
		switch {
		case hr.IsVar() && renamed[hr.Var]:
			// An unbound callee variable: bind it to the call term.
			sigma[hr.Var] = t
		case sameTerm(hr, t):
			// Already consistent: no constraint.
		default:
			// A repeated head variable (now resolved to a caller
			// term), a constant head argument against a caller
			// variable (constprop specializes it next round), or a
			// constant mismatch (a ground-false equality that kills
			// the caller next round).
			eqs = append(eqs, eqAt(hr, t, call.SrcPos))
		}
	}

	out := make([]ast.Literal, 0, len(eqs)+len(def.Body))
	out = append(out, eqs...)
	for _, l := range def.Body {
		nl := substLiteral(substLiteral(l, ren), sigma)
		nl.SrcPos = call.SrcPos
		out = append(out, nl)
	}
	return out
}

func eqAt(l, r ast.Term, pos ast.Pos) ast.Literal {
	lit := ast.Eq(l, r)
	lit.SrcPos = pos
	return lit
}
