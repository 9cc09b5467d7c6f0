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
	"slices"
	"strconv"

	"unchained/internal/ast"
	"unchained/internal/stratify"
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
	id        int32 // the predicate's index id
	rule      *ast.Rule
	callSites int

	// Set by inline for the candidates it expands.
	vars  []string // rule's variables, a view of the pass's inliner.cvars
	nargs int      // arguments of rule's body atoms
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
		cands = append(cands, inlineCand{pred: q.Name, id: int32(id), rule: r, callSites: sites})
	}
	return cands
}

// inline expands every eligible call site; chains of candidates
// resolve over successive pipeline iterations.
func inline(ix *ast.Index, res *Result, assumed map[string]bool) *ast.Index {
	cands := inlineCandidates(ix, stratify.NewGraph(ix))
	var in inliner
	for i := range cands {
		c := &cands[i]
		if c.callSites == 0 || c.callSites > inlineMaxCallSites {
			continue
		}
		if in.byPred == nil {
			in.byPred = make([]*inlineCand, len(ix.Preds))
		}
		n := len(in.cvars)
		in.cvars = c.rule.AppendVars(in.cvars)
		c.vars = in.cvars[n:len(in.cvars):len(in.cvars)]
		for _, l := range c.rule.Body {
			c.nargs += len(l.Atom.Args)
		}
		in.byPred[c.id] = c
	}
	if in.byPred == nil {
		return ix
	}
	return rewriteRules(ix, func(ri int) (ast.Rule, bool) {
		body, ok := in.rule(ix, ri, res, assumed)
		r := ix.Prog.Rules[ri]
		r.Body = body
		return r, ok
	})
}

// An inliner expands call sites, with scratch reused across them.
type inliner struct {
	byPred  []*inlineCand // by predicate id: the candidate, nil for the rest
	cvars   []string      // every candidate's variables, one after another
	used    []string      // the variables of the rule at hand
	calls   []*inlineCand // per body literal of the rule at hand: the candidate it calls
	body    []ast.Literal // the rule's new body, being built
	counter int           // the rule's last fresh-name counter value
	vars    []binding     // per variable of the candidate at hand
	eqs     []ast.Term    // the call's head equalities, two terms each
	name    []byte        // a fresh name being tried
}

// A binding is what an instance puts for a candidate variable.
type binding struct {
	fresh int      // the counter value of its fresh name
	term  ast.Term // the fresh variable or, when bound, a call argument
	bound bool
}

// callee returns the candidate a body occurrence calls, if any.
func (in *inliner) callee(o *ast.Occ) *inlineCand {
	if c := in.byPred[o.Pred]; c != nil && !o.Nested && !o.Lit.Neg && o.Lit.Atom.Arity() == c.rule.Head[0].Atom.Arity() {
		return c
	}
	return nil
}

// rule expands the candidate call sites of rule ri, noting each
// expansion and the predicates it assumes empty, and returns the new
// body; ok is false when nothing fired or the result would be too
// long.
func (in *inliner) rule(ix *ast.Index, ri int, res *Result, assumed map[string]bool) ([]ast.Literal, bool) {
	// The defining rule never calls its own predicate (candidates are
	// non-recursive), so it can be processed like any other rule.
	occs := ix.Body(ri)
	if !slices.ContainsFunc(occs, func(o ast.Occ) bool { return in.callee(&o) != nil }) {
		return nil, false
	}
	r := &ix.Prog.Rules[ri]
	in.calls, in.body = in.calls[:0], in.body[:0]
	in.used = r.AppendVars(in.used[:0])
	in.counter = 0
	for i := range r.Body {
		var c *inlineCand
		if r.Body[i].Kind == ast.LitAtom {
			// The top-level atoms are the occurrences not under a ∀.
			for occs[0].Nested {
				occs = occs[1:]
			}
			c, occs = in.callee(&occs[0]), occs[1:]
		}
		in.calls = append(in.calls, c)
		if c != nil {
			in.body = in.instantiate(c, &r.Body[i], in.used, in.body)
		} else {
			in.body = append(in.body, r.Body[i])
		}
	}
	if len(in.body) > inlineMaxResult {
		return nil, false
	}
	for i, c := range in.calls {
		if c != nil {
			assumed[c.pred] = true
			res.note("inline", r.Body[i].SrcPos,
				"inlined "+c.pred+" into the rule for "+headPred(r)+" (assuming "+c.pred+" has no input facts)")
		}
	}
	return slices.Clone(in.body), true
}

// instantiate appends to out the callee's body with variables freshly
// renamed and its head unified against the call arguments. A fresh
// name is the variable's name, "_i" and the rule's next counter value
// that does not make a name the caller already uses. Repeated or
// constant head arguments surface as equality literals; an impossible
// constant match surfaces as a ground-false equality that the next
// constprop/dead round turns into rule removal.
func (in *inliner) instantiate(c *inlineCand, call *ast.Literal, used []string, out []ast.Literal) []ast.Literal {
	in.vars, in.eqs = in.vars[:0], in.eqs[:0]
	for _, v := range c.vars {
		for {
			in.counter++
			if !in.taken(used, v, in.counter) {
				break
			}
		}
		in.vars = append(in.vars, binding{fresh: in.counter})
	}

	for k, h := range c.rule.Head[0].Atom.Args {
		t := call.Atom.Args[k]
		if h.IsVar() {
			b := &in.vars[slices.Index(c.vars, h.Var)]
			if !b.bound {
				// An unbound callee variable: bind it to the call term.
				b.term, b.bound = t, true
				continue
			}
			h = b.term
		}
		if !sameTerm(h, t) {
			// A repeated head variable (now resolved to a caller
			// term), a constant head argument against a caller
			// variable (constprop specializes it next round), or a
			// constant mismatch (a ground-false equality that kills
			// the caller next round).
			in.eqs = append(in.eqs, h, t)
		}
	}
	// Only the variables the head left unbound need their names.
	for k, v := range c.vars {
		if b := &in.vars[k]; !b.bound {
			in.taken(nil, v, b.fresh)
			b.term = ast.V(string(in.name))
		}
	}

	// The head equalities' terms and the body's share one array.
	args := make([]ast.Term, 0, len(in.eqs)+c.nargs)
	for k := 0; k < len(in.eqs); k += 2 {
		args = append(args, in.eqs[k], in.eqs[k+1])
		eq := ast.Literal{Kind: ast.LitEq, Atom: ast.Atom{Args: args[len(args)-2 : len(args) : len(args)]}, SrcPos: call.SrcPos}
		out = append(out, eq)
	}
	for _, l := range c.rule.Body {
		l.SrcPos = call.SrcPos
		switch l.Kind {
		case ast.LitAtom, ast.LitEq:
			n := len(args)
			for _, t := range l.Atom.Args {
				args = append(args, in.term(c, t))
			}
			l.Atom.Args = args[n:len(args):len(args)]
		}
		out = append(out, l)
	}
	return out
}

// taken spells v's fresh name for counter value n into in.name and
// reports whether used holds it.
func (in *inliner) taken(used []string, v string, n int) bool {
	in.name = strconv.AppendInt(append(append(in.name[:0], v...), "_i"...), int64(n), 10)
	for _, w := range used {
		if w == string(in.name) {
			return true
		}
	}
	return false
}

// term is a callee term in the instance, at the callee term's position.
func (in *inliner) term(c *inlineCand, t ast.Term) ast.Term {
	if !t.IsVar() {
		return t
	}
	r := in.vars[slices.Index(c.vars, t.Var)].term
	r.SrcPos = t.SrcPos
	return r
}
