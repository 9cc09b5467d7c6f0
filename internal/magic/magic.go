// Package magic implements the magic-sets rewriting for positive
// Datalog — the best-known representative of the optimization
// techniques the paper notes were "developed around Datalog"
// (Section 3.1). Given a program and a query atom with some bound
// (constant) arguments, Rewrite produces a program whose bottom-up
// evaluation only derives facts relevant to the query, simulating
// top-down (goal-directed) evaluation.
//
// The rewriting is the textbook one: predicates are adorned with
// bound/free patterns propagated left to right through rule bodies
// (the sideways-information-passing strategy), each adorned rule is
// guarded by a magic predicate over its bound head arguments, and
// magic rules seed and propagate the demanded bindings.
package magic

import (
	"fmt"

	"unchained/internal/ast"
	"unchained/internal/declarative"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// adornment is a string of 'b'/'f', one per argument position.
type adornment string

// adornedName and magicName build internal predicate names. They use
// '#', which the surface syntax cannot produce, so they never collide
// with user relations.
func adornedName(pred string, ad adornment) string { return pred + "#" + string(ad) }
func magicName(pred string, ad adornment) string   { return "magic#" + pred + "#" + string(ad) }

// boundArgs returns the arguments of a at its bound positions.
func boundArgs(a ast.Atom, ad adornment) []ast.Term {
	var out []ast.Term
	for i, t := range a.Args {
		if ad[i] == 'b' {
			out = append(out, t)
		}
	}
	return out
}

// Rewrite performs the magic-sets transformation of a positive
// Datalog program for the query atom (whose constant arguments are
// the bound positions). It returns the rewritten program and the name
// of the adorned answer relation; evaluating the rewritten program
// bottom-up over in and filtering the answer relation with the query's
// constants yields exactly the query's answers.
//
// This repository allows input facts on intensional predicates, so an
// adorned predicate whose relation has facts in in (nil: none) also
// reads them, through a bridge rule guarded like its other rules. A
// goal on a relation the program has no rules for (an input relation,
// or one whose rules the optimizer removed) is answered by that rule
// alone.
func Rewrite(p *ast.Program, query ast.Atom, in *tuple.Instance) (*ast.Program, string, error) {
	if err := p.Validate(ast.DialectDatalog); err != nil {
		return nil, "", fmt.Errorf("magic: %w", err)
	}
	sch, err := p.Schema()
	if err != nil {
		return nil, "", err
	}
	if n, known := sch[query.Pred]; known && n != query.Arity() {
		return nil, "", fmt.Errorf("magic: query arity %d, relation %s has arity %d", query.Arity(), query.Pred, n)
	}

	// Group rules by head predicate: the intensional ones have some.
	rulesFor := map[string][]ast.Rule{}
	for _, r := range p.Rules {
		h := r.Head[0].Atom
		rulesFor[h.Pred] = append(rulesFor[h.Pred], r)
	}

	queryAd := adornment(query.Adornment(nil))
	out := &ast.Program{}

	// Seed: the magic fact for the query's bound constants.
	seedHead := ast.Atom{Pred: magicName(query.Pred, queryAd), Args: boundArgs(query, queryAd)}
	out.Rules = append(out.Rules, ast.Rule{Head: []ast.Literal{ast.PosLit(seedHead)}})

	type job struct {
		pred string
		ad   adornment
	}
	seen := map[job]bool{}
	work := []job{{query.Pred, queryAd}}
	seen[work[0]] = true

	for len(work) > 0 {
		j := work[0]
		work = work[1:]
		if in != nil {
			if rel := in.Relation(j.pred); rel != nil && !rel.Empty() {
				if rel.Arity() != len(j.ad) {
					return nil, "", fmt.Errorf("magic: relation %s has arity %d in the program or query, %d in the input", j.pred, len(j.ad), rel.Arity())
				}
				out.Rules = append(out.Rules, bridge(j.pred, j.ad))
			}
		}
		for _, r := range rulesFor[j.pred] {
			head := r.Head[0].Atom
			// Bound variables: head variables at bound positions.
			bound := map[string]bool{}
			for i, t := range head.Args {
				if j.ad[i] == 'b' && t.IsVar() {
					bound[t.Var] = true
				}
			}
			// The rewritten rule body starts with the magic guard.
			guard := ast.Atom{Pred: magicName(j.pred, j.ad), Args: boundArgs(head, j.ad)}
			newBody := []ast.Literal{ast.PosLit(guard)}
			// Accumulated body prefix for magic rules (guard included).
			prefix := []ast.Literal{ast.PosLit(guard)}

			for _, l := range r.Body {
				a := l.Atom // positive Datalog: all literals are positive atoms
				if len(rulesFor[a.Pred]) > 0 {
					ad := adornment(a.Adornment(bound))
					child := job{a.Pred, ad}
					if !seen[child] {
						seen[child] = true
						work = append(work, child)
					}
					// Magic rule: demand the child's bound arguments
					// given everything established so far. With an
					// all-free adornment the magic predicate is 0-ary
					// ("some demand exists") and must still be
					// emitted, or the child's guarded rules would
					// never fire.
					mh := ast.Atom{Pred: magicName(a.Pred, ad), Args: boundArgs(a, ad)}
					out.Rules = append(out.Rules, ast.Rule{
						Head: []ast.Literal{ast.PosLit(mh)},
						Body: append([]ast.Literal(nil), prefix...),
					})
					adA := ast.Atom{Pred: adornedName(a.Pred, ad), Args: a.Args}
					newBody = append(newBody, ast.PosLit(adA))
					prefix = append(prefix, ast.PosLit(adA))
				} else {
					newBody = append(newBody, ast.PosLit(a))
					prefix = append(prefix, ast.PosLit(a))
				}
				for _, t := range a.Args {
					if t.IsVar() {
						bound[t.Var] = true
					}
				}
			}
			out.Rules = append(out.Rules, ast.Rule{
				Head: []ast.Literal{ast.PosLit(ast.Atom{Pred: adornedName(j.pred, j.ad), Args: head.Args})},
				Body: newBody,
			})
		}
	}
	return out, adornedName(query.Pred, queryAd), nil
}

// bridge is the rule that hands the demanded input facts of pred to its
// adorned copy: p#ad(X̄) :- magic#p#ad(bound X̄), p(X̄).
func bridge(pred string, ad adornment) ast.Rule {
	args := make([]ast.Term, len(ad))
	for i := range args {
		args[i] = ast.V(fmt.Sprintf("X%d", i))
	}
	all := ast.Atom{Pred: pred, Args: args}
	return ast.Rule{
		Head: []ast.Literal{ast.PosLit(ast.Atom{Pred: adornedName(pred, ad), Args: args})},
		Body: []ast.Literal{
			ast.PosLit(ast.Atom{Pred: magicName(pred, ad), Args: boundArgs(all, ad)}),
			ast.PosLit(all),
		},
	}
}

// Answer evaluates the query against the program with the magic-sets
// rewriting and returns the matching tuples (the instantiations of
// the query atom's free variables are returned as full query-relation
// tuples). It is the goal-directed counterpart of evaluating p fully
// and filtering.
func Answer(p *ast.Program, query ast.Atom, in *tuple.Instance, u *value.Universe, opt *declarative.Options) (*tuple.Relation, error) {
	out, _, err := AnswerStats(p, query, in, u, opt)
	return out, err
}

// AnswerStats is Answer plus the evaluation summary of the rewritten
// program's bottom-up run (nil unless opt carries a stats collector),
// which runs under the engine name "magic" so callers can tell it from
// a direct minimal-model evaluation.
func AnswerStats(p *ast.Program, query ast.Atom, in *tuple.Instance, u *value.Universe, opt *declarative.Options) (*tuple.Relation, *stats.Summary, error) {
	rw, ansName, err := Rewrite(p, query, in)
	if err != nil {
		return nil, nil, err
	}
	res, err := declarative.EvalAs("magic", rw, in, u, opt)
	if err != nil {
		// A context interruption still carries the partial-progress
		// summary; surface it alongside the error.
		if res != nil {
			return nil, res.Stats, err
		}
		return nil, nil, err
	}
	out := tuple.NewRelation(query.Arity())
	rel := res.Out.Relation(ansName)
	if rel == nil {
		return out, res.Stats, nil
	}
	rel.Each(func(t tuple.Tuple) bool {
		for i, a := range query.Args {
			if !a.IsVar() && t[i] != a.Const {
				return true
			}
		}
		out.Insert(t)
		return true
	})
	return out, res.Stats, nil
}

// FullAnswer is the unoptimized baseline: evaluate the whole program
// and filter the query relation.
func FullAnswer(p *ast.Program, query ast.Atom, in *tuple.Instance, u *value.Universe, opt *declarative.Options) (*tuple.Relation, error) {
	res, err := declarative.Eval(p, in, u, opt)
	if err != nil {
		return nil, err
	}
	out := tuple.NewRelation(query.Arity())
	rel := res.Out.Relation(query.Pred)
	if rel == nil {
		return out, nil
	}
	rel.Each(func(t tuple.Tuple) bool {
		for i, a := range query.Args {
			if !a.IsVar() && t[i] != a.Const {
				return true
			}
		}
		out.Insert(t)
		return true
	})
	return out, nil
}
