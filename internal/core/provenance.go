package core

import (
	"fmt"
	"slices"
	"strings"

	"unchained/internal/ast"
	"unchained/internal/eval"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// derivation records a fact's first firing: rule, stage, and the rule
// or delta variant with a copy of its binding, from which Why builds the
// supports. A stage reads the stage before, so explanations are finite.
type derivation struct {
	rule, stage int
	cr          *eval.Rule
	b           eval.Binding
}

// Provenance maps derived facts to their first derivation. Build one
// by running EvalInflationaryProv.
type Provenance struct {
	prog *ast.Program
	u    *value.Universe
	out  *tuple.Instance // a snapshot of the result
	m    map[string]derivation
}

func provKey(pred string, t tuple.Tuple) string { return pred + "|" + t.Key() }

// Explanation is a node of a derivation: the fact, and — unless it is
// an input fact — the rule, stage, and the explanations of its
// supports. Within one Why result a fact has one node, so a support
// that occurs twice shares it: the result is a DAG, not a tree.
type Explanation struct {
	Pred     string
	Tuple    tuple.Tuple
	Input    bool
	Rule     int
	Stage    int
	Children []*Explanation
}

// Why returns the derivation of the fact, or ok=false when the fact is
// not in the result. A fact of the result that no rule derived is an
// input fact.
func (p *Provenance) Why(pred string, t tuple.Tuple) (*Explanation, bool) {
	return p.why(pred, t, map[string]*Explanation{})
}

// why is Why over seen, the nodes the call has built so far, by fact.
// Supports come from earlier stages, so a node is complete before any
// support can reach it again.
func (p *Provenance) why(pred string, t tuple.Tuple, seen map[string]*Explanation) (*Explanation, bool) {
	if !p.out.Has(pred, t) {
		return nil, false
	}
	key := provKey(pred, t)
	if node := seen[key]; node != nil {
		return node, true
	}
	node := &Explanation{Pred: pred, Tuple: t.Clone()}
	seen[key] = node
	d, ok := p.m[key]
	if !ok {
		node.Input = true
		return node, true
	}
	node.Rule, node.Stage = d.rule, d.stage
	for _, s := range d.cr.BodySupports(d.b) {
		child, ok := p.why(s.Pred, s.Tuple, seen)
		if !ok {
			// A support must be in the result; losing it would be an
			// engine bug, surface it loudly.
			child = &Explanation{Pred: s.Pred, Tuple: s.Tuple.Clone()}
		}
		node.Children = append(node.Children, child)
	}
	return node, true
}

// Render pretty-prints a derivation as a tree that expands each derived
// fact once: where it occurs again it is one line marked [shown above].
//
//	T(a,c)  [stage 2, rule 2: T(X,Y) :- G(X,Z), T(Z,Y).]
//	├─ G(a,b)  [input]
//	└─ T(b,c)  [stage 1, rule 1: T(X,Y) :- G(X,Y).]
//	   ├─ G(b,c)  [input]
func (p *Provenance) Render(e *Explanation) string {
	var sb strings.Builder
	shown := map[*Explanation]bool{}
	var rec func(n *Explanation, prefix string, last bool, root bool)
	rec = func(n *Explanation, prefix string, last bool, root bool) {
		branch, cont := "", ""
		if !root {
			if last {
				branch, cont = "└─ ", "   "
			} else {
				branch, cont = "├─ ", "│  "
			}
		}
		sb.WriteString(prefix + branch + n.Pred + n.Tuple.String(p.u))
		switch {
		case n.Input:
			sb.WriteString("  [input]")
		case shown[n]:
			sb.WriteString("  [shown above]\n")
			return
		case n.Rule >= 0 && n.Rule < len(p.prog.Rules):
			fmt.Fprintf(&sb, "  [stage %d, rule %d: %s]", n.Stage, n.Rule+1, p.prog.Rules[n.Rule].String(p.u))
		}
		shown[n] = true
		sb.WriteByte('\n')
		for i, c := range n.Children {
			rec(c, prefix+cont, i == len(n.Children)-1, false)
		}
	}
	rec(e, "", true, true)
	return sb.String()
}

// EvalInflationaryProv is EvalInflationary with provenance tracking:
// alongside the fixpoint it returns a Provenance answering Why
// queries for every derived fact. It runs the same delta-driven stages
// on the same kernel, which shows it every fact a stage adds with the
// firing that first staged it; tracking costs one key and one binding
// copy per derived fact. Why answers for the facts of the result only:
// a run the context stops explains none of the stage it stopped.
func EvalInflationaryProv(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, *Provenance, error) {
	prov := &Provenance{prog: p, u: u, m: map[string]derivation{}}
	res, err := inflationary(p, in, u, opt, func(round, ri int, cr *eval.Rule, b eval.Binding, f eval.Fact) {
		prov.m[provKey(f.Pred, f.Tuple)] = derivation{ri, round, cr, slices.Clone(b)}
	})
	if res == nil {
		return nil, nil, err
	}
	prov.out = res.Out.Snapshot()
	return res, prov, err
}
