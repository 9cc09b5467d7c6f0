package core

import (
	"fmt"
	"strings"

	"unchained/internal/ast"
	"unchained/internal/engine"
	"unchained/internal/eval"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Derivation records how a fact was first inferred during an
// inflationary evaluation: which rule fired, at which stage, and the
// positive body facts the firing used. Because stage s consequences
// are computed against the stage s−1 instance, support chains always
// point strictly backwards and explanations are finite trees.
type Derivation struct {
	Rule     int // index into the program's rules
	Stage    int // 1-based stage at which the fact was inferred
	Supports []eval.Fact
}

// Provenance maps derived facts to their first derivation. Build one
// by running EvalInflationaryProv.
type Provenance struct {
	prog  *ast.Program
	u     *value.Universe
	input *tuple.Instance
	m     map[string]Derivation
}

func provKey(pred string, t tuple.Tuple) string { return pred + "|" + t.Key() }

// Explanation is a derivation tree: the fact, and — unless it is an
// input fact — the rule, stage, and the explanations of its supports.
type Explanation struct {
	Pred     string
	Tuple    tuple.Tuple
	Input    bool
	Rule     int
	Stage    int
	Children []*Explanation
}

// Why returns the derivation tree of the fact, or ok=false when the
// fact was neither derived nor part of the input.
func (p *Provenance) Why(pred string, t tuple.Tuple) (*Explanation, bool) {
	if d, ok := p.m[provKey(pred, t)]; ok {
		node := &Explanation{Pred: pred, Tuple: t.Clone(), Rule: d.Rule, Stage: d.Stage}
		for _, s := range d.Supports {
			child, ok := p.Why(s.Pred, s.Tuple)
			if !ok {
				// A support must be derivable or input; losing it
				// would be an engine bug, surface it loudly.
				child = &Explanation{Pred: s.Pred, Tuple: s.Tuple.Clone()}
			}
			node.Children = append(node.Children, child)
		}
		return node, true
	}
	if p.input.Has(pred, t) {
		return &Explanation{Pred: pred, Tuple: t.Clone(), Input: true}, true
	}
	return nil, false
}

// Render pretty-prints a derivation tree:
//
//	T(a,c)  [stage 2, rule 2: T(X,Y) :- G(X,Z), T(Z,Y).]
//	├─ G(a,b)  [input]
//	└─ T(b,c)  [stage 1, rule 1: T(X,Y) :- G(X,Y).]
//	   ├─ G(b,c)  [input]
func (p *Provenance) Render(e *Explanation) string {
	var sb strings.Builder
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
		if n.Input {
			sb.WriteString("  [input]")
		} else if n.Rule >= 0 && n.Rule < len(p.prog.Rules) {
			fmt.Fprintf(&sb, "  [stage %d, rule %d: %s]", n.Stage, n.Rule+1, p.prog.Rules[n.Rule].String(p.u))
		}
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
// queries for every derived fact. Tracking costs one support-list
// materialization per firing.
//
// It keeps a stage loop of its own, firing every rule against the whole
// instance at every stage: a fact's recorded derivation is the first in
// rule order (and, within a rule, in the rule's enumeration order) at
// the stage the fact enters, and delta variants enumerate in another
// order, so they would record other supports for the same fixpoint.
func EvalInflationaryProv(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, *Provenance, error) {
	rules, col, out, err := begin("inflationary", ast.DialectDatalogNeg, p, in, u, opt)
	if err != nil {
		return nil, nil, err
	}
	prov := &Provenance{prog: p, u: u, input: in.Clone(), m: map[string]Derivation{}}
	adom := eval.DomainFor(rules, p, u, in)
	// The stage's new facts, staged with the derivation that first
	// produced each: out is not written until the stage is over.
	st := eval.NewStaging(out)
	stages, err := opt.Loop(col, opt.StageLimit(1<<30), stageLimitErr, func(stage int) (engine.Outcome, error) {
		ctx := opt.EvalCtx(col, out, adom)
		for ri, cr := range rules {
			// A firing's supports are materialized before its head facts
			// are emitted.
			var supports []eval.Fact
			cr.Fire(ctx, ri, func(b eval.Binding) []eval.Fact {
				supports = cr.BodySupports(b)
				return cr.HeadFacts(b, nil)
			}, func(f eval.Fact) bool {
				if !st.Emit(f) {
					return false
				}
				prov.m[provKey(f.Pred, f.Tuple)] = Derivation{Rule: ri, Stage: stage, Supports: supports}
				return true
			})
		}
		if n := st.Fold(); n > 0 {
			return engine.Outcome{Delta: n, State: out}, nil
		}
		return engine.Outcome{Status: engine.Confirm}, nil
	})
	res, err := engine.Finish(out, stages, col, err)
	if res == nil {
		return nil, nil, err
	}
	return res, prov, err
}
