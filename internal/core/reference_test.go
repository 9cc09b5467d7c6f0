package core

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/engine"
	"unchained/internal/eval"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/queries"
	"unchained/internal/tuple"
	"unchained/internal/value"
	"unchained/programs"
)

// referenceStages is Section 4.1 as the paper writes it, kept as the
// oracle for the delta-driven engine: at every stage every rule fires
// against the whole instance with every applicable instantiation, and
// the facts the instance lacks are added together. It returns the facts
// each stage added, the confirming pass that adds none excluded.
func referenceStages(t testing.TB, rules []*eval.Rule, in *tuple.Instance, adom []value.Value) []*tuple.Instance {
	t.Helper()
	out := in.Clone()
	var stages []*tuple.Instance
	for {
		ctx := &eval.Ctx{In: out, Adom: adom, DeltaLit: -1}
		st := eval.NewStaging(out)
		for _, cr := range rules {
			cr.Fire(ctx, -1, nil, st.Emit)
		}
		if st.Fold() == 0 {
			return stages
		}
		stages = append(stages, st.Delta)
	}
}

// sameStages compares the reference's stages on (p, in) with what the
// engine shows Options.Trace: the same stage count
// and the same set of new facts at every stage. validate false runs the
// kernel as EvalInflationary configures it without the dialect check,
// for a literal Datalog¬ does not admit; validate true also runs the
// provenance run, holds its stages to the reference's too and checks
// every derivation it records (checkDerivations).
func sameStages(t testing.TB, name string, p *ast.Program, in *tuple.Instance, u *value.Universe, validate bool) {
	t.Helper()
	rules, err := eval.CompileProgram(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	adom := eval.ActiveDomain(u, p.Constants(), in)
	want := referenceStages(t, rules, in, adom)
	runs := []string{"engine"}
	if validate {
		runs = append(runs, "provenance")
	}
	for _, run := range runs {
		var got []*tuple.Instance
		opt := &Options{Trace: func(stage int, delta *tuple.Instance) {
			if stage != len(got)+1 {
				t.Fatalf("%s: stage %d shown after %d stages", name, stage, len(got))
			}
			got = append(got, delta.Clone())
		}}
		var stages int
		var res *Result
		var prov *Provenance
		switch {
		case !validate:
			k := engine.SemiNaive{Rules: rules, Forward: true}
			stages, err = k.Run(opt, in.Clone(), adom, nil, nil)
		case run == "engine":
			res, err = EvalInflationary(p, in, u, opt)
		default:
			res, prov, err = EvalInflationaryProv(p, in, u, opt)
		}
		if err != nil {
			t.Fatalf("%s, %s: %v", name, run, err)
		}
		if res != nil {
			stages = res.Stages
		}
		if stages != len(want) || len(got) != len(want) {
			t.Fatalf("%s, %s: %d stages (%d shown), the reference takes %d", name, run, stages, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s, %s: stage %d adds\n%sthe reference adds\n%s", name, run, i+1, got[i].String(u), want[i].String(u))
			}
		}
		if prov != nil {
			checkDerivations(t, name, p, in, u, prov, want, adom)
		}
	}
}

// checkDerivations holds every fact the reference stages want add to
// the derivation prov explains it by: its stage is the one that adds
// the fact, each support is input (and marked so) or was added at an
// earlier stage, and the rule, its positive body atoms matched to the
// supports in body order, yields the fact with every negated atom
// absent from the instance the stage read (derives).
func checkDerivations(t testing.TB, name string, p *ast.Program, in *tuple.Instance, u *value.Universe, prov *Provenance, want []*tuple.Instance, adom []value.Value) {
	t.Helper()
	before := in.Clone() // the instance stage i+1 reads
	for i, delta := range want {
		delta.EachRel(func(pred string, r *tuple.Relation) {
			r.Each(func(f tuple.Tuple) bool {
				fact := pred + f.String(u)
				e, ok := prov.Why(pred, f)
				if !ok || e.Input || e.Stage != i+1 {
					t.Fatalf("%s: %s, which stage %d adds, is explained as %+v", name, fact, i+1, e)
				}
				for _, c := range e.Children {
					if c.Input != in.Has(c.Pred, c.Tuple) || !before.Has(c.Pred, c.Tuple) {
						t.Fatalf("%s: %s at stage %d has the support %s%s (input %v), which no earlier stage holds",
							name, fact, i+1, c.Pred, c.Tuple.String(u), c.Input)
					}
				}
				if e.Rule < 0 || e.Rule >= len(p.Rules) || !derives(p.Rules[e.Rule], e, before, adom) {
					t.Fatalf("%s: rule %d does not yield %s at stage %d from its supports", name, e.Rule+1, fact, i+1)
				}
				return true
			})
		})
		eval.Fold(before, delta)
	}
}

// derives reports whether the Datalog¬ rule r yields e's fact from e's
// supports: its positive body atoms match the supports in body order
// and a head atom matches the fact under one valuation, which some
// values of adom for the variables only negated atoms name extend to
// one under which every negated atom is absent from before.
func derives(r ast.Rule, e *Explanation, before *tuple.Instance, adom []value.Value) bool {
	b := map[string]value.Value{}
	match := func(a ast.Atom, pred string, tp tuple.Tuple) bool {
		if a.Pred != pred || len(a.Args) != len(tp) {
			return false
		}
		for j, arg := range a.Args {
			v, bound := b[arg.Var]
			switch {
			case !arg.IsVar():
				v = arg.Const
			case !bound:
				b[arg.Var] = tp[j]
				continue
			}
			if v != tp[j] {
				return false
			}
		}
		return true
	}
	var neg []ast.Atom
	k := 0
	for _, l := range r.Body {
		switch {
		case l.Kind != ast.LitAtom:
			return false
		case l.Neg:
			neg = append(neg, l.Atom)
		case k == len(e.Children) || !match(l.Atom, e.Children[k].Pred, e.Children[k].Tuple):
			return false
		default:
			k++
		}
	}
	if k != len(e.Children) {
		return false
	}
	body := maps.Clone(b)
	for _, h := range r.Head {
		b = maps.Clone(body)
		if h.Kind == ast.LitAtom && !h.Neg && match(h.Atom, e.Pred, e.Tuple) && absent(neg, b, before, adom) {
			return true
		}
	}
	return false
}

// absent reports whether b extends, over adom, to a valuation under
// which no atom of neg is in before; it leaves b so extended.
func absent(neg []ast.Atom, b map[string]value.Value, before *tuple.Instance, adom []value.Value) bool {
	for _, a := range neg {
		tp := make(tuple.Tuple, len(a.Args))
		for j, arg := range a.Args {
			v, bound := b[arg.Var]
			switch {
			case !arg.IsVar():
				v = arg.Const
			case !bound:
				for _, x := range adom {
					if b[arg.Var] = x; absent(neg, b, before, adom) {
						return true
					}
				}
				delete(b, arg.Var)
				return false
			}
			tp[j] = v
		}
		if before.Has(a.Pred, tp) {
			return false
		}
	}
	return true
}

// TestInflationaryStagesMatchReference: every shipped program that is
// Datalog¬, over the input shapes of gen.Inputs.
func TestInflationaryStagesMatchReference(t *testing.T) {
	ran := 0
	for _, c := range programs.Cases {
		u := value.New()
		p, err := parser.Parse(programs.Source(c.Program), u)
		if err != nil || p.Validate(ast.DialectDatalogNeg) != nil {
			continue
		}
		gen.Inputs(u, p, func(shape string, in *tuple.Instance) {
			sameStages(t, c.Program+" "+shape, p, in, u, true)
			ran++
		})
	}
	if ran < 80 {
		t.Fatalf("only %d runs: the corpus has lost its Datalog¬ programs", ran)
	}
}

// TestInflationaryStagesHandWritten: the cases the soundness argument
// leans on, one row each.
func TestInflationaryStagesHandWritten(t *testing.T) {
	const tc = "T(X,Y) :- G(X,Y).\nT(X,Y) :- G(X,Z), T(Z,Y).\n"
	for _, c := range []struct {
		name, prog, facts string
		validate          bool
	}{
		{"only negative literals, over a relation that grows: fires at stage 1 and never again",
			"Q(Y) :- E(X,Y).\nQ(Y) :- Q(X), E(X,Y).\nP(X) :- !Q(X).", "E(a,b). E(b,c). E(c,d). Q(c).", true},
		{"head variables ranging over the active domain",
			tc + "Seen(X) :- T(X,Y).\nCT(X,Y) :- !T(X,Y), Seen(Z).", "G(a,b). G(b,c). G(c,a). G(c,d).", true},
		{"a variable bound by an equality (no Datalog¬ literal: the kernel, below the dialect check)",
			tc + "P(X,W) :- T(X,Z), W = Z, !B(W).\nB(Y) :- T(X,Y), T(Y,X).", "G(a,b). G(b,c). G(c,b). G(c,d).", false},
		{"the same growing relation three times in one body (Example 4.3)",
			tc + "OldT(X,Y) :- T(X,Y).\nOldTExceptFinal(X,Y) :- T(X,Y), T(Xp,Zp), T(Zp,Yp), !T(Xp,Yp).\nCT(X,Y) :- !T(X,Y), OldT(Xp,Yp), !OldTExceptFinal(Xp,Yp).",
			"G(a,b). G(b,c). G(c,d). G(d,b).", true},
		{"constant-only heads, one of arity zero",
			tc + "Cyclic :- T(X,X).\nFlag(a) :- T(X,Y), !T(Y,X), !Cyclic.\nLate(b) :- Cyclic, !Flag(a).", "G(a,b). G(b,c). G(c,a).", true},
		{"no rule at all", "", "G(a,b).", true},
	} {
		u := value.New()
		p, err := parser.Parse(c.prog, u)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameStages(t, c.name, p, parser.MustParseFacts(c.facts, u), u, c.validate)
	}
}

// stageNonInflationary is the Datalog¬¬ stage as the engine applied it
// before it worked in place, kept verbatim as the oracle: one parallel
// firing of all rules on the instance of ctx, applied to a clone of it.
// It returns the successor instance along with the number of changes
// (retractions + insertions) actually applied to it, or ErrInconsistent
// (wrapped, naming the fact) when the policy is Inconsistent and a
// conflict arises.
func stageNonInflationary(rules []*eval.Rule, ctx *eval.Ctx, policy ConflictPolicy, u *value.Universe) (*tuple.Instance, int, error) {
	cur, col := ctx.In, ctx.Stats
	pos := tuple.NewInstance()
	neg := tuple.NewInstance()
	stage := func(f eval.Fact) bool {
		if f.Neg {
			return neg.Insert(f.Pred, f.Tuple)
		}
		return pos.Insert(f.Pred, f.Tuple)
	}
	for ri, cr := range rules {
		cr.Fire(ctx, ri, nil, stage)
	}
	next := cur.Clone()
	applied := 0
	var conflictErr error
	// Deletions first, then insertions, applying the policy to the
	// overlap.
	for _, name := range neg.Names() {
		rel := neg.Relation(name)
		rel.Each(func(t tuple.Tuple) bool {
			inPos := pos.Has(name, t)
			if inPos {
				col.Conflict()
			}
			switch policy {
			case PreferPositive:
				if !inPos && next.Delete(name, t) {
					applied++
					col.Retracted(1)
				}
			case PreferNegative:
				if next.Delete(name, t) {
					applied++
					col.Retracted(1)
				}
			case NoOp:
				if !inPos && next.Delete(name, t) {
					applied++
					col.Retracted(1)
				}
				// Conflicting fact: leave as in cur (no-op), so
				// suppress the later insertion by removing it from
				// pos unless it was already in cur.
				if inPos && !cur.Has(name, t) {
					pos.Delete(name, t)
				}
			case Inconsistent:
				if inPos {
					conflictErr = fmt.Errorf("%w: %s%s", ErrInconsistent, name, t.String(u))
					return false
				}
				if next.Delete(name, t) {
					applied++
					col.Retracted(1)
				}
			}
			return true
		})
		if conflictErr != nil {
			return nil, 0, conflictErr
		}
	}
	for _, name := range pos.Names() {
		rel := pos.Relation(name)
		rel.Each(func(t tuple.Tuple) bool {
			if policy == PreferNegative && neg.Has(name, t) {
				return true
			}
			if next.Insert(name, t) {
				applied++
			}
			return true
		})
	}
	return next, applied, nil
}

// referenceNonInflationary is EvalNonInflationary as it ran on
// stageNonInflationary: a fresh matcher context and a fresh successor
// instance per stage, "unchanged" decided by comparing the two.
func referenceNonInflationary(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	rules, col, cur, err := begin("noninflationary", ast.DialectDatalogNegNeg, p, in, u, opt)
	if err != nil {
		return nil, err
	}
	adom := eval.ActiveDomain(u, p.Constants(), in)
	cycle := engine.NewCycle(cur)
	stages, err := opt.Loop(col, opt.StageLimit(1<<20), stageLimitErr, func(int) (engine.Outcome, error) {
		next, applied, err := stageNonInflationary(rules, opt.EvalCtx(col, cur, adom), opt.Conflict(), u)
		if err != nil {
			return engine.Outcome{}, err
		}
		if next.Equal(cur) {
			return engine.Outcome{Status: engine.Confirm}, nil
		}
		cur = next
		out := engine.Outcome{Delta: applied, State: next}
		if n := cycle.Visit(cur); n > 0 {
			out.Err = fmt.Errorf("%w (cycle of length %d)", ErrNonTerminating, n)
		}
		return out, nil
	})
	return engine.Finish(cur, stages, col, err)
}

// errOverBudget stops a referenceInvent run that stages more facts than
// its budget.
var errOverBudget = errors.New("core: the reference staged more facts than its budget")

// referenceInvent is EvalInvent as it ran before it was delta-driven,
// kept as its oracle: every stage fires every rule, with the Skolem
// heads, against the whole instance, over the active domain as the
// stage found it. A run that stages more than budget facts stops inside
// the stage with errOverBudget, through the matcher's Done, so the run
// reads no context of opt.
func referenceInvent(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options, budget int) (*Result, error) {
	rules, col, out, err := begin("invent", ast.DialectDatalogNew, p, in, u, opt)
	if err != nil {
		return nil, err
	}
	heads := skolemHeads(rules, u, col)
	adomc := eval.NewAdomCache(u, p.Constants(), eval.ReadsDomain(rules))
	stop := make(chan struct{})
	ctx := opt.EvalCtx(col, out, nil)
	ctx.Buf, ctx.Done = new(eval.Scratch), stop
	st := eval.NewStaging(out)
	staged := 0
	emit := func(f eval.Fact) bool {
		ok := st.Emit(f)
		if ok {
			if staged++; staged == budget+1 {
				close(stop)
			}
		}
		return ok
	}
	stages, err := opt.Loop(col, opt.StageLimit(4096), stageLimitErr, func(int) (engine.Outcome, error) {
		ctx.Adom = adomc.Domain(out)
		ctx.NewStage()
		for ri, cr := range rules {
			cr.Fire(ctx, ri, heads[ri], emit)
		}
		if staged > budget {
			st.Discard()
			return engine.Outcome{}, errOverBudget
		}
		if n := st.Fold(); n > 0 {
			return engine.Outcome{Delta: n, State: out}, nil
		}
		return engine.Outcome{Status: engine.Confirm}, nil
	})
	return engine.Finish(out, stages, col, err)
}

// ReferenceInvent and ErrOverBudget let the package's external tests,
// which may import internal/tm, run the reference.
var (
	ReferenceInvent = referenceInvent
	ErrOverBudget   = errOverBudget
)

// nonInflationaryRun is what a Datalog¬¬ run shows: every stage's state
// (snapshotted from Options.Trace), the result and the error.
type nonInflationaryRun struct {
	states []*tuple.Instance
	res    *Result
	err    error
}

func runNonInflationary(f engine.Func, p *ast.Program, in *tuple.Instance, u *value.Universe, policy ConflictPolicy, limit int) nonInflationaryRun {
	var run nonInflationaryRun
	opt := &Options{Policy: policy, MaxStages: limit, Trace: func(_ int, state *tuple.Instance) {
		run.states = append(run.states, state.Snapshot())
	}}
	run.res, run.err = f(p, in, u, opt)
	return run
}

// sameNonInflationary runs (p, in) under every conflict policy through
// the engine and referenceNonInflationary and compares what they show:
// every stage's state, the final instance and stage count, and the error
// (its message names the cycle length or the conflicting fact). limit
// bounds the stages of both (0: the engine default).
func sameNonInflationary(t testing.TB, name string, p *ast.Program, in *tuple.Instance, u *value.Universe, limit int) {
	t.Helper()
	for _, policy := range []ConflictPolicy{PreferPositive, PreferNegative, NoOp, Inconsistent} {
		want := runNonInflationary(referenceNonInflationary, p, in, u, policy, limit)
		got := runNonInflationary(EvalNonInflationary, p, in, u, policy, limit)
		if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
			t.Fatalf("%s, %v: error %v, the reference's %v", name, policy, got.err, want.err)
		}
		if len(got.states) != len(want.states) {
			t.Fatalf("%s, %v: %d stages shown, the reference shows %d", name, policy, len(got.states), len(want.states))
		}
		for i := range want.states {
			if !got.states[i].Equal(want.states[i]) {
				t.Fatalf("%s, %v: stage %d leaves\n%sthe reference leaves\n%s", name, policy, i+1, got.states[i].String(u), want.states[i].String(u))
			}
		}
		if (got.res == nil) != (want.res == nil) {
			t.Fatalf("%s, %v: result %v, the reference's %v", name, policy, got.res, want.res)
		}
		if want.res != nil && (got.res.Stages != want.res.Stages || !got.res.Out.Equal(want.res.Out)) {
			t.Fatalf("%s, %v: %d stages to\n%sthe reference takes %d to\n%s", name, policy, got.res.Stages, got.res.Out.String(u), want.res.Stages, want.res.Out.String(u))
		}
	}
}

// TestNonInflationaryMatchesReference: the in-place stages against the
// clone-per-stage ones, over the shipped Datalog¬¬ programs, the
// cascade delete of Figure 1 and two programs whose every stage has a
// conflict.
func TestNonInflationaryMatchesReference(t *testing.T) {
	u := value.New()
	for _, c := range []struct {
		name, prog string
		in         *tuple.Instance
	}{
		{"counter4.dl", programs.Source("counter4.dl"), tuple.NewInstance()},
		{"flip_flop.dl from T(0)", programs.Source("flip_flop.dl"), parser.MustParseFacts("T(0).", u)},
		{"flip_flop.dl from T(0), T(1)", programs.Source("flip_flop.dl"), parser.MustParseFacts("T(0). T(1).", u)},
		{"orientation.dl", programs.Source("orientation.dl"), parser.MustParseFacts("G(a,b). G(b,a). G(c,d). G(e,e). G(d,c). G(d,e).", u)},
		{"the cascade delete", queries.CascadeDelete, gen.Cascade(u, 4)},
		{"a fact inferred both ways", "P(X) :- Q(X).\n!P(X) :- Q(X).", parser.MustParseFacts("Q(a). Q(b). P(b).", u)},
		{"two relations inferred both ways, the later one first",
			"R(X) :- Q(X).\n!R(X) :- Q(X).\n!P(X) :- Q(X), R(X).\nP(X) :- Q(X), R(X).\n!Q(X) :- P(X).",
			parser.MustParseFacts("Q(a). Q(b). R(b). P(a).", u)},
	} {
		sameNonInflationary(t, c.name, parser.MustParse(c.prog, u), c.in, u, 0)
	}
}

// generated returns the program of dialect d and the facts that
// gen.Program and gen.Facts decode from data, and the program's text.
func generated(data []byte, d ast.Dialect) (string, *ast.Program, *tuple.Instance, *value.Universe) {
	c, u := gen.Bytes(data), value.New()
	p := gen.Program(c, u, d)
	return p.String(u), p, gen.Facts(c, u, p), u
}

// FuzzInflationaryDelta decodes bytes into a small Datalog¬ program and
// an instance and checks the delta-driven stages against the reference.
func FuzzInflationaryDelta(f *testing.F) {
	// Example 4.3 in miniature, E(n0,n1) E(n1,n2) E(n2,n3) R(n3,n0):
	//	R(X,Y) :- E(X,Y).  R(X,Y) :- E(X,Z), R(Z,Y).  S(X,Y) :- R(X,Y).
	//	A(X) :- R(X,Y), R(Y,Z), !S(X,Z).
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 2, 0, 4, 0, 2, 0, 1, 2, 0, 0, 0, 2,
		0, 0, 4, 0, 0, 0, 1, 3, 0, 0, 0, 1, 2, 0, 4, 0, 0, 0, 1, 0, 4, 0, 1, 0, 2, 2, 5, 0, 0, 0, 2, 0, 0, 0,
		0, 1, 0, 1, 1, 1, 2, 1, 2, 3, 0, 3, 0})
	// Only a negative literal, over a relation that grows, A(n3)
	// E(n0,n1) E(n1,n2):
	//	A(X) :- E(X,Y).  A(Y) :- A(X), E(X,Y).  B(X) :- !A(X).
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1,
		0, 2, 2, 0, 0, 1, 0, 0, 0, 0, 3, 1, 0, 1, 1, 1, 2, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, p, in, u := generated(data, ast.DialectDatalogNeg)
		sameStages(t, src, p, in, u, true)
	})
}

// FuzzNonInflationary decodes bytes into a small Datalog¬¬ program and
// an instance and checks the in-place engine against
// referenceNonInflationary under every policy.
func FuzzNonInflationary(f *testing.F) {
	// A fact inferred and retracted at once, E(n0,n1) given:
	//	A(X) :- E(X,Y).  !A(X) :- A(X).
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1})
	// The flip-flop of Section 4.2 over A and B, A(n0) given:
	//	A(X) :- B(X).  !B(X) :- B(X).  B(X) :- A(X).  !A(X) :- A(X).
	f.Add([]byte{3, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, p, in, u := generated(data, ast.DialectDatalogNegNeg)
		sameNonInflationary(t, src, p, in, u, 256)
	})
}
