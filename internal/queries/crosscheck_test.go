package queries

// Cross-engine property tests on generated programs: the strongest
// evidence this repository offers for the equivalences of Figure 1
// beyond the hand-written suite. Programs and instances come from
// gen.Program and gen.Facts over a fixed range of seeds, so a failure
// names the seed that reproduces it, and the engines are required to
// agree exactly.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/core"
	"unchained/internal/declarative"
	"unchained/internal/engine"
	"unchained/internal/gen"
	"unchained/internal/nondet"
	"unchained/internal/stratify"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// generated calls fn with the seed, program and facts of each of n
// seeds, drawn by program (gen.Program or gen.SemiPositive over one
// dialect); name shows the seed and the program.
func generated(n int64, program func(gen.Chooser, *value.Universe) *ast.Program, fn func(seed int64, name string, p *ast.Program, in *tuple.Instance, u *value.Universe)) {
	for seed := int64(0); seed < n; seed++ {
		c, u := rand.New(rand.NewSource(seed)), value.New()
		p := program(c, u)
		fn(seed, fmt.Sprintf("seed %d:\n%s", seed, p.String(u)), p, gen.Facts(c, u, p), u)
	}
}

func dialect(d ast.Dialect) func(gen.Chooser, *value.Universe) *ast.Program {
	return func(c gen.Chooser, u *value.Universe) *ast.Program { return gen.Program(c, u, d) }
}

// TestRandomPositiveProgramsAllEnginesAgree: on positive programs the
// minimum model (naive and semi-naive), the inflationary fixpoint,
// the Datalog¬¬ engine, the well-founded model and a nondeterministic
// one-at-a-time run all coincide (Sections 3.1/4.1/4.2).
func TestRandomPositiveProgramsAllEnginesAgree(t *testing.T) {
	generated(40, dialect(ast.DialectDatalog), func(seed int64, name string, p *ast.Program, in *tuple.Instance, u *value.Universe) {
		ref, err := declarative.Eval(p, in, u, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for sem, eval := range map[string]engine.Func{
			"naive":           declarative.EvalNaive,
			"inflationary":    core.EvalInflationary,
			"noninflationary": core.EvalNonInflationary,
		} {
			res, err := eval(p, in, u, nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, sem, err)
			}
			if !res.Out.Equal(ref.Out) {
				t.Fatalf("%s: %s gives\n%sthe minimum model is\n%s", name, sem, res.Out.String(u), ref.Out.String(u))
			}
		}
		wfs, err := declarative.EvalWellFounded(p, in, u, nil)
		if err != nil || !wfs.Total() || !wfs.True.Equal(ref.Out) {
			t.Fatalf("%s: the well-founded model (%v) is not the minimum model", name, err)
		}
		ndet, err := nondet.Run(p, ast.DialectNDatalogNeg, in, u, seed, nil)
		if err != nil || !ndet.Out.Equal(ref.Out) {
			t.Fatalf("%s: the nondeterministic run (%v) does not end in the minimum model", name, err)
		}
	})
}

// TestRandomSemiPositiveProgramsAgree: with negation restricted to
// EDB relations, semi-positive, stratified, well-founded and
// inflationary evaluation coincide (the unordered half of Thm 4.7).
func TestRandomSemiPositiveProgramsAgree(t *testing.T) {
	generated(40, gen.SemiPositive, func(_ int64, name string, p *ast.Program, in *tuple.Instance, u *value.Universe) {
		sp, err := declarative.EvalSemiPositive(p, in, u, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for sem, eval := range map[string]engine.Func{
			"stratified":   declarative.EvalStratified,
			"inflationary": core.EvalInflationary,
		} {
			res, err := eval(p, in, u, nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, sem, err)
			}
			if !res.Out.Equal(sp.Out) {
				t.Fatalf("%s: %s gives\n%sthe semi-positive engine\n%s", name, sem, res.Out.String(u), sp.Out.String(u))
			}
		}
		wfs, err := declarative.EvalWellFounded(p, in, u, nil)
		if err != nil || !wfs.Total() || !wfs.True.Equal(sp.Out) {
			t.Fatalf("%s: the well-founded model (%v) is not total and equal to the semi-positive engine's", name, err)
		}
	})
}

// TestRandomProgramsGeneric: the outputs of the stratified,
// well-founded and inflationary engines commute with the domain
// isomorphisms that fix the program's constants (Section 4.4).
func TestRandomProgramsGeneric(t *testing.T) {
	moved := 0
	generated(30, dialect(ast.DialectDatalogNeg), func(_ int64, name string, p *ast.Program, in *tuple.Instance, u *value.Universe) {
		fixed := map[value.Value]bool{}
		for _, c := range p.Constants() {
			fixed[c] = true
		}
		// renamed maps an instance through the isomorphism c ↦ rc.
		renamed := func(in *tuple.Instance) *tuple.Instance {
			iso := tuple.NewInstance()
			in.EachRel(func(name string, r *tuple.Relation) {
				iso.Ensure(name, r.Arity())
				r.Each(func(tp tuple.Tuple) bool {
					nt := make(tuple.Tuple, len(tp))
					for i, v := range tp {
						if nt[i] = v; !fixed[v] {
							nt[i] = u.Sym("r" + u.Name(v))
						}
					}
					iso.Insert(name, nt)
					return true
				})
			})
			return iso
		}
		if !renamed(in).Equal(in) { // else the check proves nothing
			moved++
		}
		_, unstratifiable := stratify.Stratify(p)
		for sem, eval := range map[string]engine.Func{
			"stratified":   declarative.EvalStratified,
			"well-founded": declarative.EvalWellFounded2,
			"inflationary": core.EvalInflationary,
		} {
			if sem == "stratified" && unstratifiable != nil {
				continue
			}
			a, err := eval(p, in, u, nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, sem, err)
			}
			b, err := eval(p, renamed(in), u, nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, sem, err)
			}
			if !renamed(a.Out).Equal(b.Out) {
				t.Fatalf("%s: %s is not generic", name, sem)
			}
		}
	})
	if moved < 25 {
		t.Fatalf("the renaming moves an input value on only %d of 30 seeds", moved)
	}
}

// TestRandomProgramsWFSSandwich: on arbitrary Datalog¬ programs (IDB
// negation allowed, possibly nonstratifiable) the well-founded model
// satisfies True ⊆ Possible, and re-evaluation gives the identical
// model.
func TestRandomProgramsWFSSandwich(t *testing.T) {
	generated(30, dialect(ast.DialectDatalogNeg), func(_ int64, name string, p *ast.Program, in *tuple.Instance, u *value.Universe) {
		wfs, err := declarative.EvalWellFounded(p, in, u, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wfs.True.EachRel(func(rel string, r *tuple.Relation) {
			r.Each(func(tp tuple.Tuple) bool {
				if !wfs.Possible.Has(rel, tp) {
					t.Fatalf("%s: %s%s is true but not possible", name, rel, tp.String(u))
				}
				return true
			})
		})
		again, err := declarative.EvalWellFounded(p, in, u, nil)
		if err != nil || !wfs.True.Equal(again.True) || !wfs.Possible.Equal(again.Possible) {
			t.Fatalf("%s: re-evaluation (%v) gives another model", name, err)
		}
	})
}

// TestRandomConflictPoliciesAgreeWhenConflictFree: on runs that never
// infer A and ¬A at one stage, all four Datalog¬¬ conflict policies
// coincide (the "choice is not crucial" remark of Section 4.2). A run
// under Inconsistent that ends without ErrInconsistent had no conflict.
func TestRandomConflictPoliciesAgreeWhenConflictFree(t *testing.T) {
	free := 0
	generated(60, dialect(ast.DialectDatalogNegNeg), func(_ int64, name string, p *ast.Program, in *tuple.Instance, u *value.Universe) {
		run := func(pol core.ConflictPolicy) (string, error) {
			res, err := core.EvalNonInflationary(p, in, u, &core.Options{Policy: pol, MaxStages: 256})
			if err != nil {
				return err.Error(), err
			}
			return fmt.Sprintf("%d stages to\n%s", res.Stages, res.Out.String(u)), nil
		}
		want, err := run(core.Inconsistent)
		if errors.Is(err, core.ErrInconsistent) {
			return
		}
		free++
		for _, pol := range []core.ConflictPolicy{core.PreferPositive, core.PreferNegative, core.NoOp} {
			if got, _ := run(pol); got != want {
				t.Fatalf("%s: %v gives %s\nInconsistent gives %s", name, pol, got, want)
			}
		}
	})
	if free < 25 {
		t.Fatalf("only %d of 60 programs run without a conflict", free)
	}
}
