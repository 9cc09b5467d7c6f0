package queries

// Cross-engine property tests on randomly generated programs: the
// strongest evidence this repository offers for the equivalences of
// Figure 1 beyond the hand-written suite. Programs are generated
// safely by construction (head variables drawn from body variables),
// instances are random, and the engines are required to agree
// exactly.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"unchained/internal/ast"
	"unchained/internal/core"
	"unchained/internal/declarative"
	"unchained/internal/engine"
	"unchained/internal/nondet"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// progGen generates random programs and matching instances.
type progGen struct {
	rng   *rand.Rand
	u     *value.Universe
	edb   []ast.Atom // schema templates (args unused)
	idb   []ast.Atom
	arity map[string]int
}

func newProgGen(seed int64, u *value.Universe) *progGen {
	g := &progGen{rng: rand.New(rand.NewSource(seed)), u: u, arity: map[string]int{}}
	for i, a := range []int{1, 2, 2} {
		name := fmt.Sprintf("E%d", i)
		g.edb = append(g.edb, ast.Atom{Pred: name})
		g.arity[name] = a
	}
	for i, a := range []int{1, 2, 1} {
		name := fmt.Sprintf("I%d", i)
		g.idb = append(g.idb, ast.Atom{Pred: name})
		g.arity[name] = a
	}
	return g
}

var varPool = []string{"X", "Y", "Z", "W"}

// atom builds a random atom over pred with args drawn from vars.
func (g *progGen) atom(pred string, vars []string) ast.Atom {
	args := make([]ast.Term, g.arity[pred])
	for i := range args {
		args[i] = ast.V(vars[g.rng.Intn(len(vars))])
	}
	return ast.Atom{Pred: pred, Args: args}
}

// rule builds one safe rule. If negEDB is true, a negated EDB literal
// may be appended (keeping the program semi-positive).
func (g *progGen) rule(negEDB bool) ast.Rule {
	nBody := 1 + g.rng.Intn(3)
	var body []ast.Literal
	seen := map[string]bool{}
	var bodyVars []string
	for i := 0; i < nBody; i++ {
		var pred string
		if g.rng.Intn(2) == 0 {
			pred = g.edb[g.rng.Intn(len(g.edb))].Pred
		} else {
			pred = g.idb[g.rng.Intn(len(g.idb))].Pred
		}
		a := g.atom(pred, varPool[:2+g.rng.Intn(2)])
		body = append(body, ast.PosLit(a))
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				bodyVars = append(bodyVars, t.Var)
			}
		}
	}
	if negEDB && g.rng.Intn(2) == 0 {
		pred := g.edb[g.rng.Intn(len(g.edb))].Pred
		// Negated atom over already-bound variables only.
		args := make([]ast.Term, g.arity[pred])
		for i := range args {
			args[i] = ast.V(bodyVars[g.rng.Intn(len(bodyVars))])
		}
		body = append(body, ast.Neg(ast.Atom{Pred: pred, Args: args}))
	}
	headPred := g.idb[g.rng.Intn(len(g.idb))].Pred
	headArgs := make([]ast.Term, g.arity[headPred])
	for i := range headArgs {
		headArgs[i] = ast.V(bodyVars[g.rng.Intn(len(bodyVars))])
	}
	return ast.Rule{
		Head: []ast.Literal{ast.PosLit(ast.Atom{Pred: headPred, Args: headArgs})},
		Body: body,
	}
}

// program builds a random program of 2–5 rules.
func (g *progGen) program(negEDB bool) *ast.Program {
	p := &ast.Program{}
	n := 2 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		p.Rules = append(p.Rules, g.rule(negEDB))
	}
	return p
}

// instance builds a random instance over the EDB schema.
func (g *progGen) instance(nConsts, nFacts int) *tuple.Instance {
	consts := make([]value.Value, nConsts)
	for i := range consts {
		consts[i] = g.u.Sym(fmt.Sprintf("c%d", i))
	}
	in := tuple.NewInstance()
	for _, e := range g.edb {
		in.Ensure(e.Pred, g.arity[e.Pred])
	}
	for i := 0; i < nFacts; i++ {
		e := g.edb[g.rng.Intn(len(g.edb))]
		t := make(tuple.Tuple, g.arity[e.Pred])
		for j := range t {
			t[j] = consts[g.rng.Intn(nConsts)]
		}
		in.Insert(e.Pred, t)
	}
	return in
}

// TestRandomPositiveProgramsAllEnginesAgree: on positive programs the
// minimum model (naive and semi-naive), the inflationary fixpoint,
// the Datalog¬¬ engine, the well-founded model and a nondeterministic
// one-at-a-time run all coincide (Sections 3.1/4.1/4.2).
func TestRandomPositiveProgramsAllEnginesAgree(t *testing.T) {
	f := func(seed int64) bool {
		u := value.New()
		g := newProgGen(seed, u)
		p := g.program(false)
		in := g.instance(4, 8)
		if err := p.Validate(ast.DialectDatalog); err != nil {
			t.Fatalf("generator produced invalid program: %v", err)
		}

		ref, err := declarative.Eval(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := declarative.EvalNaive(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		infl, err := core.EvalInflationary(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		noninfl, err := core.EvalNonInflationary(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		wfs, err := declarative.EvalWellFounded(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		ndet, err := nondet.Run(p, ast.DialectNDatalogNeg, in, u, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ref.Out.Equal(naive.Out) &&
			ref.Out.Equal(infl.Out) &&
			ref.Out.Equal(noninfl.Out) &&
			ref.Out.Equal(wfs.True) &&
			wfs.Total() &&
			ref.Out.Equal(ndet.Out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomSemiPositiveProgramsAgree: with negation restricted to
// EDB relations, semi-positive, stratified, well-founded and
// inflationary evaluation coincide (the unordered half of Thm 4.7).
func TestRandomSemiPositiveProgramsAgree(t *testing.T) {
	f := func(seed int64) bool {
		u := value.New()
		g := newProgGen(seed, u)
		p := g.program(true)
		in := g.instance(4, 8)

		sp, err := declarative.EvalSemiPositive(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := declarative.EvalStratified(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		wfs, err := declarative.EvalWellFounded(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		infl, err := core.EvalInflationary(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sp.Out.Equal(st.Out) && sp.Out.Equal(wfs.True) && wfs.Total() && sp.Out.Equal(infl.Out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomProgramsGeneric: the outputs of the stratified,
// well-founded and inflationary engines commute with domain
// isomorphisms (Section 4.4).
func TestRandomProgramsGeneric(t *testing.T) {
	f := func(seed int64) bool {
		u := value.New()
		g := newProgGen(seed, u)
		p := g.program(true)
		in := g.instance(4, 8)

		// renamed maps an instance through the isomorphism c ↦ rc.
		renamed := func(in *tuple.Instance) *tuple.Instance {
			iso := tuple.NewInstance()
			for _, name := range in.Names() {
				r := in.Relation(name)
				iso.Ensure(name, r.Arity())
				r.Each(func(tp tuple.Tuple) bool {
					nt := make(tuple.Tuple, len(tp))
					for i, v := range tp {
						nt[i] = u.Sym("r" + u.Name(v))
					}
					iso.Insert(name, nt)
					return true
				})
			}
			return iso
		}
		for name, eval := range map[string]engine.Func{
			"stratified":   declarative.EvalStratified,
			"well-founded": declarative.EvalWellFounded2,
			"inflationary": core.EvalInflationary,
		} {
			a, err := eval(p, in, u, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := eval(p, renamed(in), u, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !renamed(a.Out).Equal(b.Out) {
				t.Errorf("seed %d: %s is not generic", seed, name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomProgramsWFSSandwich: on arbitrary Datalog¬ programs (IDB
// negation allowed, possibly nonstratifiable) the well-founded model
// satisfies True ⊆ Possible, and both are sandwiched by the
// inflationary fixpoint's facts on the IDB only when the program is
// positive — here we check the lattice property plus idempotence of
// re-evaluation.
func TestRandomProgramsWFSSandwich(t *testing.T) {
	f := func(seed int64) bool {
		u := value.New()
		g := newProgGen(seed, u)
		p := g.program(false)
		// Inject one negated IDB literal to exercise 3-valuedness.
		r := g.rule(false)
		if vars := r.BodyVars(); len(vars) > 0 {
			pred := g.idb[g.rng.Intn(len(g.idb))].Pred
			args := make([]ast.Term, g.arity[pred])
			for i := range args {
				args[i] = ast.V(vars[g.rng.Intn(len(vars))])
			}
			r.Body = append(r.Body, ast.Neg(ast.Atom{Pred: pred, Args: args}))
		}
		p.Rules = append(p.Rules, r)
		in := g.instance(4, 8)

		wfs, err := declarative.EvalWellFounded(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		// True ⊆ Possible.
		for _, name := range wfs.True.Names() {
			rel := wfs.True.Relation(name)
			ok := true
			rel.Each(func(tp tuple.Tuple) bool {
				if !wfs.Possible.Has(name, tp) {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false
			}
		}
		// Determinism: re-evaluation gives the identical model.
		wfs2, err := declarative.EvalWellFounded(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		return wfs.True.Equal(wfs2.True) && wfs.Possible.Equal(wfs2.Possible)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomConflictPoliciesAgreeWhenConflictFree: on programs whose
// stages never infer A and ¬A simultaneously, all four Datalog¬¬
// conflict policies coincide (the "choice is not crucial" remark of
// Section 4.2).
func TestRandomConflictPoliciesAgreeWhenConflictFree(t *testing.T) {
	f := func(seed int64) bool {
		u := value.New()
		g := newProgGen(seed, u)
		p := g.program(false) // positive programs never conflict
		in := g.instance(4, 8)
		var outs []*tuple.Instance
		for _, pol := range []core.ConflictPolicy{core.PreferPositive, core.PreferNegative, core.NoOp, core.Inconsistent} {
			res, err := core.EvalNonInflationary(p, in, u, &core.Options{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, res.Out)
		}
		for _, o := range outs[1:] {
			if !outs[0].Equal(o) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
