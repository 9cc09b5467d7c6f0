package eval

// Oracle test: the compiled matcher is cross-checked against a
// brute-force reference that enumerates every valuation of the rule's
// variables over the active domain and checks literals one by one —
// the literal reading of the paper's "instantiation" definition
// (Section 4.1). The rules are those gen.Program draws for every
// dialect: joins, constants, repeated variables, negation,
// (in)equalities, ∀-literals, several heads, ⊥ and invention.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// oracleEnumerate enumerates satisfying valuations by brute force.
func oracleEnumerate(r ast.Rule, in *tuple.Instance, adom []value.Value) []map[string]value.Value {
	vars := r.AppendVars(nil)
	// Exclude head-only vars (invention) — the matcher leaves them
	// unbound too.
	ho := map[string]bool{}
	for _, v := range r.HeadOnlyVars() {
		ho[v] = true
	}
	var free []string
	for _, v := range vars {
		if !ho[v] {
			free = append(free, v)
		}
	}
	var out []map[string]value.Value
	assign := map[string]value.Value{}
	var holds func(l ast.Literal) bool
	holds = func(l ast.Literal) bool {
		switch l.Kind {
		case ast.LitAtom:
			t := make(tuple.Tuple, len(l.Atom.Args))
			for i, a := range l.Atom.Args {
				if a.IsVar() {
					t[i] = assign[a.Var]
				} else {
					t[i] = a.Const
				}
			}
			has := in.Has(l.Atom.Pred, t)
			return has != l.Neg
		case ast.LitEq:
			left, right := l.Left(), l.Right()
			lv, rv := left.Const, right.Const
			if left.IsVar() {
				lv = assign[left.Var]
			}
			if right.IsVar() {
				rv = assign[right.Var]
			}
			return (lv == rv) != l.Neg
		case ast.LitForall:
			// Save, enumerate extensions, restore.
			saved := map[string]value.Value{}
			for _, v := range l.ForallVars() {
				saved[v] = assign[v]
			}
			defer func() {
				for k, v := range saved {
					assign[k] = v
				}
			}()
			var rec func(i int) bool
			rec = func(i int) bool {
				if i == len(l.ForallVars()) {
					for _, b := range l.ForallBody() {
						if !holds(b) {
							return false
						}
					}
					return true
				}
				for _, val := range adom {
					assign[l.ForallVars()[i]] = val
					if !rec(i + 1) {
						return false
					}
				}
				return true
			}
			return rec(0)
		default:
			return false
		}
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(free) {
			for _, l := range r.Body {
				if !holds(l) {
					return
				}
			}
			cp := map[string]value.Value{}
			for _, v := range free {
				cp[v] = assign[v]
			}
			out = append(out, cp)
			return
		}
		for _, val := range adom {
			assign[free[i]] = val
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// renderBindings canonicalizes a binding set for comparison.
func renderBindings(vars []string, bs []map[string]value.Value) string {
	lines := make([]string, 0, len(bs))
	for _, b := range bs {
		var sb strings.Builder
		for _, v := range vars {
			fmt.Fprintf(&sb, "%s=%d;", v, b[v])
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	// Dedup (oracle can produce duplicates when a variable is
	// head-only... it cannot, but keep it safe).
	out := lines[:0]
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// oracleHeads renders the head facts of r under the oracle's bindings,
// a head-only variable as value.None (what Fire writes for it).
func oracleHeads(r ast.Rule, bs []map[string]value.Value) string {
	var facts []Fact
	for _, b := range bs {
		for _, h := range r.Head {
			if h.Kind == ast.LitBottom {
				facts = append(facts, Fact{Bottom: true})
				continue
			}
			tp := make(tuple.Tuple, len(h.Atom.Args))
			for i, a := range h.Atom.Args {
				tp[i] = a.Const
				if a.IsVar() {
					tp[i] = b[a.Var]
				}
			}
			facts = append(facts, Fact{Neg: h.Neg, Pred: h.Atom.Pred, Tuple: tp})
		}
	}
	return renderFacts(facts)
}

// renderFacts canonicalizes a head fact set for comparison.
func renderFacts(facts []Fact) string {
	lines := make([]string, 0, len(facts))
	for _, f := range facts {
		lines = append(lines, fmt.Sprintf("%v %v %s%v", f.Neg, f.Bottom, f.Pred, f.Tuple))
	}
	sort.Strings(lines)
	return strings.Join(slices.Compact(lines), "\n")
}

// fireFacts fires r under ctx and appends the head facts it emits to
// facts.
func fireFacts(r *Rule, ctx *Ctx, facts []Fact) []Fact {
	r.Fire(ctx, -1, nil, func(f Fact) bool {
		f.Tuple = slices.Clone(f.Tuple)
		facts = append(facts, f)
		return true
	})
	return facts
}

// firesOracle checks that Fire emits the head facts of the oracle's
// bindings, unpinned and under every pin of a positive literal: to a
// delta (the whole instance), and to each of its facts in turn, which
// together fire what the whole delta does.
func firesOracle(t *testing.T, name string, u *value.Universe, r ast.Rule, cr *Rule, in *tuple.Instance, adom []value.Value, scan, noPlan bool, want string) bool {
	agrees := func(pin string, facts []Fact) bool {
		if got := renderFacts(facts); got != want {
			t.Logf("%s, scan=%v, noPlan=%v, %s, rule: %s", name, scan, noPlan, pin, r.String(u))
			t.Logf("instance:\n%s", in.String(u))
			t.Logf("Fire:\n%s", got)
			t.Logf("oracle heads:\n%s", want)
			return false
		}
		return true
	}
	ctx := func(li int) *Ctx { return &Ctx{In: in, Adom: adom, Scan: scan, NoPlan: noPlan, DeltaLit: li} }
	if !agrees("no pin", fireFacts(cr, ctx(-1), nil)) {
		return false
	}
	for _, li := range cr.PositiveBodyLits() {
		dv, pinned := cr.Delta(li), ctx(li)
		pinned.Delta = in
		if !agrees(fmt.Sprintf("delta at literal %d", li), fireFacts(dv, pinned, nil)) {
			return false
		}
		// The rule itself meets the pinned fact wherever its schedule
		// places the literal, the variant first.
		for _, pr := range []*Rule{cr, dv} {
			var facts []Fact
			if rel := in.Relation(r.Body[li].Atom.Pred); rel != nil {
				for _, tp := range rel.SortedTuples(u) {
					one := ctx(li)
					one.DeltaFact = tp
					facts = fireFacts(pr, one, facts)
				}
			}
			if !agrees(fmt.Sprintf("one-fact pins at literal %d, variant %v", li, pr == dv), facts) {
				return false
			}
		}
	}
	return true
}

// matchesOracle compares the matcher's bindings of r over in, indexed
// and scanning, with the planner on and off, with the brute-force
// enumeration, and Fire's head facts with the heads of its bindings
// (firesOracle). consts join the active domain.
func matchesOracle(t *testing.T, name string, u *value.Universe, r ast.Rule, in *tuple.Instance, consts []value.Value) bool {
	cr, err := Compile(r)
	if err != nil {
		t.Fatalf("%s: compile: %v\nrule: %s", name, err, r.String(u))
	}
	adom := ActiveDomain(u, append([]value.Value(nil), consts...), in)
	free := map[string]bool{}
	for _, v := range r.AppendVars(nil) {
		free[v] = true
	}
	for _, v := range r.HeadOnlyVars() {
		delete(free, v)
	}
	var freeVars []string
	for _, v := range r.AppendVars(nil) {
		if free[v] {
			freeVars = append(freeVars, v)
		}
	}
	want := oracleEnumerate(r, in, adom)
	ws, wantHeads := renderBindings(freeVars, want), oracleHeads(r, want)
	quantified := map[int]bool{} // a ∀'s own ids, which may share a free variable's name
	for _, l := range cr.lits {
		if l.forall != nil {
			for _, id := range l.forall.vars {
				quantified[id] = true
			}
		}
	}
	for i := 0; i < 4; i++ {
		scan, noPlan := i&1 != 0, i&2 != 0
		var got []map[string]value.Value
		cr.Enumerate(&Ctx{In: in, Adom: adom, DeltaLit: -1, Scan: scan, NoPlan: noPlan}, func(b Binding) bool {
			m := map[string]value.Value{}
			for i, name := range cr.Vars {
				if free[name] && !quantified[i] {
					m[name] = b[i]
				}
			}
			got = append(got, m)
			return true
		})
		if gs := renderBindings(freeVars, got); gs != ws {
			t.Logf("%s, scan=%v, noPlan=%v, rule: %s", name, scan, noPlan, r.String(u))
			t.Logf("instance:\n%s", in.String(u))
			t.Logf("matcher (%d):\n%s", len(got), gs)
			t.Logf("oracle  (%d):\n%s", len(want), ws)
			return false
		}
		if !firesOracle(t, name, u, r, cr, in, adom, scan, noPlan, wantHeads) {
			return false
		}
	}
	return true
}

// matchesProgram checks every rule of a generated program of one of
// the nine dialects (the first choice of c picks which) against the
// oracle, over facts drawn from c.
func matchesProgram(t *testing.T, name string, c gen.Chooser) {
	u := value.New()
	d := ast.Dialects[c.Intn(len(ast.Dialects))]
	p := gen.Program(c, u, d)
	in := gen.Facts(c, u, p)
	for i, r := range p.Rules {
		if !matchesOracle(t, fmt.Sprintf("%s, %v rule %d", name, d, i+1), u, r, in, p.Constants()) {
			t.Fatalf("%s: the matcher and the oracle disagree", name)
		}
	}
}

// TestMatcherAgainstOracle checks the matcher, indexed and scanning,
// on the programs of 300 seeds.
func TestMatcherAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		matchesProgram(t, fmt.Sprintf("seed %d", seed), rand.New(rand.NewSource(seed)))
	}
}

// FuzzMatcher is TestMatcherAgainstOracle over gen.Bytes.
func FuzzMatcher(f *testing.F) {
	// N-Datalog¬∀, the shadowing ∀ of TestMatcherScanModeAgainstOracle
	// in the generator's schema, P(n0) B(n0) B(n1) R(n0,n0) R(n0,n1):
	//	A(X) :- P(X), forall Y (B(Y)), !R(X,Y).
	f.Add([]byte{7, 0, 2, 0, 1, 0, 0, 4, 1, 0, 0, 0, 3, 0, 1, 2, 4, 0, 0, 0, 1, 0, 0, 0, 0,
		1, 1, 0, 2, 0, 2, 1, 3, 0, 0, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		matchesProgram(t, fmt.Sprintf("%v", data), gen.Bytes(data))
	})
}

// TestMatcherScanModeAgainstOracle checks both scan modes on hand-written
// rules: a negation and an inequality over a join, and a ∀ whose
// variable shadows an outer one (for X = a the outer Y ranges over a
// and b, and R(a,·) holds for both).
func TestMatcherScanModeAgainstOracle(t *testing.T) {
	for _, c := range []struct{ rule, facts string }{
		{"H(X) :- Q(X,Y), !P(Y), X != Y.", "Q(a,b). Q(b,b). P(a)."},
		{"H(X) :- P(X), forall Y (Q(Y)), !R(X,Y).", "P(a). Q(a). Q(b). R(a,a). R(a,b)."},
	} {
		u := value.New()
		r, err := parser.ParseRule(c.rule, u)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesOracle(t, c.rule, u, r, parser.MustParseFacts(c.facts, u), nil) {
			t.Fatalf("%s diverges", c.rule)
		}
	}
}

// TestExistentialCutAgainstOracle checks hand-written rules with an
// existential block against the oracle, and that Fire visits fewer
// valuations than Enumerate on each (one firing per head fact), except
// on the inventing rule, which it must not cut: Example 4.3's two
// guards, a ∀ inside a block, a dead suffix after an assignment, a block
// whose loop enumerates the active domain, and invention.
func TestExistentialCutAgainstOracle(t *testing.T) {
	for _, c := range []struct {
		rule, facts string
		cut         bool
	}{
		{"OldTExceptFinal(X,Y) :- T(X,Y), T(Xp,Zp), T(Zp,Yp), !T(Xp,Yp).", "T(a,b). T(b,c). T(c,d). T(a,c).", true},
		{"CT(X,Y) :- !T(X,Y), OldT(Xp,Yp), !OldTExceptFinal(Xp,Yp).", "T(a,b). OldT(a,b). OldT(b,c). OldT(c,d). OldTExceptFinal(a,b).", true},
		{"H(X) :- P(X), Q(Y), forall Z (!R(Y,Z)).", "P(a). P(b). Q(b). Q(c). Q(d). R(b,b).", true},
		{"H(X) :- P(X), Y = X, Q(Y,Z).", "P(a). P(b). Q(a,c). Q(a,d). Q(b,e). Q(b,f).", true},
		{"H(X) :- P(X), !Q(Y).", "P(a). P(b). Q(a). R(c). R(d).", true},
		{"H(X,N) :- P(X), Q(Y).", "P(a). P(b). Q(c). Q(d).", false},
	} {
		u := value.New()
		r, err := parser.ParseRule(c.rule, u)
		if err != nil {
			t.Fatal(err)
		}
		in := parser.MustParseFacts(c.facts, u)
		if !matchesOracle(t, c.rule, u, r, in, nil) {
			t.Fatalf("%s diverges", c.rule)
		}
		cr, err := Compile(r)
		if err != nil {
			t.Fatal(err)
		}
		adom := ActiveDomain(u, nil, in)
		for _, scan := range []bool{false, true} {
			valuations := countFirings(cr, &Ctx{In: in, Adom: adom, DeltaLit: -1, Scan: scan})
			fired := len(fireFacts(cr, &Ctx{In: in, Adom: adom, DeltaLit: -1, Scan: scan}, nil))
			if cut := fired < valuations; cut != c.cut || fired == 0 {
				t.Errorf("%s, scan=%v: Fire visits %d valuations of Enumerate's %d, want cut=%v", c.rule, scan, fired, valuations, c.cut)
			}
		}
	}
}
