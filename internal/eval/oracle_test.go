package eval

// Oracle test: the compiled matcher is cross-checked against a
// brute-force reference that enumerates every valuation of the rule's
// variables over the active domain and checks literals one by one —
// the literal reading of the paper's "instantiation" definition
// (Section 4.1). Random rules exercise joins, constants, repeated
// variables, negation, (in)equalities and ∀-literals.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"unchained/internal/ast"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// oracleEnumerate enumerates satisfying valuations by brute force.
func oracleEnumerate(r ast.Rule, in *tuple.Instance, adom []value.Value) []map[string]value.Value {
	vars := r.Vars()
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
			lv, rv := l.Left.Const, l.Right.Const
			if l.Left.IsVar() {
				lv = assign[l.Left.Var]
			}
			if l.Right.IsVar() {
				rv = assign[l.Right.Var]
			}
			return (lv == rv) != l.Neg
		case ast.LitForall:
			// Save, enumerate extensions, restore.
			saved := map[string]value.Value{}
			for _, v := range l.ForallVars {
				saved[v] = assign[v]
			}
			defer func() {
				for k, v := range saved {
					assign[k] = v
				}
			}()
			var rec func(i int) bool
			rec = func(i int) bool {
				if i == len(l.ForallVars) {
					for _, b := range l.ForallBody {
						if !holds(b) {
							return false
						}
					}
					return true
				}
				for _, val := range adom {
					assign[l.ForallVars[i]] = val
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

// randomRule generates a random rule over a fixed schema.
func randomRule(rng *rand.Rand, u *value.Universe, consts []value.Value) ast.Rule {
	preds := []struct {
		name  string
		arity int
	}{{"P", 1}, {"Q", 2}, {"R", 2}, {"S", 3}}
	vars := []string{"X", "Y", "Z", "W"}
	term := func() ast.Term {
		if rng.Intn(4) == 0 {
			return ast.C(consts[rng.Intn(len(consts))])
		}
		return ast.V(vars[rng.Intn(len(vars))])
	}
	atom := func() ast.Atom {
		p := preds[rng.Intn(len(preds))]
		args := make([]ast.Term, p.arity)
		for i := range args {
			args[i] = term()
		}
		return ast.Atom{Pred: p.name, Args: args}
	}
	n := 1 + rng.Intn(3)
	var body []ast.Literal
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			body = append(body, ast.Neg(atom()))
		case 1:
			l := ast.Eq(term(), term())
			if rng.Intn(2) == 0 {
				l = ast.Neq(l.Left, l.Right)
			}
			body = append(body, l)
		case 2:
			// ∀-literal: quantify one variable over 1–2 inner literals.
			qv := vars[rng.Intn(len(vars))]
			inner := []ast.Literal{}
			for j := 0; j < 1+rng.Intn(2); j++ {
				a := atom()
				if rng.Intn(2) == 0 {
					inner = append(inner, ast.Neg(a))
				} else {
					inner = append(inner, ast.PosLit(a))
				}
			}
			body = append(body, ast.Forall([]string{qv}, inner...))
		default:
			body = append(body, ast.PosLit(atom()))
		}
	}
	// Head: H over the body's variables (or adom-ranged ones — the
	// oracle covers both).
	return ast.Rule{
		Head: []ast.Literal{ast.PosLit(ast.Atom{Pred: "H", Args: []ast.Term{ast.V(vars[rng.Intn(len(vars))])}})},
		Body: body,
	}
}

// forallVarsClash reports whether a rule reuses a ∀-quantified
// variable outside its literal, which the compiler's scoping does not
// support (the quantified variable would capture the outer one).
func forallVarsClash(r ast.Rule) bool {
	for i, l := range r.Body {
		if l.Kind != ast.LitForall {
			continue
		}
		quant := map[string]bool{}
		for _, v := range l.ForallVars {
			quant[v] = true
		}
		for j, other := range r.Body {
			if i == j {
				continue
			}
			var all []string
			switch other.Kind {
			case ast.LitAtom:
				for _, t := range other.Atom.Args {
					if t.IsVar() {
						all = append(all, t.Var)
					}
				}
			case ast.LitEq:
				if other.Left.IsVar() {
					all = append(all, other.Left.Var)
				}
				if other.Right.IsVar() {
					all = append(all, other.Right.Var)
				}
			case ast.LitForall:
				all = append(all, other.ForallVars...)
				for _, b := range other.ForallBody {
					for _, t := range b.Atom.Args {
						if t.IsVar() {
							all = append(all, t.Var)
						}
					}
				}
			}
			for _, v := range all {
				if quant[v] {
					return true
				}
			}
		}
		for _, h := range r.Head {
			if h.Kind == ast.LitAtom {
				for _, t := range h.Atom.Args {
					if t.IsVar() && quant[t.Var] {
						return true
					}
				}
			}
		}
	}
	return false
}

// matchesOracle compares the matcher's bindings of r over in, indexed
// and scanning, with the brute-force enumeration. consts join the
// active domain.
func matchesOracle(t *testing.T, name string, u *value.Universe, r ast.Rule, in *tuple.Instance, consts []value.Value) bool {
	cr, err := Compile(r)
	if err != nil {
		t.Fatalf("%s: compile: %v\nrule: %s", name, err, r.String(u))
	}
	adom := ActiveDomain(u, append([]value.Value(nil), consts...), in)
	free := map[string]bool{}
	for _, v := range r.Vars() {
		free[v] = true
	}
	for _, v := range r.HeadOnlyVars() {
		delete(free, v)
	}
	var freeVars []string
	for _, v := range r.Vars() {
		if free[v] {
			freeVars = append(freeVars, v)
		}
	}
	want := oracleEnumerate(r, in, adom)
	ws := renderBindings(freeVars, want)
	for _, scan := range []bool{false, true} {
		var got []map[string]value.Value
		cr.Enumerate(&Ctx{In: in, Adom: adom, DeltaLit: -1, Scan: scan}, func(b Binding) bool {
			m := map[string]value.Value{}
			for i, name := range cr.Vars {
				if free[name] {
					m[name] = b[i]
				}
			}
			got = append(got, m)
			return true
		})
		if gs := renderBindings(freeVars, got); gs != ws {
			t.Logf("%s, scan=%v, rule: %s", name, scan, r.String(u))
			t.Logf("instance:\n%s", in.String(u))
			t.Logf("matcher (%d):\n%s", len(got), gs)
			t.Logf("oracle  (%d):\n%s", len(want), ws)
			return false
		}
	}
	return true
}

// TestMatcherAgainstOracle checks the matcher, indexed and scanning,
// on 300 random rules.
func TestMatcherAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := value.New()
		consts := make([]value.Value, 3)
		for i := range consts {
			consts[i] = u.Sym(fmt.Sprintf("c%d", i))
		}
		// Random instance over the schema.
		in := tuple.NewInstance()
		for _, p := range []struct {
			name  string
			arity int
		}{{"P", 1}, {"Q", 2}, {"R", 2}, {"S", 3}} {
			in.Ensure(p.name, p.arity)
			nf := rng.Intn(6)
			for i := 0; i < nf; i++ {
				tp := make(tuple.Tuple, p.arity)
				for j := range tp {
					tp[j] = consts[rng.Intn(len(consts))]
				}
				in.Insert(p.name, tp)
			}
		}

		r := randomRule(rng, u, consts)
		if forallVarsClash(r) {
			return true // outside the compiler's scoping contract
		}
		return matchesOracle(t, fmt.Sprintf("seed %d", seed), u, r, in, consts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMatcherScanModeAgainstOracle checks both scan modes on a fixed
// tricky rule.
func TestMatcherScanModeAgainstOracle(t *testing.T) {
	u := value.New()
	a, b := u.Sym("a"), u.Sym("b")
	in := tuple.NewInstance()
	in.Insert("Q", tuple.Tuple{a, b})
	in.Insert("Q", tuple.Tuple{b, b})
	in.Insert("P", tuple.Tuple{a})
	fixed := ast.Rule{
		Head: []ast.Literal{ast.PosLit(ast.NewAtom("H", ast.V("X")))},
		Body: []ast.Literal{
			ast.PosLit(ast.NewAtom("Q", ast.V("X"), ast.V("Y"))),
			ast.Neg(ast.NewAtom("P", ast.V("Y"))),
			ast.Neq(ast.V("X"), ast.V("Y")),
		},
	}
	if !matchesOracle(t, "fixed rule", u, fixed, in, nil) {
		t.Fatal("the fixed rule diverges")
	}
}
