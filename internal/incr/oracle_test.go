package incr

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/declarative"
	"unchained/internal/parser"
	"unchained/internal/queries"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// The corpus oracle: for every program below, any interleaving of
// assert/retract batches must leave the maintained view byte-identical
// (Instance().String) to a from-scratch stratified evaluation of the
// post-batch EDB, and its state and delta byte-identical to those of a
// view maintained by referenceDRed. Every layer is maintained the same
// way, so the corpus spans the shapes a layer can take — recursive or
// not, with several supports per fact, self-joins, constants and
// repeated variables in heads, negation below and inside recursion —
// and the deltas one layer hands the next across strata.

type oracleProgram struct {
	name string
	text string
	// edb maps each updatable predicate to its arity.
	edb map[string]int
}

var oracleCorpus = []oracleProgram{
	{
		// Pure recursion: one recursive layer.
		name: "tc",
		text: queries.TC,
		edb:  map[string]int{"G": 2},
	},
	{
		// Non-recursive with multiple supports per fact and a join.
		// P(x,y) can be supported by E and F at once, so losing one
		// support must keep it.
		name: "multi-support",
		text: `
			P(X,Y) :- E(X,Y).
			P(X,Y) :- F(X,Y).
			Q(X)   :- E(X,Y), F(Y,X).
			R(X)   :- P(X,Y), Q(Y).
		`,
		edb: map[string]int{"E": 2, "F": 2},
	},
	{
		// Stratified negation, non-recursive: asserts can retract
		// derived facts and vice versa.
		name: "neg-nonrecursive",
		text: `
			B(X)   :- F(X,Y).
			A(X,Y) :- E(X,Y), !B(Y).
			C(X)   :- A(X,Y), !F(Y,X).
		`,
		edb: map[string]int{"E": 2, "F": 2},
	},
	{
		// Negation over a recursive stratum: the safe complement of
		// transitive closure (CT restricted to known nodes). Node and
		// NT on top are driven by the deltas T's layer emits.
		name: "neg-over-recursion",
		text: `
			Node(X)  :- E(X,Y).
			Node(Y)  :- E(X,Y).
			T(X,Y)   :- E(X,Y).
			T(X,Y)   :- E(X,Z), T(Z,Y).
			NT(X,Y)  :- Node(X), Node(Y), !T(X,Y).
		`,
		edb: map[string]int{"E": 2},
	},
	{
		// Negation feeding recursion: a non-recursive layer's deltas
		// seed deletion and insertion inside a recursive layer.
		name: "neg-into-recursion",
		text: `
			Bad(X) :- F(X,X).
			T(X,Y) :- E(X,Y), !Bad(X).
			T(X,Y) :- T(X,Z), T(Z,Y).
		`,
		edb: map[string]int{"E": 2, "F": 2},
	},
	{
		// Mutual recursion (one SCC with two predicates) under an
		// external negative guard.
		name: "mutual-recursion",
		text: `
			Odd(X,Y)  :- E(X,Y), !Skip(X).
			Even(X,Y) :- Odd(X,Z), E(Z,Y).
			Odd(X,Y)  :- Even(X,Z), E(Z,Y).
			Skip(X)   :- F(X,X).
		`,
		edb: map[string]int{"E": 2, "F": 2},
	},
	{
		// Constants in the heads of a recursive layer: the rederive
		// plan, pinned at the head atom, must pass over the checked
		// facts the constant does not match. (c0 is in the batches'
		// constant pool.)
		name: "head-constant",
		text: `
			R(c0,Y) :- E(c0,Y).
			R(c0,Y) :- R(c0,Z), E(Z,Y).
			S(X,Y)  :- E(X,Y).
			S(X,Y)  :- S(X,Z), R(Z,Y).
		`,
		edb: map[string]int{"E": 2},
	},
	{
		// A repeated variable in the heads of a recursive layer: the
		// pinned head atom checks the two columns against each other.
		name: "head-repeated-variable",
		text: `
			L(X,X) :- E(X,X).
			L(X,X) :- L(Y,Y), E(Y,X), E(X,Y).
		`,
		edb: map[string]int{"E": 2},
	},
	{
		// A negated lower-layer guard inside the recursive rule: a
		// batch can flip a guard and move a positive support at once,
		// and a deletion check must read the lower layer as the batch
		// left it.
		name: "neg-guard-in-recursion",
		text: `
			Closed(X) :- F(X,X).
			P(X,Y)    :- E(X,Y).
			P(X,Y)    :- P(X,Z), E(Z,Y), !Closed(Z).
		`,
		edb: map[string]int{"E": 2, "F": 2},
	},
	{
		// A non-recursive self-join: one batch can change both of a
		// firing's body facts, and a fact with two firings through the
		// changed facts must be checked once and kept while one holds.
		// (Appended: FuzzApply's first byte indexes the corpus.)
		name: "self-join",
		text: `
			P(X,Z) :- E(X,Y), E(Y,Z).
			Q(X)   :- P(X,X), !E(X,X).
		`,
		edb: map[string]int{"E": 2},
	},
	{
		// One stratum of three components, maintained as one layer: two
		// independent recursions and a rule that joins them, so a batch
		// moves facts across components inside the layer, with a
		// negation of the join in the stratum above. (Appended, as
		// above.)
		name: "two-recursions-one-stratum",
		text: `
			A(X,Y) :- E(X,Y).
			A(X,Y) :- A(X,Z), E(Z,Y).
			B(X,Y) :- F(X,Y).
			B(X,Y) :- B(X,Z), F(Z,Y).
			J(X,Y) :- A(X,Y), B(Y,X).
			N(X,Y) :- E(X,Y), !J(X,Y).
		`,
		edb: map[string]int{"E": 2, "F": 2},
	},
	{
		// A negation written before the atoms that bind its variables:
		// they range over no domain, wherever the atoms sit, so unlike
		// TestAdomRangedNegationRejected's rules the program is
		// maintained. (Appended, as above.)
		name: "negation-before-binding",
		text: `
			T(X,Y)  :- E(X,Y).
			T(X,Y)  :- T(X,Z), E(Z,Y).
			NT(X,Y) :- !T(X,Y), N(X), N(Y).
		`,
		edb: map[string]int{"E": 2, "N": 1},
	},
}

// preds returns the program's updatable predicates, sorted: the
// batch generators index into it, so map order must not leak.
func (p oracleProgram) preds() []string {
	out := make([]string, 0, len(p.edb))
	for name := range p.edb {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// oracleRecompute evaluates the program from scratch on the view's
// current EDB under the stratified semantics.
func oracleRecompute(t testing.TB, u *value.Universe, v *View) *tuple.Instance {
	t.Helper()
	edbOnly := tuple.NewInstance()
	for _, name := range v.Instance().Names() {
		if !v.idb[name] {
			rel := v.Instance().Relation(name)
			edbOnly.Ensure(name, rel.Arity()).UnionInPlace(rel)
		}
	}
	var (
		res *declarative.Result
		err error
	)
	if v.prog.Validate(ast.DialectDatalog) == nil {
		res, err = declarative.Eval(v.prog, edbOnly, u, nil)
	} else {
		res, err = declarative.EvalStratified(v.prog, edbOnly, u, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Out
}

// referenceView materializes v's program over v's current EDB: a
// second view, for applyBoth to maintain with referenceDRed.
func referenceView(t testing.TB, u *value.Universe, v *View) *View {
	t.Helper()
	edb := tuple.NewInstance()
	v.Instance().EachRel(func(name string, r *tuple.Relation) {
		if !v.idb[name] {
			edb.Ensure(name, r.Arity()).UnionInPlace(r)
		}
	})
	ref, err := Materialize(v.prog, edb, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// applyBoth applies one batch to v and, with referenceDRed maintaining
// its layers, to ref, and fails unless the two states and the two
// deltas format identically. It returns v's delta.
func applyBoth(t testing.TB, u *value.Universe, v, ref *View, assert, retract []Fact) *Delta {
	t.Helper()
	return applyBothBy(t, u, v, (*View).maintain, ref, assert, retract)
}

// applyBothBy is applyBoth with v's layers maintained by maintain.
func applyBothBy(t testing.TB, u *value.Universe, v *View, maintain func(*View, *layer, *Delta) error, ref *View, assert, retract []Fact) *Delta {
	t.Helper()
	d, err := v.apply(assert, retract, maintain)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.apply(assert, retract, referenceDRed)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what      string
		got, want *tuple.Instance
	}{{"state", v.Instance(), ref.Instance()}, {"added", d.Added, want.Added}, {"removed", d.Removed, want.Removed}} {
		if got, want := c.got.String(u), c.want.String(u); got != want {
			t.Fatalf("%s differs from referenceDRed's\nassert: %v\nretract: %v\ngot:\n%swant:\n%s", c.what, assert, retract, got, want)
		}
	}
	return d
}

// randomBatch draws a batch of 0–3 asserts and 0–3 retracts over the
// program's EDB schema and a small constant pool, so retracts often
// hit live facts and asserts often collide with existing ones.
func randomBatch(rng *rand.Rand, prog oracleProgram, consts []value.Value) (assert, retract []Fact) {
	preds := prog.preds()
	mk := func() Fact {
		p := preds[rng.Intn(len(preds))]
		tup := make(tuple.Tuple, prog.edb[p])
		for i := range tup {
			tup[i] = consts[rng.Intn(len(consts))]
		}
		return Fact{Pred: p, Tuple: tup}
	}
	for n := rng.Intn(4); n > 0; n-- {
		assert = append(assert, mk())
	}
	for n := rng.Intn(4); n > 0; n-- {
		retract = append(retract, mk())
	}
	return assert, retract
}

func TestBatchOracleCorpus(t *testing.T) {
	const (
		seeds = 25
		steps = 12
	)
	for _, prog := range oracleCorpus {
		prog := prog
		t.Run(prog.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				u := value.New()
				p := parser.MustParse(prog.text, u)
				consts := make([]value.Value, 4)
				for i := range consts {
					consts[i] = u.Sym(fmt.Sprintf("c%d", i))
				}
				in := tuple.NewInstance()
				for name, arity := range prog.edb {
					in.Ensure(name, arity)
				}
				seedAsserts, _ := randomBatch(rng, prog, consts)
				for _, f := range seedAsserts {
					in.Insert(f.Pred, f.Tuple)
				}
				v, err := Materialize(p, in, u, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := v.Instance().String(u), oracleRecompute(t, u, v).String(u); got != want {
					t.Fatalf("seed %d: materialization differs from recompute:\ngot:\n%swant:\n%s", seed, got, want)
				}
				ref := referenceView(t, u, v)
				for step := 0; step < steps; step++ {
					before := ref.Snapshot() // not v's: v's batches must write in place
					assert, retract := randomBatch(rng, prog, consts)
					d := applyBoth(t, u, v, ref, assert, retract)
					got := v.Instance().String(u)
					want := oracleRecompute(t, u, v).String(u)
					if got != want {
						t.Fatalf("seed %d step %d: view diverged from recompute\nassert: %v\nretract: %v\ngot:\n%swant:\n%s",
							seed, step, assert, retract, got, want)
					}
					checkDeltaConsistent(t, u, before, v.Instance(), d)
				}
			}
		})
	}
}

// checkDeltaConsistent verifies the reported delta is exactly the
// difference between the pre- and post-batch instances: applying it
// to the snapshot reproduces the new state, and it contains no stale
// entries.
func checkDeltaConsistent(t *testing.T, u *value.Universe, before, after *tuple.Instance, d *Delta) {
	t.Helper()
	for _, name := range d.Added.Names() {
		for _, tup := range d.Added.Relation(name).SortedTuples(u) {
			if before.Has(name, tup) {
				t.Fatalf("delta added %s%s but it predates the batch", name, tup.String(u))
			}
			if !after.Has(name, tup) {
				t.Fatalf("delta added %s%s but it is absent after the batch", name, tup.String(u))
			}
		}
	}
	for _, name := range d.Removed.Names() {
		for _, tup := range d.Removed.Relation(name).SortedTuples(u) {
			if !before.Has(name, tup) {
				t.Fatalf("delta removed %s%s but it did not predate the batch", name, tup.String(u))
			}
			if after.Has(name, tup) {
				t.Fatalf("delta removed %s%s but it survives the batch", name, tup.String(u))
			}
		}
	}
	// Completeness: every difference between the instances is in the
	// delta.
	for _, name := range after.Names() {
		for _, tup := range after.Relation(name).SortedTuples(u) {
			if !before.Has(name, tup) && !d.Added.Has(name, tup) {
				t.Fatalf("fact %s%s appeared without a delta entry", name, tup.String(u))
			}
		}
	}
	for _, name := range before.Names() {
		for _, tup := range before.Relation(name).SortedTuples(u) {
			if !after.Has(name, tup) && !d.Removed.Has(name, tup) {
				t.Fatalf("fact %s%s vanished without a delta entry", name, tup.String(u))
			}
		}
	}
}

// TestAdomRangedNegationRejected pins the documented limitation, which
// is also what lets the view match with no active domain at all: a rule
// with a variable that ranges over the domain — CT's unrestricted
// complement rule is the classic — must be refused by Materialize
// rather than silently maintained wrong, wherever the variable sits.
func TestAdomRangedNegationRejected(t *testing.T) {
	for name, text := range map[string]string{
		"CT": queries.CT,
		"head variable bound only under negation": `
			P(X,Y) :- G(X,X), !G(Y,X).`,
		"body variable only under negation": `
			P(X) :- G(X,Y), !G(Y,Z).`,
		"only under negation in a recursive rule": `
			Blocked(X) :- G(X,X).
			R(X,Y) :- G(X,Y).
			R(X,Y) :- R(X,Z), G(Z,Y), !Blocked(W).`,
	} {
		u := value.New()
		p := parser.MustParse(text, u)
		in := parser.MustParseFacts(`G(a,b).`, u)
		if _, err := declarative.EvalStratified(p, in, u, nil); err != nil {
			t.Fatalf("%s: not a stratified program to begin with: %v", name, err)
		}
		_, err := Materialize(p, in, u, nil)
		if err == nil || !strings.Contains(err.Error(), "ranges over the active domain") {
			t.Errorf("%s: adom-ranged variable accepted for maintenance (err = %v)", name, err)
		}
	}
}

// TestBatchCancellation: a batch asserting and retracting the same
// fact nets to nothing and reports an empty delta.
func TestBatchCancellation(t *testing.T) {
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	in := parser.MustParseFacts(`G(a,b).`, u)
	v, err := Materialize(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	bc := Fact{Pred: "G", Tuple: tuple.Tuple{u.Sym("b"), u.Sym("c")}}
	d, err := v.Apply([]Fact{bc}, []Fact{bc})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("self-cancelling batch reported a delta:\nadded:\n%sremoved:\n%s",
			d.Added.String(u), d.Removed.String(u))
	}
	if v.Has("G", bc.Tuple) {
		t.Fatal("cancelled fact persisted")
	}
}
