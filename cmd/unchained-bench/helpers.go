package main

import (
	"fmt"
	"math/rand"
	"time"

	"unchained/internal/active"
	"unchained/internal/ast"
	"unchained/internal/declarative"
	"unchained/internal/fo"
	"unchained/internal/gen"
	"unchained/internal/incr"
	"unchained/internal/magic"
	"unchained/internal/nondet"
	"unchained/internal/parser"
	"unchained/internal/queries"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
	"unchained/internal/while"
)

// statsNote prints a one-line digest of an engine's evaluation
// summary under an experiment's table (the per-stage/per-rule detail
// stays available through the datalog CLI's -stats flag).
func statsNote(sum *stats.Summary) {
	if sum == nil {
		return
	}
	trunc := ""
	if sum.StagesTruncated {
		trunc = " (per-stage list truncated)"
	}
	fmt.Printf("   stats[%s]: stages=%d firings=%d derived=%d rederived=%d retractions=%d probes=%d scans=%d%s\n",
		sum.Engine, sum.Stages, sum.Firings, sum.Derived, sum.Rederived, sum.Retractions,
		sum.IndexProbes, sum.FullScans, trunc)
}

// cycleWithTail builds a directed cycle on the first half of the
// nodes with a tail hanging off it: nodes on/reachable from the cycle
// are "bad" for Example 4.4.
func cycleWithTail(u *value.Universe, n int) *tuple.Instance {
	if n < 4 {
		n = 4
	}
	nodes := gen.Nodes(u, n)
	in := tuple.NewInstance()
	rel := in.Ensure("G", 2)
	half := n / 2
	for i := 0; i < half; i++ {
		rel.Insert(tuple.Tuple{nodes[i], nodes[(i+1)%half]})
	}
	rel.Insert(tuple.Tuple{nodes[0], nodes[half]})
	for i := half; i+1 < n; i++ {
		rel.Insert(tuple.Tuple{nodes[i], nodes[i+1]})
	}
	return in
}

// cascadeInstance builds the cascade-delete workload: a complete
// binary management tree Mgr of the given depth, Emp holding every
// node, and Fired seeded with the root's left child (so roughly half
// the tree survives).
func cascadeInstance(u *value.Universe, depth int) *tuple.Instance {
	tree := gen.Tree(u, "Mgr", 2, depth)
	in := tree.Clone()
	emp := in.Ensure("Emp", 1)
	tree.Relation("Mgr").Each(func(t tuple.Tuple) bool {
		emp.Insert(tuple.Tuple{t[0]})
		emp.Insert(tuple.Tuple{t[1]})
		return true
	})
	in.Insert("Fired", tuple.Tuple{u.Sym("n1")}) // root's left child
	return in
}

// cascadeWhile is the while-language counterpart of the cascade
// delete:
//
//	while change do {
//	  Fired += ∃y (Mgr(y,x) ∧ Fired(y));
//	  Emp   := Emp(x) ∧ ¬Fired(x);
//	}
func cascadeWhile() *while.Program {
	return &while.Program{Stmts: []while.Stmt{
		while.Loop{Body: []while.Stmt{
			while.Assign{Rel: "Fired", Vars: []string{"X"}, Cumulative: true,
				F: fo.ExistsF([]string{"Y"},
					fo.AndF(fo.AtomF("Mgr", fo.V("Y"), fo.V("X")), fo.AtomF("Fired", fo.V("Y"))))},
			while.Assign{Rel: "Emp", Vars: []string{"X"},
				F: fo.AndF(fo.AtomF("Emp", fo.V("X")), fo.NotF(fo.AtomF("Fired", fo.V("X"))))},
		}},
	}}
}

// runActiveWorkload drives the A1 experiment: n orders over n items
// of which only the even-indexed ones are in stock; reserve rules
// consume stock and raise reorders, the rest are backordered.
func runActiveWorkload(n int) (time.Duration, int, int, error) {
	u := value.New()
	rules := []active.Rule{
		{
			Name: "reserve", Priority: 10,
			On: active.Inserted, Pred: "Order", Vars: []string{"O", "Item"},
			Cond: []ast.Literal{ast.PosLit(ast.NewAtom("InStock", ast.V("Item")))},
			Actions: []ast.Literal{
				ast.PosLit(ast.NewAtom("Reserved", ast.V("O"), ast.V("Item"))),
				ast.Neg(ast.NewAtom("InStock", ast.V("Item"))),
			},
		},
		{
			Name: "backorder", Priority: 5,
			On: active.Inserted, Pred: "Order", Vars: []string{"O", "Item"},
			Cond: []ast.Literal{
				ast.Neg(ast.NewAtom("InStock", ast.V("Item"))),
				ast.Neg(ast.NewAtom("Reserved", ast.V("O"), ast.V("Item"))),
			},
			Actions: []ast.Literal{ast.PosLit(ast.NewAtom("Backorder", ast.V("O"), ast.V("Item")))},
		},
		{
			Name: "reorder", Priority: 1,
			On: active.Deleted, Pred: "InStock", Vars: []string{"Item"},
			Actions: []ast.Literal{ast.PosLit(ast.NewAtom("Reorder", ast.V("Item")))},
		},
	}
	sys, err := active.NewSystem(u, rules)
	if err != nil {
		return 0, 0, 0, err
	}
	wm := tuple.NewInstance()
	var updates []active.Event
	for i := 0; i < n; i++ {
		item := u.Sym(fmt.Sprintf("item%d", i))
		if i%2 == 0 {
			wm.Insert("InStock", tuple.Tuple{item})
		}
		updates = append(updates, active.Insert("Order", tuple.Tuple{u.Sym(fmt.Sprintf("o%d", i)), item}))
	}
	var res *active.Result
	d := timed(func() {
		res, err = sys.Run(wm, updates, nil)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	reserved := 0
	if r := res.Out.Relation("Reserved"); r != nil {
		reserved = r.Len()
	}
	return d, res.Firings, reserved, nil
}

// expT511 demonstrates Theorem 5.11: poss(N-Datalog¬∀) reaches db-np.
// The Hamiltonicity query (the paper's Section 2 db-np example) is
// computed as poss(Ans) of the guess-a-successor-function program and
// checked against brute force.
func expT511(quick bool) error {
	type g struct {
		name  string
		n     int
		edges [][2]int
	}
	cases := []g{
		{"C4", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
		{"chain4", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{"rho3", 3, [][2]int{{0, 1}, {1, 2}, {2, 1}}},
		{"2xK3", 6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}},
	}
	if !quick {
		cases = append(cases, g{"K4", 4, [][2]int{
			{0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 2}, {1, 3},
			{2, 0}, {2, 1}, {2, 3}, {3, 0}, {3, 1}, {3, 2}}})
	}
	fmt.Printf("%8s %4s %10s %10s %10s %10s\n", "graph", "n", "ham?", "|poss|", "states", "time")
	for _, c := range cases {
		u := value.New()
		in := tuple.NewInstance()
		in.Ensure("G", 2)
		nodes := make([]value.Value, c.n)
		for i := range nodes {
			nodes[i] = u.Sym(fmt.Sprintf("v%d", i))
			in.Insert("Node", tuple.Tuple{nodes[i]})
		}
		for _, e := range c.edges {
			in.Insert("G", tuple.Tuple{nodes[e[0]], nodes[e[1]]})
		}
		p := parser.MustParse(queries.Hamiltonian, u)
		var eff *nondet.EffectSet
		var err error
		d := timed(func() {
			eff, err = nondet.Effects(p, ast.DialectNDatalogAll, in, u, &nondet.Options{MaxStates: 1 << 19})
		})
		if err != nil {
			return err
		}
		poss, ok := eff.Poss()
		if !ok {
			return fmt.Errorf("empty effect for %s", c.name)
		}
		got := 0
		if r := poss.Relation("Ans"); r != nil {
			got = r.Len()
		}
		want := 0
		if bruteHam(c.n, c.edges) {
			want = c.n
		}
		if got != want {
			return fmt.Errorf("CHECK FAILED: %s: poss(Ans)=%d want %d", c.name, got, want)
		}
		fmt.Printf("%8s %4d %10v %10d %10d %10v\n", c.name, c.n, want == c.n, got, eff.Explored, d.Round(time.Millisecond))
	}
	fmt.Println("   shape: poss(Ans) = Node iff Hamiltonian — the db-np power of the possibility semantics (Thm 5.11).")
	return nil
}

// bruteHam decides Hamiltonicity by permutation search.
func bruteHam(n int, edges [][2]int) bool {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, e := range edges {
		adj[e[0]][e[1]] = true
	}
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return adj[perm[n-1]][perm[0]]
		}
		for v := 0; v < n; v++ {
			if used[v] || (i > 0 && !adj[perm[i-1]][v]) {
				continue
			}
			used[v] = true
			perm[i] = v
			if rec(i + 1) {
				return true
			}
			used[v] = false
		}
		return false
	}
	return rec(0)
}

// expT57 demonstrates Theorem 5.7's language: N-Datalog¬new combines
// one-at-a-time nondeterministic firing with value invention. The tag
// program assigns a fresh object id to each element of P, one firing
// per element; different seeds pick different assignment orders but
// always produce a perfect tagging.
func expT57(quick bool) error {
	sizes := pick(quick, []int{4, 8}, []int{4, 8, 16, 32})
	fmt.Printf("%6s %8s %10s %10s %12s\n", "n", "steps", "tags", "fresh", "time")
	for _, n := range sizes {
		u := value.New()
		in := gen.Unary(u, "P", n)
		p := parser.MustParse(`Tagged(X), Tag(X,N) :- P(X), !Tagged(X).`, u)
		var res *nondet.Result
		var err error
		d := timed(func() {
			res, err = nondet.Run(p, ast.DialectNDatalogNew, in, u, int64(n), nil)
		})
		if err != nil {
			return err
		}
		tags := res.Out.Relation("Tag")
		seen := map[value.Value]bool{}
		ok := tags != nil && tags.Len() == n
		if tags != nil {
			tags.Each(func(t tuple.Tuple) bool {
				if !u.IsFresh(t[1]) || seen[t[1]] {
					ok = false
					return false
				}
				seen[t[1]] = true
				return true
			})
		}
		if err := check(ok, "tagging wrong at n=%d", n); err != nil {
			return err
		}
		fmt.Printf("%6d %8d %10d %10d %12v\n", n, res.Steps, tags.Len(), u.FreshCount(), d.Round(time.Microsecond))
	}
	fmt.Println("   shape: one firing per element, each inventing a distinct object id (object creation, §4.3/§5).")
	return nil
}

// expP5 measures the magic-sets rewriting (goal-directed bottom-up
// evaluation, the flagship optimization of the deductive-database era
// the paper's Section 3.1 alludes to) against full evaluation on
// single-source reachability queries.
func expP5(quick bool) error {
	fmt.Printf("%8s %8s %10s %12s %12s %8s\n", "n", "|ans|", "derived", "full", "magic", "speedup")
	for _, n := range pick(quick, []int{64, 256}, []int{64, 256, 1024, 2048}) {
		u := value.New()
		// A long chain plus a short side chain; the query asks for the
		// nodes reachable from the side chain's head.
		in := gen.Chain(u, "G", n)
		x0, x1, x2 := u.Sym("x0"), u.Sym("x1"), u.Sym("x2")
		in.Insert("G", tuple.Tuple{x0, x1})
		in.Insert("G", tuple.Tuple{x1, x2})
		p := parser.MustParse(queries.TC, u)
		q := ast.NewAtom("T", ast.C(x0), ast.V("Y"))

		var full, mag *tuple.Relation
		var err error
		dFull := timed(func() {
			full, err = magic.FullAnswer(p, q, in, u, nil)
		})
		if err != nil {
			return err
		}
		var derived int
		dMagic := timed(func() {
			rw, ansName, rerr := magic.Rewrite(p, q, in)
			if rerr != nil {
				err = rerr
				return
			}
			res, rerr := declarative.Eval(rw, in, u, nil)
			if rerr != nil {
				err = rerr
				return
			}
			if r := res.Out.Relation(ansName); r != nil {
				derived = r.Len()
				mag = tuple.NewRelation(q.Arity())
				r.Each(func(t tuple.Tuple) bool {
					if t[0] == x0 {
						mag.Insert(t)
					}
					return true
				})
			}
		})
		if err != nil {
			return err
		}
		if err := check(mag != nil && mag.Equal(full), "magic answers differ at n=%d", n); err != nil {
			return err
		}
		fmt.Printf("%8d %8d %10d %12v %12v %7.1fx\n", n, full.Len(), derived,
			dFull.Round(time.Microsecond), dMagic.Round(time.Microsecond), float64(dFull)/float64(dMagic))
	}
	fmt.Println("   shape: the rewriting derives only the demanded facts; speedup grows with the irrelevant part.")
	return nil
}

// expP7 measures incremental view maintenance (semi-naive insertion
// deltas, delete–rederive for deletions) against recomputation from
// scratch on the materialized transitive closure of a chain.
func expP7(quick bool) error {
	fmt.Printf("%8s %10s %14s %14s %8s\n", "n", "op", "incremental", "recompute", "speedup")
	for _, n := range pick(quick, []int{64, 128}, []int{64, 128, 256, 512}) {
		u := value.New()
		p := parser.MustParse(queries.TC, u)
		in := gen.Chain(u, "G", n)
		v, err := incr.Materialize(p, in, u, nil)
		if err != nil {
			return err
		}
		// Insertion: append one edge at the end of the chain.
		tail := u.Sym(fmt.Sprintf("n%d", n-1))
		fresh := u.Sym("fresh")
		var dIns time.Duration
		dIns = timed(func() {
			_, err = v.Insert("G", tuple.Tuple{tail, fresh})
		})
		if err != nil {
			return err
		}
		var dFullIns time.Duration
		dFullIns = timed(func() {
			_, err = declarative.Eval(p, edbOf(v), u, nil)
		})
		if err != nil {
			return err
		}
		fmt.Printf("%8d %10s %14v %14v %7.1fx\n", n, "insert", dIns.Round(time.Microsecond), dFullIns.Round(time.Microsecond), float64(dFullIns)/float64(dIns))

		// Deletion near the end: only a small suffix is affected.
		var dDel time.Duration
		dDel = timed(func() {
			_, err = v.Delete("G", tuple.Tuple{u.Sym(fmt.Sprintf("n%d", n-2)), tail})
		})
		if err != nil {
			return err
		}
		var dFullDel time.Duration
		dFullDel = timed(func() {
			_, err = declarative.Eval(p, edbOf(v), u, nil)
		})
		if err != nil {
			return err
		}
		fmt.Printf("%8d %10s %14v %14v %7.1fx\n", n, "delete", dDel.Round(time.Microsecond), dFullDel.Round(time.Microsecond), float64(dFullDel)/float64(dDel))
	}
	// Deletion's best case: cutting a leaf edge of a binary tree only
	// overestimates the leaf's ancestor paths.
	for _, depth := range pick(quick, []int{8}, []int{8, 10, 12}) {
		u := value.New()
		p := parser.MustParse(queries.TC, u)
		in := gen.Tree(u, "G", 2, depth)
		v, err := incr.Materialize(p, in, u, nil)
		if err != nil {
			return err
		}
		// Last edge: parent of the last node.
		nNodes := 1<<(depth+1) - 1
		last := nNodes - 1
		parent := (last - 1) / 2
		var dDel time.Duration
		dDel = timed(func() {
			_, err = v.Delete("G", tuple.Tuple{u.Sym(fmt.Sprintf("n%d", parent)), u.Sym(fmt.Sprintf("n%d", last))})
		})
		if err != nil {
			return err
		}
		var dFull time.Duration
		dFull = timed(func() {
			_, err = declarative.Eval(p, edbOf(v), u, nil)
		})
		if err != nil {
			return err
		}
		fmt.Printf("%8d %10s %14v %14v %7.1fx\n", nNodes, "del-leaf", dDel.Round(time.Microsecond), dFull.Round(time.Microsecond), float64(dFull)/float64(dDel))
	}
	// Deletion's worst case: on a dense random graph nearly every
	// closure fact has a derivation through any given edge, so a batch
	// over-deletes most of T and puts nearly all of it back. Sixteen
	// batches of four retracts and four asserts, each followed by the
	// batch undoing it (the shape of the benchmark's incr-updates).
	{
		const nodes, edges, batch = 60, 120, 4
		u := value.New()
		p := parser.MustParse(queries.TC, u)
		v, err := incr.Materialize(p, gen.Random(u, "G", nodes, edges, 1), u, nil)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(1))
		node := gen.Nodes(u, nodes)
		var dInc, dFull time.Duration
		for pair := 0; pair < 16; pair++ {
			var do, undo []incr.Fact
			for _, t := range v.Instance().Relation("G").SortedTuples(u)[:batch] {
				undo = append(undo, incr.Fact{Pred: "G", Tuple: t})
			}
			for len(do) < batch {
				if t := (tuple.Tuple{node[rng.Intn(nodes)], node[rng.Intn(nodes)]}); !v.Has("G", t) {
					do = append(do, incr.Fact{Pred: "G", Tuple: t})
				}
			}
			for _, b := range [][2][]incr.Fact{{do, undo}, {undo, do}} {
				dInc += timed(func() { _, err = v.Apply(b[0], b[1]) })
				if err != nil {
					return err
				}
				var full *declarative.Result
				dFull += timed(func() { full, err = declarative.Eval(p, edbOf(v), u, nil) })
				if err != nil {
					return err
				}
				if err := check(full.Out.Equal(v.Instance()), "dense graph: view differs from recompute"); err != nil {
					return err
				}
			}
		}
		fmt.Printf("%8s %10s %14v %14v %7.2fx\n", "60/120", "batch 4+4", (dInc / 32).Round(time.Microsecond), (dFull / 32).Round(time.Microsecond), float64(dFull)/float64(dInc))
	}
	fmt.Println("   shape: local updates are maintained several times below recompute cost; the gap")
	fmt.Println("   is largest for leaf deletions and narrowest for chain cuts, whose DRed overestimate")
	fmt.Println("   spans Θ(n) facts. On the dense graph DRed loses to recomputation: a batch")
	fmt.Println("   over-deletes most of the closure and rederives nearly all of it.")
	return nil
}

// edbOf extracts the extensional part of a maintained view.
func edbOf(v *incr.View) *tuple.Instance {
	out := tuple.NewInstance()
	st := v.Instance()
	for _, name := range st.Names() {
		if name == "G" || name == "E" {
			out.Ensure(name, st.Relation(name).Arity()).UnionInPlace(st.Relation(name))
		}
	}
	return out
}
