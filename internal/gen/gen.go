// Package gen generates synthetic workloads for the tests and
// benchmarks: graph families (chains, cycles, Erdős–Rényi random
// graphs, grids, trees, layered DAGs), game move graphs for the win
// query (Example 3.2), unary relations, and random programs of every
// dialect with facts for them (program.go). All generators are
// deterministic given their parameters (random ones take explicit
// seeds or choosers).
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"unchained/internal/ast"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Nodes interns n node constants n0..n(n-1) and returns them.
func Nodes(u *value.Universe, n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = u.Sym(fmt.Sprintf("n%d", i))
	}
	return out
}

// edgeInstance builds a binary relation named pred over the given
// edges (indexes into nodes).
func edgeInstance(pred string, nodes []value.Value, edges [][2]int) *tuple.Instance {
	in := tuple.NewInstance()
	in.Ensure(pred, 2)
	for _, e := range edges {
		in.Insert(pred, tuple.Tuple{nodes[e[0]], nodes[e[1]]})
	}
	return in
}

// Chain returns a path graph v0 → v1 → ... → v(n-1) in relation pred.
func Chain(u *value.Universe, pred string, n int) *tuple.Instance {
	nodes := Nodes(u, n)
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return edgeInstance(pred, nodes, edges)
}

// Cycle returns a directed cycle on n nodes.
func Cycle(u *value.Universe, pred string, n int) *tuple.Instance {
	nodes := Nodes(u, n)
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return edgeInstance(pred, nodes, edges)
}

// Random returns a graph on n nodes with m distinct random edges
// (self-loops allowed), deterministic in seed.
func Random(u *value.Universe, pred string, n, m int, seed int64) *tuple.Instance {
	rng := rand.New(rand.NewSource(seed))
	nodes := Nodes(u, n)
	in := tuple.NewInstance()
	rel := in.Ensure(pred, 2)
	for rel.Len() < m && rel.Len() < n*n {
		rel.Insert(tuple.Tuple{nodes[rng.Intn(n)], nodes[rng.Intn(n)]})
	}
	return in
}

// Grid returns a w×h grid with edges right and down.
func Grid(u *value.Universe, pred string, w, h int) *tuple.Instance {
	nodes := Nodes(u, w*h)
	var edges [][2]int
	at := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, [2]int{at(x, y), at(x+1, y)})
			}
			if y+1 < h {
				edges = append(edges, [2]int{at(x, y), at(x, y+1)})
			}
		}
	}
	return edgeInstance(pred, nodes, edges)
}

// Tree returns a complete k-ary tree of the given depth with edges
// parent → child.
func Tree(u *value.Universe, pred string, k, depth int) *tuple.Instance {
	// Number of nodes: (k^(depth+1)-1)/(k-1) for k>1, depth+1 for k=1.
	count := depth + 1
	if k > 1 {
		count = 1
		pow := 1
		for d := 0; d < depth; d++ {
			pow *= k
			count += pow
		}
	}
	nodes := Nodes(u, count)
	var edges [][2]int
	for i := 0; i < count; i++ {
		for c := 1; c <= k; c++ {
			child := i*k + c
			if child < count {
				edges = append(edges, [2]int{i, child})
			}
		}
	}
	return edgeInstance(pred, nodes, edges)
}

// Cascade returns the cascade-delete instance of Figure 1's
// Datalog¬¬ ≡ while pair (queries.CascadeDelete / CascadeWhile): a
// complete binary management tree Mgr of the given depth, Emp holding
// every node, and Fired seeded with the root's left child, so about
// half of Emp survives.
func Cascade(u *value.Universe, depth int) *tuple.Instance {
	in := Merge(Tree(u, "Mgr", 2, depth), Unary(u, "Emp", 1<<(depth+1)-1))
	in.Insert("Fired", tuple.Tuple{u.Sym("n1")})
	return in
}

// LayeredDAG returns a DAG with the given number of layers of the
// given width; each node gets outdeg random edges to the next layer.
func LayeredDAG(u *value.Universe, pred string, layers, width, outdeg int, seed int64) *tuple.Instance {
	rng := rand.New(rand.NewSource(seed))
	nodes := Nodes(u, layers*width)
	in := tuple.NewInstance()
	rel := in.Ensure(pred, 2)
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for d := 0; d < outdeg; d++ {
				rel.Insert(tuple.Tuple{nodes[l*width+i], nodes[(l+1)*width+rng.Intn(width)]})
			}
		}
	}
	return in
}

// TwoCycles returns k disjoint 2-cycles plus k plain edges — the
// orientation workload of Section 5.
func TwoCycles(u *value.Universe, pred string, k int) *tuple.Instance {
	nodes := Nodes(u, 3*k)
	var edges [][2]int
	for i := 0; i < k; i++ {
		a, b, c := 3*i, 3*i+1, 3*i+2
		edges = append(edges, [2]int{a, b}, [2]int{b, a}, [2]int{b, c})
	}
	return edgeInstance(pred, nodes, edges)
}

// Game returns a random game move graph on n states with m moves
// (the win-query workload of Example 3.2).
func Game(u *value.Universe, pred string, n, m int, seed int64) *tuple.Instance {
	return Random(u, pred, n, m, seed)
}

// Unary returns the instance {pred(v0),...,pred(v(n-1))}.
func Unary(u *value.Universe, pred string, n int) *tuple.Instance {
	in := tuple.NewInstance()
	in.Ensure(pred, 1)
	for _, v := range Nodes(u, n) {
		in.Insert(pred, tuple.Tuple{v})
	}
	return in
}

// UnarySubset returns pred over a random subset of size k of n fresh
// nodes, plus a second relation holding all n nodes under allPred
// (so the active domain is the full node set).
func UnarySubset(u *value.Universe, pred, allPred string, n, k int, seed int64) *tuple.Instance {
	rng := rand.New(rand.NewSource(seed))
	nodes := Nodes(u, n)
	in := tuple.NewInstance()
	in.Ensure(pred, 1)
	in.Ensure(allPred, 1)
	perm := rng.Perm(n)
	for _, v := range nodes {
		in.Insert(allPred, tuple.Tuple{v})
	}
	for i := 0; i < k && i < n; i++ {
		in.Insert(pred, tuple.Tuple{nodes[perm[i]]})
	}
	return in
}

// Merge unions several instances into a fresh one (relations with
// the same name must have equal arities).
func Merge(ins ...*tuple.Instance) *tuple.Instance {
	out := tuple.NewInstance()
	for _, in := range ins {
		for _, name := range in.Names() {
			r := in.Relation(name)
			out.Ensure(name, r.Arity()).UnionInPlace(r)
		}
	}
	return out
}

// Inputs calls fn with the input shapes of the reference tests for p.
// Each binary relation that no rule of p derives gets one of six graph
// shapes (chain, cycle, random, tree, two-cycles, game), each unary one
// a few constants. Every shape comes twice, the second time with facts
// asserted on the derived relations too, so that the first stage's
// delta is not all that such a relation holds.
func Inputs(u *value.Universe, p *ast.Program, fn func(name string, in *tuple.Instance)) {
	sch, err := p.Schema()
	if err != nil {
		panic(err) // callers pass programs that validate
	}
	idb := map[string]bool{}
	for _, n := range p.IDB() {
		idb[n] = true
	}
	shapes := []func(pred string, seed int64) *tuple.Instance{
		func(pred string, _ int64) *tuple.Instance { return Chain(u, pred, 6) },
		func(pred string, _ int64) *tuple.Instance { return Cycle(u, pred, 5) },
		func(pred string, seed int64) *tuple.Instance { return Random(u, pred, 6, 9, seed) },
		func(pred string, _ int64) *tuple.Instance { return Tree(u, pred, 2, 2) },
		func(pred string, _ int64) *tuple.Instance { return TwoCycles(u, pred, 3) },
		func(pred string, seed int64) *tuple.Instance { return Game(u, pred, 7, 10, seed) },
	}
	for si, shape := range shapes {
		for _, asserted := range []bool{false, true} {
			var parts []*tuple.Instance
			for pi, n := range p.Preds() {
				switch seed := int64(si + pi); {
				case sch[n] == 2 && !idb[n]:
					parts = append(parts, shape(n, seed))
				case sch[n] == 2 && asserted:
					parts = append(parts, Random(u, n, 6, 3, seed))
				case sch[n] == 1 && (!idb[n] || asserted):
					parts = append(parts, Unary(u, n, 3))
				}
			}
			fn(fmt.Sprintf("shape %d asserted=%v", si, asserted), Merge(parts...))
		}
	}
}

// Wide returns the text of the front-end stress program, the two
// optimizer shapes of experiment P12 at rule-count scale: a depth-deep
// chain of copy predicates S1..Sdepth over E feeds Out through a
// filter (inlining folds it), and dead rules that Out never reads hang
// off the side (reachability removes them). It has depth+1+dead rules
// and as many derived predicates; every front-end pass should cost
// one walk of it.
func Wide(depth, dead int) string {
	var b strings.Builder
	b.WriteString("S1(X,Y) :- E(X,Y).\n")
	for i := 2; i <= depth; i++ {
		fmt.Fprintf(&b, "S%d(X,Y) :- S%d(X,Y).\n", i, i-1)
	}
	fmt.Fprintf(&b, "Out(X,Y) :- S%d(X,Y), Sel(X).\n", depth)
	for i := 0; i < dead; i++ {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&b, "D%d(X,Y) :- E(X,Y), Sel(Y).\n", i)
		case 1:
			fmt.Fprintf(&b, "D%d(X,Z) :- D%d(X,Y), E(Y,Z).\n", i, i-1)
		case 2:
			fmt.Fprintf(&b, "D%d(X) :- D%d(X,Y), !Sel(X).\n", i, i-1)
		default:
			fmt.Fprintf(&b, "D%d(X,Y) :- D%d(X), E(X,Y), D%d(Y,X).\n", i, i-1, i-2)
		}
	}
	return b.String()
}
