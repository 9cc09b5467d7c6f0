package incr

import (
	"fmt"
	"math/rand"
	"testing"

	"unchained/internal/engine"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/queries"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// BenchmarkDeleteChainEnd cuts the last edge of a chain: every candidate
// is unprovable, so each is checked once and deleted.
func BenchmarkDeleteChainEnd(b *testing.B) {
	const n = 512
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u := value.New()
		p := parser.MustParse(queries.TC, u)
		in := gen.Chain(u, "G", n)
		v, err := Materialize(p, in, u, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := v.Delete("G", tuple.Tuple{u.Sym(fmt.Sprintf("n%d", n-2)), u.Sym(fmt.Sprintf("n%d", n-1))}); err != nil {
			b.Fatal(err)
		}
	}
}

// treeView materializes TC over a binary tree of the given depth, whose
// node i has children 2i+1 and 2i+2, and returns it with leafEdge,
// which names the G fact that hangs node i from its parent.
func treeView(tb testing.TB, depth int) (*View, func(i int) tuple.Tuple) {
	tb.Helper()
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	v, err := Materialize(p, gen.Tree(u, "G", 2, depth), u, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return v, func(i int) tuple.Tuple {
		return tuple.Tuple{u.Sym(fmt.Sprintf("n%d", (i-1)/2)), u.Sym(fmt.Sprintf("n%d", i))}
	}
}

// treeDepth makes the trees of the leaf cuts: 8 191 nodes, 90 114
// facts in their closure.
const treeDepth = 12

// BenchmarkDeleteTreeLeaf cuts a leaf off a binary tree: the few facts
// that reach the leaf are all there is to check. The first cut of a
// view also builds the indexes its checks probe.
func BenchmarkDeleteTreeLeaf(b *testing.B) {
	last := 1<<(treeDepth+1) - 2
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		v, leafEdge := treeView(b, treeDepth)
		b.StartTimer()
		if _, err := v.Delete("G", leafEdge(last)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeleteTreeLeafAgain is BenchmarkDeleteTreeLeaf's cut after
// the first on the same view: the sibling leaf, put back untimed after
// each cut. The first cut has built the indexes, so what it costs is
// what a batch costs.
func BenchmarkDeleteTreeLeafAgain(b *testing.B) {
	last := 1<<(treeDepth+1) - 2
	v, leafEdge := treeView(b, treeDepth)
	if _, err := v.Delete("G", leafEdge(last)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Delete("G", leafEdge(last-1)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := v.Insert("G", leafEdge(last-1)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// denseGraph is the shape of the repository benchmark's incr-updates
// workload (bench/incr.go): TC with Unreach above it over a random
// 60-node/120-edge graph, and sixteen do/undo pairs of batches that
// retract four edges and assert four new ones. The second batch of a
// pair undoes the first, so the list can be cycled. The rng calls
// follow the benchmark's, which makes the batches its batches.
func denseGraph(tb testing.TB, opt *engine.Options) (*View, [][2][]Fact, *value.Universe) {
	tb.Helper()
	const nodes, edges, batch, pairs = 60, 120, 4, 16
	shape := rand.New(rand.NewSource(20210620))
	u := value.New()
	node := gen.Nodes(u, nodes)
	type edge [2]int
	inBase := map[edge]bool{}
	var base []edge
	for len(base) < edges {
		if e := (edge{shape.Intn(nodes), shape.Intn(nodes)}); !inBase[e] {
			inBase[e] = true
			base = append(base, e)
		}
	}
	fact := func(e edge) Fact { return Fact{Pred: "G", Tuple: tuple.Tuple{node[e[0]], node[e[1]]}} }
	in := tuple.NewInstance()
	for _, e := range base {
		in.Insert("G", fact(e).Tuple)
	}
	for _, n := range node {
		in.Insert("N", tuple.Tuple{n})
	}
	p := parser.MustParse(queries.TC+"Unreach(X,Y) :- N(X), N(Y), !T(X,Y).\n", u)
	v, err := Materialize(p, in, u, opt)
	if err != nil {
		tb.Fatal(err)
	}
	var ops [][2][]Fact
	for k := 0; k < pairs; k++ {
		var assert, retract []Fact
		fresh := map[edge]bool{}
		for _, i := range shape.Perm(len(base))[:batch] {
			add := edge{shape.Intn(nodes), shape.Intn(nodes)}
			for inBase[add] || fresh[add] {
				add = edge{shape.Intn(nodes), shape.Intn(nodes)}
			}
			fresh[add] = true
			assert, retract = append(assert, fact(add)), append(retract, fact(base[i]))
		}
		ops = append(ops, [2][]Fact{assert, retract}, [2][]Fact{retract, assert})
	}
	return v, ops, u
}

// countDeletions is the view's maintenance with a tally: to *n it adds
// how many facts the deletion waves of pred's layer delete — the derived
// count of each of that layer's stages whose delta is negative, read off
// col, the view's collector, which it resets.
func countDeletions(pred string, col *stats.Collector, n *int) func(*View, *layer, *Delta) error {
	return func(v *View, l *layer, d *Delta) error {
		if !l.preds[pred] {
			return v.maintain(l, d)
		}
		col.Reset("incr", 0, nil)
		err := v.maintain(l, d)
		for _, st := range col.Summary().PerStage {
			if st.Delta < 0 {
				*n += int(st.Derived)
			}
		}
		return err
	}
}

// BenchmarkApplyDenseGraph is the regime the chain-end and tree-leaf
// cases leave out: most of the closure is reachable from every batch's
// retracts, and little of it loses its last proof. delta/op is the net
// change; deleted/op the facts T's deletion waves delete, read off the
// stage summaries of a second view that runs the op cycle once with a
// collector (which the timed view goes without, as the daemon's do).
func BenchmarkApplyDenseGraph(b *testing.B) {
	v, ops, _ := denseGraph(b, nil)
	delta := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i%len(ops)]
		d, err := v.Apply(op[0], op[1])
		if err != nil {
			b.Fatal(err)
		}
		delta += d.Added.Facts() + d.Removed.Facts()
	}
	b.StopTimer()
	col := stats.New()
	counted, ops, _ := denseGraph(b, &engine.Options{Stats: col})
	deleted := 0
	for _, op := range ops {
		if _, err := counted.apply(op[0], op[1], countDeletions("T", col, &deleted)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(delta)/float64(b.N), "delta/op")
	b.ReportMetric(float64(deleted)/float64(len(ops)), "deleted/op")
}
