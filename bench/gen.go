package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// shapeSeed fixes the structure of every generated input: which nodes
// an edge joins, which batch touches which edge. The --seed of a run
// only renames the constants and reorders the lines that carry that
// structure to the program. Runs with different seeds therefore feed
// the program different bytes but the same amount of work, which is
// what lets the 2% allocation bounds hold across seeds; a random graph
// drawn per seed moves the closure size, and every metric with it, by
// 5-10%.
const shapeSeed = 20210620

type edge [2]int

// randomEdges returns m distinct directed edges over n nodes
// (self-loops allowed), the shape of internal/gen.Random.
func randomEdges(rng *rand.Rand, n, m int) []edge {
	seen := make(map[edge]bool, m)
	out := make([]edge, 0, m)
	for len(out) < m && len(out) < n*n {
		e := edge{rng.Intn(n), rng.Intn(n)}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

func chainEdges(n int) []edge {
	out := make([]edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		out = append(out, edge{i, i + 1})
	}
	return out
}

// labels names node i of a shape. The names are one prefix plus a
// fixed-width number under a seed-chosen permutation, so every seed
// gives names of the same length and plain string order is the
// program's value order.
type labels []string

func newLabels(rng *rand.Rand, prefix string, n int) labels {
	width := len(fmt.Sprint(n - 1))
	out := make(labels, n)
	for i, p := range rng.Perm(n) {
		out[i] = fmt.Sprintf("%s%0*d", prefix, width, p)
	}
	return out
}

// facts is a database instance as the benchmark sees it: relation
// name to tuples of constant names. It is both what inputs are
// rendered from and what the oracles produce.
type facts map[string][][]string

func (f facts) add(pred string, args ...string) { f[pred] = append(f[pred], args) }

func (f facts) addEdges(pred string, es []edge, lab labels) {
	for _, e := range es {
		f.add(pred, lab[e[0]], lab[e[1]])
	}
}

func (f facts) count() int {
	n := 0
	for _, ts := range f {
		n += len(ts)
	}
	return n
}

func factLine(pred string, args []string) string {
	if len(args) == 0 {
		return pred + "."
	}
	return pred + "(" + strings.Join(args, ",") + ")."
}

// input renders the instance as facts text, one fact per line in a
// seed-chosen order.
func (f facts) input(rng *rand.Rand) string {
	lines := make([]string, 0, f.count())
	for _, pred := range f.preds() {
		for _, t := range f[pred] {
			lines = append(lines, factLine(pred, t))
		}
	}
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return strings.Join(lines, "\n") + "\n"
}

// output renders the instance exactly as Session.Format prints one:
// relations by name, tuples in value order, one "P(a,b)." per line.
func (f facts) output() string {
	var b strings.Builder
	for _, pred := range f.preds() {
		ts := append([][]string(nil), f[pred]...)
		sort.Slice(ts, func(i, j int) bool { return lessTuple(ts[i], ts[j]) })
		for _, t := range ts {
			b.WriteString(factLine(pred, t))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func (f facts) preds() []string {
	out := make([]string, 0, len(f))
	for p := range f {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func lessTuple(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// counterProgram is the k-bit Datalog¬¬ counter of Theorem 4.8 (the
// text of programs/counter4.dl at k bits): 2^k stages, one increment
// each.
func counterProgram(k int) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		var guard []string
		for j := 0; j < i; j++ {
			guard = append(guard, fmt.Sprintf("One(b%d)", j))
		}
		g := strings.Join(append(guard, "!Done"), ", ")
		fmt.Fprintf(&b, "!One(b%d) :- %s, One(b%d).\n", i, g, i)
		fmt.Fprintf(&b, "One(b%d) :- %s, !One(b%d).\n", i, g, i)
	}
	all := make([]string, k)
	for i := range all {
		all[i] = fmt.Sprintf("One(b%d)", i)
	}
	fmt.Fprintf(&b, "Done :- %s.\n", strings.Join(all, ", "))
	return b.String()
}

// wideProgram is the front-end stress program: the two P12 optimizer
// shapes at rule-count scale. A depth-deep chain of copy predicates
// feeds Out through a filter (inlining folds it), and dead rules that
// Out never reads hang off the side (reachability removes them). The
// dead rules are emitted in a seed-chosen order.
func wideProgram(rng *rand.Rand, depth, dead int) string {
	var rules []string
	rules = append(rules, "S1(X,Y) :- E(X,Y).")
	for i := 2; i <= depth; i++ {
		rules = append(rules, fmt.Sprintf("S%d(X,Y) :- S%d(X,Y).", i, i-1))
	}
	rules = append(rules, fmt.Sprintf("Out(X,Y) :- S%d(X,Y), Sel(X).", depth))
	deadRules := make([]string, 0, dead)
	for i := 0; i < dead; i++ {
		switch i % 4 {
		case 0:
			deadRules = append(deadRules, fmt.Sprintf("D%d(X,Y) :- E(X,Y), Sel(Y).", i))
		case 1:
			deadRules = append(deadRules, fmt.Sprintf("D%d(X,Z) :- D%d(X,Y), E(Y,Z).", i, i-1))
		case 2:
			deadRules = append(deadRules, fmt.Sprintf("D%d(X) :- D%d(X,Y), !Sel(X).", i, i-1))
		default:
			deadRules = append(deadRules, fmt.Sprintf("D%d(X,Y) :- D%d(X), E(X,Y), D%d(Y,X).", i, i-1, i-2))
		}
	}
	rng.Shuffle(len(deadRules), func(i, j int) { deadRules[i], deadRules[j] = deadRules[j], deadRules[i] })
	return strings.Join(append(rules, deadRules...), "\n") + "\n"
}
