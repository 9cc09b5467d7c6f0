// Package stratify computes the predicate dependency graph of a
// Datalog¬ program and a stratification when one exists (Section
// 3.2). A program is stratifiable iff no cycle of the dependency
// graph contains a negative edge ("no recursion through negation").
package stratify

import (
	"fmt"
	"sort"

	"unchained/internal/ast"
)

// Edge is a dependency: the head predicate depends on a body
// predicate, positively or negatively. Rule and Pos identify the
// first occurrence that introduced the dependency (the witness shown
// in diagnostics); Pos is the zero value for hand-built programs.
type Edge struct {
	From, To string // From = head pred, To = body pred
	Negative bool
	Rule     int     // index into Program.Rules of the first witness
	Pos      ast.Pos // position of the witness body literal
}

// Graph is the predicate dependency graph of a program. Internally
// predicates are their ast.Index ids and adjacency is one flat array,
// so the graph algorithms run on slices, not string-keyed maps.
type Graph struct {
	Preds []string // sorted
	Edges []Edge

	ix    *ast.Index
	nodes []int32    // predicate ids of Preds, in that order
	ends  [][2]int32 // per edge: the From and To predicate ids
	adjAt []int32    // predicate id -> its first slot in adj; one past the last id closes the array
	adj   []int32    // outgoing edge indexes, grouped by From in edge order

	comp, members, cuts []int32 // what components returns, once computed
}

// BuildGraph constructs the dependency graph of p.
func BuildGraph(p *ast.Program) *Graph { return NewGraph(ast.NewIndex(p)) }

// NewGraph constructs the dependency graph from a program's index.
// ∀-literals contribute their inner literals' polarities (a negative
// literal under ∀ is a negative dependency). Edges are deduplicated on
// the dependency itself, so the first witness occurrence wins.
func NewGraph(ix *ast.Index) *Graph {
	n := len(ix.Preds)
	m := 2 * len(ix.Rules) // about two body atoms a rule
	g := &Graph{ix: ix, adjAt: make([]int32, n+1), Edges: make([]Edge, 0, m), ends: make([][2]int32, 0, m)}
	in := make([]bool, n)
	seen := make(map[uint64]struct{}, m)
	for ri := range ix.Rules {
		body := ix.Body(ri)
		for _, h := range ix.Heads(ri) {
			in[h.Pred] = true
			for _, b := range body {
				in[b.Pred] = true
				k := uint64(h.Pred)<<33 | uint64(b.Pred)<<1
				if b.Lit.Neg {
					k |= 1
				}
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				g.Edges = append(g.Edges, Edge{
					From: ix.Preds[h.Pred].Name, To: ix.Preds[b.Pred].Name,
					Negative: b.Lit.Neg, Rule: ri, Pos: b.Lit.SrcPos,
				})
				g.ends = append(g.ends, [2]int32{h.Pred, b.Pred})
				g.adjAt[h.Pred+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		g.adjAt[v+1] += g.adjAt[v]
		if in[v] {
			g.nodes = append(g.nodes, int32(v))
		}
	}
	g.adj = make([]int32, len(g.Edges))
	next := append([]int32(nil), g.adjAt[:n]...)
	for ei, e := range g.ends {
		g.adj[next[e[0]]] = int32(ei)
		next[e[0]]++
	}
	sort.Slice(g.nodes, func(i, j int) bool { return ix.Preds[g.nodes[i]].Name < ix.Preds[g.nodes[j]].Name })
	g.Preds = make([]string, len(g.nodes))
	for i, v := range g.nodes {
		g.Preds[i] = ix.Preds[v].Name
	}
	return g
}

// out returns the indexes of the edges leaving predicate v.
func (g *Graph) out(v int32) []int32 { return g.adj[g.adjAt[v]:g.adjAt[v+1]] }

// components runs Tarjan's algorithm: comp numbers every predicate's
// strongly connected component, components in a reverse-topological
// order (callees before callers); members lists the predicates
// component by component, component c being
// members[cuts[c]:cuts[c+1]]. The graph never changes, so the first
// call's answer is kept. Recursion is fine: its depth is the longest
// dependency chain.
func (g *Graph) components() (comp, members, cuts []int32) {
	if g.cuts != nil {
		return g.comp, g.members, g.cuts
	}
	n := len(g.ix.Preds)
	index, low := make([]int32, n), make([]int32, n)
	comp = make([]int32, n)
	onStack := make([]bool, n)
	var stack []int32
	cuts = []int32{0}
	counter := int32(0)

	var strongconnect func(v int32)
	strongconnect = func(v int32) {
		counter++
		index[v], low[v] = counter, counter
		stack = append(stack, v)
		onStack[v] = true
		for _, ei := range g.out(v) {
			w := g.ends[ei][1]
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = int32(len(cuts) - 1)
				members = append(members, w)
				if w == v {
					break
				}
			}
			cuts = append(cuts, int32(len(members)))
		}
	}
	for _, v := range g.nodes {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	g.comp, g.members, g.cuts = comp, members, cuts
	return comp, members, cuts
}

// SCCs returns the strongly connected components of the graph in a
// reverse-topological order (callees before callers), each component
// sorted by name.
func (g *Graph) SCCs() [][]string {
	_, members, cuts := g.components()
	names := make([]string, len(members))
	for i, v := range members {
		names[i] = g.ix.Preds[v].Name
	}
	out := make([][]string, len(cuts)-1)
	for c := range out {
		out[c] = names[cuts[c]:cuts[c+1]:cuts[c+1]]
		sort.Strings(out[c])
	}
	return out
}

// Recursive marks, by predicate id, the predicates that depend on
// themselves: through a cycle of several predicates or a self-loop.
func (g *Graph) Recursive() []bool {
	comp, _, cuts := g.components()
	rec := make([]bool, len(comp))
	for _, v := range g.nodes {
		rec[v] = cuts[comp[v]+1]-cuts[comp[v]] > 1
	}
	for _, e := range g.ends {
		if e[0] == e[1] {
			rec[e[0]] = true
		}
	}
	return rec
}

// NegativeCycle returns a witness for non-stratifiability: a cycle of
// dependency edges containing at least one negative edge, as the
// edges in order (each edge's To is the next edge's From, and the
// last edge's To closes the cycle at the first edge's From). It
// returns nil when every cycle is negation-free, i.e. the program is
// stratifiable. The witness is deterministic: the first negative
// intra-component edge in graph order, closed by a shortest path
// back.
func (g *Graph) NegativeCycle() []Edge {
	comp, _, _ := g.components()
	for i, e := range g.Edges {
		from, to := g.ends[i][0], g.ends[i][1]
		if !e.Negative || comp[from] != comp[to] {
			continue
		}
		if to == from { // self-negation, e.g. Win :- !Win
			return []Edge{e}
		}
		// BFS from to back to from inside the component.
		prev := make([]int32, len(comp)) // node -> 1 + the edge index that reached it
		queue := []int32{to}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, ei := range g.out(v) {
				w := g.ends[ei][1]
				if w == to || prev[w] != 0 || comp[w] != comp[from] {
					continue
				}
				prev[w] = ei + 1
				if w == from {
					var path []Edge
					for n := w; n != to; n = g.ends[prev[n]-1][0] {
						path = append(path, g.Edges[prev[n]-1])
					}
					// path is collected backwards; reverse it.
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return append([]Edge{e}, path...)
				}
				queue = append(queue, w)
			}
		}
	}
	return nil
}

// Stratification assigns each predicate a stratum number. Strata are
// numbered from 0; every rule's head lives in a stratum ≥ the strata
// of its positive body predicates and > the strata of its negative
// body predicates.
type Stratification struct {
	// Level maps each predicate to its stratum.
	Level map[string]int
	// Strata lists the predicates of each stratum, sorted.
	Strata [][]string
}

// Stratify computes a stratification of the program, or an error
// naming a negative cycle when the program is not stratifiable
// (e.g. the win program of Example 3.2).
func Stratify(p *ast.Program) (*Stratification, error) {
	g := BuildGraph(p)
	comp, members, cuts := g.components()
	// Reject negative intra-component edges.
	for i, e := range g.Edges {
		if e.Negative && comp[g.ends[i][0]] == comp[g.ends[i][1]] {
			return nil, fmt.Errorf("stratify: recursion through negation involving %s and %s", e.From, e.To)
		}
	}
	// Longest-path layering over the component DAG. SCCs come out of
	// Tarjan in reverse topological order (dependencies first), so a
	// single left-to-right pass suffices.
	level := make([]int, len(cuts)-1)
	maxLevel := 0
	for ci := range level {
		for _, v := range members[cuts[ci]:cuts[ci+1]] {
			for _, ei := range g.out(v) {
				dep := comp[g.ends[ei][1]]
				if int(dep) == ci {
					continue
				}
				need := level[dep]
				if g.Edges[ei].Negative {
					need++
				}
				if need > level[ci] {
					level[ci] = need
				}
			}
		}
		if level[ci] > maxLevel {
			maxLevel = level[ci]
		}
	}
	s := &Stratification{Level: make(map[string]int, len(g.Preds)), Strata: make([][]string, maxLevel+1)}
	for i, v := range g.nodes { // in name order, so each stratum comes out sorted
		l := level[comp[v]]
		s.Level[g.Preds[i]] = l
		s.Strata[l] = append(s.Strata[l], g.Preds[i])
	}
	return s, nil
}

// RuleStratum returns the stratum a rule belongs to: the stratum of
// its (single) head predicate.
func (s *Stratification) RuleStratum(r ast.Rule) int {
	for _, h := range r.Head {
		if h.Kind == ast.LitAtom {
			return s.Level[h.Atom.Pred]
		}
	}
	return 0
}
