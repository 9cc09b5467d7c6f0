// Package stratify computes the predicate dependency graph of a
// Datalog¬ program and the groups its rules are evaluated in, bottom-up
// (Section 3.2). A program is stratifiable iff no cycle of the
// dependency graph contains a negative edge ("no recursion through
// negation"); then the groups are its strata. Otherwise each component
// that recurses through negation is a group of its own, the unit the
// well-founded engine alternates over (Section 3.3).
package stratify

import (
	"fmt"
	"slices"
	"sort"
	"strings"

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
	// One slab: adjAt, the occurs-in-a-rule flags, the adj cursors, and
	// room for nodes.
	slab := make([]int32, 4*n+1)
	in, next := slab[n+1:2*n+1:2*n+1], slab[2*n+1:3*n+1:3*n+1]
	g := &Graph{ix: ix, adjAt: slab[: n+1 : n+1], nodes: slab[3*n+1 : 3*n+1], Edges: make([]Edge, 0, m), ends: make([][2]int32, 0, m)}
	seen := make(map[uint64]struct{}, m)
	for ri := range ix.Rules {
		body := ix.Body(ri)
		for _, h := range ix.Heads(ri) {
			in[h.Pred] = 1
			for _, b := range body {
				in[b.Pred] = 1
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
		if in[v] == 1 {
			g.nodes = append(g.nodes, int32(v))
		}
	}
	g.adj = make([]int32, len(g.Edges))
	copy(next, g.adjAt[:n])
	for ei, e := range g.ends {
		g.adj[next[e[0]]] = int32(ei)
		next[e[0]]++
	}
	slices.SortFunc(g.nodes, func(a, b int32) int { return strings.Compare(ix.Preds[a].Name, ix.Preds[b].Name) })
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
	// One slab: index, low, comp, the on-stack flags, and room for the
	// stack, members and cuts, none of which outgrows n (+1) entries.
	slab := make([]int32, 7*n+1)
	index, low, comp, onStack := slab[:n:n], slab[n:2*n:2*n], slab[2*n:3*n:3*n], slab[3*n:4*n:4*n]
	stack, members, cuts := slab[4*n:4*n:5*n], slab[5*n:5*n:6*n], slab[6*n:6*n+1:7*n+1]
	counter := int32(0)

	var strongconnect func(v int32)
	strongconnect = func(v int32) {
		counter++
		index[v], low[v] = counter, counter
		stack = append(stack, v)
		onStack[v] = 1
		for _, ei := range g.out(v) {
			w := g.ends[ei][1]
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] == 1 && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = 0
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

// Group is one step of bottom-up evaluation: predicates whose rules run
// together once every group they read is complete. On a stratifiable
// program the groups are the strata.
type Group struct {
	// Preds lists the group's predicates, sorted.
	Preds []string
	// Rules lists, ascending, the indexes into Program.Rules of the
	// rules whose head predicate is in Preds.
	Rules []int
	// Reads lists, ascending, the earlier groups some rule of this one
	// has a body literal over.
	Reads []int
	// Cyclic marks a single component with a negative edge inside it: a
	// recursion through negation, which no stratification admits.
	Cyclic bool
}

// Groups returns the evaluation groups in order. A component is placed
// by longest-path layering over the component DAG: at or above what it
// reads positively, strictly above what it reads negatively. A
// component with a negative cycle is a group of its own, strictly above
// everything it reads and strictly below everything that reads it; a
// level's cyclic groups come first (in Tarjan order), then one group
// of the rest of the level. Without cyclic components the levels are
// exactly the strata of Section 3.2.
func (g *Graph) Groups() []Group {
	comp, members, cuts := g.components()
	nc := len(cuts) - 1
	// One slab: per component its level, group and cyclic flag; per
	// level (at most nc) two counters; per group (at most nc) a bucket
	// boundary.
	slab := make([]int32, 6*nc+3)
	level, group, cyclic := slab[:nc:nc], slab[nc:2*nc:2*nc], slab[2*nc:3*nc:3*nc]
	for i, e := range g.ends {
		if g.Edges[i].Negative && comp[e[0]] == comp[e[1]] {
			cyclic[comp[e[0]]] = 1
		}
	}
	// SCCs come out of Tarjan in reverse topological order (dependencies
	// first), so a single left-to-right pass suffices.
	top := int32(0)
	for c := range level {
		for _, v := range members[cuts[c]:cuts[c+1]] {
			for _, ei := range g.out(v) {
				d := comp[g.ends[ei][1]]
				if int(d) == c {
					continue
				}
				need := level[d]
				if cyclic[c] == 1 || cyclic[d] == 1 || g.Edges[ei].Negative {
					need++
				}
				level[c] = max(level[c], need)
			}
		}
		top = max(top, level[c])
	}
	// Per level: the next cyclic group, and the index of the level's
	// first group (its cyclic groups, then one group of the rest).
	cyc, first := slab[3*nc:3*nc+int(top)+1], slab[4*nc:4*nc+int(top)+2]
	for c, l := range level {
		if cyclic[c] == 1 {
			cyc[l]++
		} else {
			first[l+1] = 1 // the level has non-cyclic components
		}
	}
	for l := range cyc {
		first[l+1] += first[l] + cyc[l]
		cyc[l] = first[l]
	}
	for c, l := range level {
		if cyclic[c] == 1 {
			group[c] = cyc[l]
			cyc[l]++
		} else {
			group[c] = first[l+1] - 1
		}
	}

	ng := int(first[top+1])
	groups := make([]Group, ng)
	at := slab[5*nc+1 : 5*nc+ng+2] // bucket boundaries, later a per-group stamp
	for c := range group {
		groups[group[c]].Cyclic = cyclic[c] == 1
	}
	// Bucket the predicates (already in name order) and the rules (in
	// program order) by group.
	for _, v := range g.nodes {
		at[group[comp[v]]+1]++
	}
	for i := 1; i <= ng; i++ {
		at[i] += at[i-1]
	}
	preds := make([]string, len(g.nodes))
	for i, v := range g.nodes {
		gi := group[comp[v]]
		preds[at[gi]] = g.Preds[i]
		at[gi]++
	}
	lo := 0
	for gi := range groups {
		groups[gi].Preds = preds[lo:at[gi]:at[gi]]
		lo = int(at[gi])
	}
	head := func(ri int) int32 {
		if hs := g.ix.Heads(ri); len(hs) > 0 {
			return group[comp[hs[0].Pred]]
		}
		return -1 // no atom head: nothing to derive
	}
	clear(at)
	nr := 0
	for ri := range g.ix.Rules {
		if gi := head(ri); gi >= 0 {
			at[gi+1]++
			nr++
		}
	}
	for i := 1; i <= ng; i++ {
		at[i] += at[i-1]
	}
	ints := make([]int, nr+len(g.Edges)) // the rules, then the reads
	rules := ints[:nr:nr]
	for ri := range g.ix.Rules {
		if gi := head(ri); gi >= 0 {
			rules[at[gi]] = ri
			at[gi]++
		}
	}
	lo = 0
	for gi := range groups {
		groups[gi].Rules = rules[lo:at[gi]:at[gi]]
		lo = int(at[gi])
	}
	// Reads, each group once: at[d] == gi+1 once group gi has listed d.
	clear(at)
	reads := ints[nr:nr]
	for gi := range groups {
		lo := len(reads)
		for _, ri := range groups[gi].Rules {
			for _, b := range g.ix.Body(ri) {
				if d := group[comp[b.Pred]]; int(d) != gi && at[d] != int32(gi)+1 {
					at[d] = int32(gi) + 1
					reads = append(reads, int(d))
				}
			}
		}
		groups[gi].Reads = reads[lo:len(reads):len(reads)]
		sort.Ints(groups[gi].Reads)
	}
	return groups
}

// Stratify returns the strata of the program, or an error naming a
// negative edge inside a component when the program is not
// stratifiable (e.g. the win program of Example 3.2).
func Stratify(p *ast.Program) ([]Group, error) { return BuildGraph(p).Strata() }

// Strata is Groups refusing a cyclic group: the strata, or the error
// Stratify returns.
func (g *Graph) Strata() ([]Group, error) {
	groups := g.Groups()
	for _, gr := range groups {
		if gr.Cyclic {
			e := g.NegativeCycle()[0]
			return nil, fmt.Errorf("stratify: recursion through negation involving %s and %s", e.From, e.To)
		}
	}
	return groups, nil
}
