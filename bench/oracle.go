package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The oracles are plain Go over node indexes. They share no code with
// the program under test, so agreeing with them is evidence and not a
// tautology.

// closure returns, for each node, the nodes reachable by a path of at
// least one edge (breadth-first search from every node).
func closure(n int, es []edge) [][]int {
	adj := make([][]int, n)
	for _, e := range es {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	out := make([][]int, n)
	seen := make([]int, n) // seen[v] == src+1 marks v reached from src
	for src := 0; src < n; src++ {
		queue := append([]int(nil), adj[src]...)
		for _, v := range queue {
			seen[v] = src + 1
		}
		// adj may list a successor twice only if es does; randomEdges
		// returns distinct edges, so the first layer has no repeats.
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			out[src] = append(out[src], v)
			for _, w := range adj[v] {
				if seen[w] != src+1 {
					seen[w] = src + 1
					queue = append(queue, w)
				}
			}
		}
	}
	return out
}

// touched reports the nodes that occur in some edge: the active
// domain of an instance holding only that edge relation.
func touched(n int, es []edge) []bool {
	out := make([]bool, n)
	for _, e := range es {
		out[e[0]], out[e[1]] = true, true
	}
	return out
}

// tcFacts is the model of the TC program on es: G and its closure T.
func tcFacts(n int, es []edge, lab labels) facts {
	f := facts{}
	f.addEdges("G", es, lab)
	for src, reach := range closure(n, es) {
		for _, v := range reach {
			f.add("T", lab[src], lab[v])
		}
	}
	return f
}

// ctFacts adds to tcFacts the complement CT of the closure over the
// active domain (programs/ct.dl; Example 4.3 computes the same CT).
func ctFacts(n int, es []edge, lab labels) facts {
	f := tcFacts(n, es, lab)
	dom := touched(n, es)
	reach := closure(n, es)
	for x := 0; x < n; x++ {
		if !dom[x] {
			continue
		}
		in := make([]bool, n)
		for _, v := range reach[x] {
			in[v] = true
		}
		for y := 0; y < n; y++ {
			if dom[y] && !in[y] {
				f.add("CT", lab[x], lab[y])
			}
		}
	}
	return f
}

// winFacts is the true part of the well-founded model of the win game
// (Example 3.2) by backward induction: a state with no moves is lost,
// a state with a move to a lost state is won, a state whose moves all
// reach won states is lost; whatever is never decided is drawn.
func winFacts(n int, moves []edge, lab labels) facts {
	const (
		drawn = iota
		won
		lost
	)
	adj := make([][]int, n)
	for _, e := range moves {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	state := make([]int, n)
	for changed := true; changed; {
		changed = false
		for x := 0; x < n; x++ {
			if state[x] != drawn {
				continue
			}
			allWon, anyLost := true, false
			for _, y := range adj[x] {
				anyLost = anyLost || state[y] == lost
				allWon = allWon && state[y] == won
			}
			switch {
			case anyLost:
				state[x], changed = won, true
			case allWon:
				state[x], changed = lost, true
			}
		}
	}
	f := facts{}
	f.addEdges("Moves", moves, lab)
	for x, s := range state {
		if s == won {
			f.add("Win", lab[x])
		}
	}
	return f
}

// sgTree returns the EDB of same-generation over a binary tree in heap
// order (node i's parent is (i-1)/2) and its model: with Flat holding
// only the root, Sg(x,y) holds exactly when x and y have equal depth.
func sgTree(n int, lab labels) (edb, model facts) {
	edb = facts{}
	depth := make([]int, n)
	edb.add("Flat", lab[0], lab[0])
	for i := 1; i < n; i++ {
		p := (i - 1) / 2
		depth[i] = depth[p] + 1
		edb.add("Up", lab[i], lab[p])
		edb.add("Down", lab[p], lab[i])
	}
	model = facts{}
	for pred, ts := range edb {
		model[pred] = ts
	}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if depth[x] == depth[y] {
				model.add("Sg", lab[x], lab[y])
			}
		}
	}
	return edb, model
}

// join3 returns the EDB of the P9 selective three-way join and its
// model, by nested loops over adjacency lists:
//
//	Q(X,Z) :- A(X,Y), B(Y,Z), Sel(Z).
//	R(X)   :- A(X,Y), B(Y,Z), Sel(Z), Sel(X).
func join3(n int, a, b []edge, sel []int, lab labels) (edb, model facts) {
	edb = facts{}
	edb.addEdges("A", a, lab)
	edb.addEdges("B", b, lab)
	isSel := make([]bool, n)
	for _, s := range sel {
		isSel[s] = true
		edb.add("Sel", lab[s])
	}
	bAdj := make([][]int, n)
	for _, e := range b {
		bAdj[e[0]] = append(bAdj[e[0]], e[1])
	}
	model = facts{}
	for pred, ts := range edb {
		model[pred] = ts
	}
	q := map[edge]bool{}
	r := map[int]bool{}
	for _, e := range a {
		for _, z := range bAdj[e[1]] {
			if !isSel[z] {
				continue
			}
			if !q[edge{e[0], z}] {
				q[edge{e[0], z}] = true
				model.add("Q", lab[e[0]], lab[z])
			}
			if isSel[e[0]] && !r[e[0]] {
				r[e[0]] = true
				model.add("R", lab[e[0]])
			}
		}
	}
	return edb, model
}

// relationLines returns the lines of one relation in a Format output.
func relationLines(out, pred string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, pred+"(") {
			lines = append(lines, l)
		}
	}
	return lines
}

// canonical undoes a run's renaming: every constant name is mapped
// back through inv and the lines are sorted again. Because the seed
// only renames (see shapeSeed), the canonical form of a correct output
// is the same for every seed, and one committed digest checks them
// all. That the program's output commutes with the renaming is the
// paper's genericity property (Section 4.4).
func canonical(out string, inv map[string]string) string {
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	for i, l := range lines {
		open := strings.IndexByte(l, '(')
		if open < 0 || strings.HasPrefix(l, "%") || !strings.HasSuffix(l, ").") {
			continue
		}
		args := strings.Split(l[open+1:len(l)-2], ",")
		for j, a := range args {
			if orig, ok := inv[a]; ok {
				args[j] = orig
			}
		}
		lines[i] = l[:open+1] + strings.Join(args, ",") + ")."
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// inverse maps each label back to the name of its node index under
// the identity labelling.
func inverse(lab labels, prefix string) map[string]string {
	width := len(fmt.Sprint(len(lab) - 1))
	inv := make(map[string]string, len(lab))
	for i, name := range lab {
		inv[name] = fmt.Sprintf("%s%0*d", prefix, width, i)
	}
	return inv
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// golden checks text against the digest committed under
// bench/golden/<name>.sha256, or rewrites the file with -update-golden.
type golden struct {
	dir    string
	update bool
}

func (g golden) check(name, text string) error {
	path := filepath.Join(g.dir, name+".sha256")
	got := digest(text)
	if g.update {
		return os.WriteFile(path, []byte(got+"\n"), 0o644)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden %s: %w (run with -update-golden to create it)", name, err)
	}
	if strings.TrimSpace(string(want)) != got {
		return fmt.Errorf("golden %s: output digest %s, committed %s", name, got, strings.TrimSpace(string(want)))
	}
	return nil
}
