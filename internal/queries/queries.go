// Package queries is the canonical program library: every program the
// paper quotes, ready to parse, plus generated program families
// (ordered-database parity, binary counters) and the while/fixpoint
// counterparts used in the Figure 1 equivalence experiments.
package queries

import (
	"fmt"
	"strings"

	"unchained/internal/ast"
	"unchained/internal/fo"
	"unchained/internal/parser"
	"unchained/internal/value"
	"unchained/internal/while"
	"unchained/programs"
)

// TC computes the transitive closure of G in T (Section 3.1).
var TC = programs.Source("tc.dl")

// CT extends TC with the complement of the closure (Section 3.2,
// stratified).
var CT = programs.Source("ct.dl")

// Win is the nonstratifiable win-game program of Example 3.2.
var Win = programs.Source("win.dl")

// Closer is the program of Example 4.1. Under the inflationary
// semantics it computes Closer(x,y,x',y') iff d(x,y) < d(x',y')
// (see EXPERIMENTS.md for the < vs ≤ footnote).
var Closer = programs.Source("closer.dl")

// DelayedCT is the program of Example 4.3: the complement of the
// transitive closure in inflationary Datalog¬, using the
// delayed-firing technique (G must be nonempty).
var DelayedCT = programs.Source("delayed_ct.dl")

// GoodNodes is the program of Example 4.4: the nodes of G not
// reachable from a cycle, in inflationary Datalog¬ via the timestamp
// technique.
var GoodNodes = programs.Source("good_nodes.dl")

// FlipFlop is the non-terminating Datalog¬¬ program of Section 4.2.
var FlipFlop = programs.Source("flip_flop.dl")

// Orientation removes one edge of every 2-cycle of G: under the
// deterministic Datalog¬¬ semantics it removes both; under the
// nondeterministic semantics it computes an orientation (Section 5).
var Orientation = programs.Source("orientation.dl")

// DiffNegNeg computes Answer = P − πA(Q) in N-Datalog¬¬ (the
// deletion-based program of Section 5.2 / Example 5.4 discussion).
const DiffNegNeg = `
	Answer(X) :- P(X).
	!Answer(X), !P(X) :- Q(X,Y).
`

// DiffForall computes Answer = P − πA(Q) in N-Datalog¬∀ (Example 5.5).
var DiffForall = programs.Source("diff_forall.dl")

// DiffBottom computes Answer = P − πA(Q) in N-Datalog¬⊥ (Example 5.5).
var DiffBottom = programs.Source("diff_bottom.dl")

// Choice nondeterministically selects one element of P into Chosen
// (the witness/choice idiom of Section 5).
var Choice = programs.Source("choice.dl")

// Hamiltonian is the db-np witness of Section 2 / Theorem 5.11: the
// deterministic query "all vertices if the graph has a Hamiltonian
// circuit, empty otherwise" is poss(P) of this N-Datalog¬∀ program.
// A run guesses one outgoing edge per node (a successor function) and
// a start node; Ham is derived iff every node is chosen, every node
// is reachable from the start along chosen edges, and some chosen
// edge returns to the start — which forces the chosen edges to be a
// single cycle through all nodes.
var Hamiltonian = programs.Source("hamiltonian.dl")

// SameGeneration is the classic same-generation query (Datalog).
var SameGeneration = programs.Source("same_generation.dl")

// EvenOrdered decides evenness of the unary relation R on an ordered
// database (Theorem 4.7): it walks Succ from First to Last keeping
// the parity of |R ∩ prefix| and derives EvenAns iff |R| is even.
// Negation is applied only to the EDB relation R, so the program is
// semi-positive; it is also stratified and runs under every engine.
// The domain must be nonempty.
var EvenOrdered = programs.Source("even_ordered.dl")

// Counter returns a Datalog¬¬ program realizing a k-bit binary
// counter over constants b0..b(k-1): each stage performs one
// increment (bit i toggles when all lower bits are one), so the
// evaluation runs 2^k stages before Done stops it — the
// exponential-time witness behind Theorem 4.8's pspace bound.
func Counter(k int) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		lower := make([]string, 0, i+2)
		for j := 0; j < i; j++ {
			lower = append(lower, fmt.Sprintf("One(b%d)", j))
		}
		guard := strings.Join(append(lower, "!Done"), ", ")
		fmt.Fprintf(&b, "!One(b%d) :- %s, One(b%d).\n", i, guard, i)
		fmt.Fprintf(&b, "One(b%d) :- %s, !One(b%d).\n", i, guard, i)
	}
	all := make([]string, k)
	for i := 0; i < k; i++ {
		all[i] = fmt.Sprintf("One(b%d)", i)
	}
	fmt.Fprintf(&b, "Done :- %s.\n", strings.Join(all, ", "))
	return b.String()
}

// Must parses a canonical source against the universe; it panics on
// error (the sources above are static).
func Must(src string, u *value.Universe) *ast.Program {
	return parser.MustParse(src, u)
}

// TCFixpoint is the fixpoint (while-language) counterpart of TC:
//
//	T += G(x,y); while change do T += ∃z (T(x,z) ∧ G(z,y)).
func TCFixpoint() *while.Program {
	return &while.Program{Stmts: []while.Stmt{
		while.Assign{Rel: "T", Vars: []string{"X", "Y"}, Cumulative: true,
			F: fo.AtomF("G", fo.V("X"), fo.V("Y"))},
		while.Loop{Body: []while.Stmt{
			while.Assign{Rel: "T", Vars: []string{"X", "Y"}, Cumulative: true,
				F: fo.ExistsF([]string{"Z"},
					fo.AndF(fo.AtomF("T", fo.V("X"), fo.V("Z")), fo.AtomF("G", fo.V("Z"), fo.V("Y"))))},
		}},
	}}
}

// CTFixpoint extends TCFixpoint with the complement CT := ¬T.
func CTFixpoint() *while.Program {
	p := TCFixpoint()
	p.Stmts = append(p.Stmts, while.Assign{
		Rel: "CT", Vars: []string{"X", "Y"},
		F: fo.NotF(fo.AtomF("T", fo.V("X"), fo.V("Y"))),
	})
	return p
}

// GoodFixpoint is the fixpoint program of Example 4.4:
//
//	while change do Good += ∀y (G(y,x) → Good(y)).
func GoodFixpoint() *while.Program {
	return &while.Program{Stmts: []while.Stmt{
		while.Loop{Body: []while.Stmt{
			while.Assign{Rel: "Good", Vars: []string{"X"}, Cumulative: true,
				F: fo.ForallF([]string{"Y"},
					fo.Implies(fo.AtomF("G", fo.V("Y"), fo.V("X")), fo.AtomF("Good", fo.V("Y"))))},
		}},
	}}
}

// CascadeDelete is a Datalog¬¬ update program: firing a manager
// transitively fires everyone they manage and removes them from Emp
// (deletion cascades, the update capability of Section 4.2).
const CascadeDelete = `
	Fired(X) :- Mgr(Y,X), Fired(Y).
	!Emp(X) :- Fired(X), Emp(X).
`

// CascadeWhile is the while-language counterpart of CascadeDelete:
//
//	while change do {
//	  Fired += ∃y (Mgr(y,x) ∧ Fired(y));
//	  Emp   := Emp(x) ∧ ¬Fired(x);
//	}
func CascadeWhile() *while.Program {
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

// WinWhile is a while-language program computing the backward
// induction of the game of Example 3.2:
//
//	while change do {
//	  Lose := ∀y (Moves(x,y) → Win(y));   // includes no-move states
//	  Win  := ∃y (Moves(x,y) ∧ Lose(y));
//	}
//
// Win converges to the true facts and Lose to the false facts of the
// well-founded model of the Win program; the undetermined (drawn)
// states end up in neither.
func WinWhile() *while.Program {
	lose := while.Assign{Rel: "Lose", Vars: []string{"X"},
		F: fo.ForallF([]string{"Y"},
			fo.Implies(fo.AtomF("Moves", fo.V("X"), fo.V("Y")), fo.AtomF("Win", fo.V("Y"))))}
	win := while.Assign{Rel: "Win", Vars: []string{"X"},
		F: fo.ExistsF([]string{"Y"},
			fo.AndF(fo.AtomF("Moves", fo.V("X"), fo.V("Y")), fo.AtomF("Lose", fo.V("Y"))))}
	return &while.Program{Stmts: []while.Stmt{
		while.Loop{Body: []while.Stmt{lose, win}},
	}}
}
