// Wingame reproduces Example 3.2: the two-player game whose winning
// positions are the well-founded model of the single nonstratifiable
// rule
//
//	Win(X) :- Moves(X,Y), !Win(Y).
//
// On the paper's instance K the model is 3-valued: d and f are
// winning, e and g are losing, and the cycle a, b, c is drawn
// (unknown) — a player can force the game to go on forever.
package main

import (
	"context"
	"fmt"
	"log"

	"unchained"
	"unchained/internal/declarative"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/queries"
)

func main() {
	s := unchained.NewSession()
	prog := s.MustParse(queries.Win)

	// The paper's instance K(moves).
	edb := s.MustFacts(`
		Moves(b,c). Moves(c,a). Moves(a,b). Moves(a,d).
		Moves(d,e). Moves(d,f). Moves(f,g).
	`)
	wfs, err := s.EvalWellFounded3Context(context.Background(), prog, edb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Example 3.2, instance K:")
	for _, st := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		tv := wfs.Truth("Win", unchained.Tuple{s.Sym(st)})
		fmt.Printf("  win(%s) = %v\n", st, tv)
	}
	fmt.Printf("  model total? %v (the a-b-c cycle is drawn)\n\n", wfs.Total())

	// The same query on a random game graph, summarized.
	u := s.U
	game := gen.Game(u, "Moves", 32, 64, 2021)
	wfs2, err := declarative.EvalWellFounded(parser.MustParse(queries.Win, u), game, u, nil)
	if err != nil {
		log.Fatal(err)
	}
	trueN := 0
	if r := wfs2.True.Relation("Win"); r != nil {
		trueN = r.Len()
	}
	unknownN := len(wfs2.UnknownFacts("Win"))
	fmt.Printf("random game (32 states, 64 moves): %d winning, %d drawn, %d losing\n",
		trueN, unknownN, 32-trueN-unknownN)
	// Rounds counts kernel runs over groups of the dependency graph; the
	// win program is one component recursing through negation, so every
	// run is a Γ application of its alternation.
	fmt.Printf("alternating fixpoint converged in %d Γ rounds\n", wfs2.Rounds)
}
