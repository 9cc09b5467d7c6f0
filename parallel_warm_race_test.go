package unchained_test

import (
	"context"
	"testing"

	"unchained"
)

// TestParallelWarmStratifiedNegation is the regression test for the
// WarmIndexes gap: the warm pass used to skip the negation and
// overlay sources (and the planner's full-relation iterator source),
// so the first parallel stage would build those hash indexes lazily
// from racing worker goroutines. The program mixes recursion,
// negation, and a planner-reordered three-way join; with the whole
// suite run under -race, any index built off the engine goroutine
// shows up as a report here. Results must also match the sequential
// evaluation exactly.
func TestParallelWarmStratifiedNegation(t *testing.T) {
	src := `
		Reach(X) :- Start(X).
		Reach(Y) :- Reach(X), Edge(X,Y).
		Unreach(X) :- Node(X), !Reach(X).
		Cut(X,Y) :- Reach(X), Unreach(Y), !Edge(X,Y).
		Tri(X,Y,Z) :- Edge(X,Y), Edge(Y,Z), Reach(X).
	`
	facts := `
		Start(a).
		Node(a). Node(b). Node(c). Node(d). Node(e). Node(f).
		Edge(a,b). Edge(b,c). Edge(c,a). Edge(d,e). Edge(e,f).
	`
	eval := func(workers int) string {
		s := unchained.NewSession()
		p, err := s.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		in, err := s.Facts(facts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.EvalContext(context.Background(), p, in,
			unchained.SemanticsByName["inflationary"], unchained.WithParallel(unchained.Parallel{Workers: workers}))
		if err != nil {
			t.Fatal(err)
		}
		return s.Format(res.Out)
	}
	seq := eval(1)
	for i := 0; i < 4; i++ { // repeat: interleavings vary per run
		if par := eval(8); par != seq {
			t.Fatalf("parallel (8 workers) output diverges from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, seq)
		}
	}
}
