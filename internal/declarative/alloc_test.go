package declarative

import (
	"os"
	"testing"

	"unchained/internal/parser"
	"unchained/internal/value"
	"unchained/programs"
)

// Going by groups must not be paid for in allocations: the grouping is
// stratify's id arrays (one slab each for the graph, its components and
// its groups), not maps keyed by predicate name, and the validation's
// index is the graph's. The bounds are the counts after the change (ct.dl
// reads 173 under -race); with the whole program alternating, ct.dl took
// 406 and win.dl 131.
func TestWellFoundedAllocations(t *testing.T) {
	for _, c := range []struct {
		program, facts string
		max            float64
	}{
		{"ct.dl", "chain.facts", 173},
		{"win.dl", "game_e32.facts", 129},
	} {
		u := value.New()
		p := parser.MustParse(programs.Source(c.program), u)
		src, err := os.ReadFile("../../programs/facts/" + c.facts)
		if err != nil {
			t.Fatal(err)
		}
		in := parser.MustParseFacts(string(src), u)
		got := testing.AllocsPerRun(10, func() {
			if _, err := EvalWellFounded(p, in, u, nil); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s × %s: %.0f allocations, want <= %.0f", c.program, c.facts, got, c.max)
		}
	}
}
