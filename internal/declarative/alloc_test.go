package declarative

import (
	"testing"

	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/value"
	"unchained/programs"
)

// Going by groups must not be paid for in allocations: the grouping is
// stratify's id arrays (one slab each for the graph, its components and
// its groups), not maps keyed by predicate name, and the validation's
// index is the graph's. With the whole program alternating, ct.dl took
// 406 and win.dl 131; restarting every over-estimate, win.dl took 129
// and the P4 game 1 153.
//
// Now a kernel run keeps one context and a round's staging is one
// allocation, and a cyclic group's rounds after the first maintain its
// estimates: ct.dl reads 143, win.dl 114 and the P4 game (32 runs) 600.
// The deletion step
// reuses a pooled state, which the race detector's pool drops a quarter
// of the time: win.dl then reads 132 on a run that misses it, 118 on
// average over the hundred runs measured, and the P4 game, whose fifteen
// deletion runs miss it at random, is measured without the race detector
// only. Its bound is its count plus a tenth.
func TestWellFoundedAllocations(t *testing.T) {
	for _, c := range []struct {
		program, facts string // no facts: the P4 game
		max            float64
	}{
		{"ct.dl", "chain.facts", 143},
		{"win.dl", "game_e32.facts", 122},
		{"win.dl", "", 660},
	} {
		if c.facts == "" && raceEnabled {
			continue
		}
		u := value.New()
		p := parser.MustParse(programs.Source(c.program), u)
		in := gen.Game(u, "Moves", 500, 1000, 7)
		if c.facts != "" {
			in = parser.MustParseFacts(programs.Facts(c.facts), u)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := EvalWellFounded(p, in, u, nil); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s × %q: %.0f allocations, want <= %.0f", c.program, c.facts, got, c.max)
		}
	}
}
