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
// With the staging sets kept for a whole run (TestSemiNaiveAllocations)
// they read 110, 110 and 403.
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

// A semi-naive round allocates nothing once its sets have grown: the
// run's two staging sets take turns as a round's new facts and the
// delta it reads, and a fold appends the new facts to the instance in
// one copy. The closure of a 64-node chain takes 63 rounds; when every
// round staged into a fresh set and folded it in by inserts, it read
// 1 000 allocations (the 16-node chain 234). The bound is the count
// plus a tenth.
func TestSemiNaiveAllocations(t *testing.T) {
	for _, c := range []struct {
		nodes int
		max   float64
	}{
		{16, 99},  // 90
		{64, 115}, // 104
	} {
		u := value.New()
		p := parser.MustParse(programs.Source("tc.dl"), u)
		in := gen.Chain(u, "G", c.nodes)
		got := testing.AllocsPerRun(20, func() {
			if _, err := Eval(p, in, u, nil); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("tc.dl over a %d-node chain: %.0f allocations, want <= %.0f", c.nodes, got, c.max)
		}
	}
}
