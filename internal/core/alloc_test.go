package core

import (
	"os"
	"testing"

	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
	"unchained/programs"
)

// The delta-driven stages must not be paid for in allocations: the
// delta variants and the replans they bring are schedules of the
// compiled rules, not compilations. The bounds are what the engine
// allocated when every stage fired every rule against the whole
// instance (five compilations and four replans a run); with a variant
// or a replan compiled from the AST the first read 1 627.
func TestInflationaryAllocations(t *testing.T) {
	u := value.New()
	p := parser.MustParse(programs.Source("delayed_ct.dl"), u)
	shipped, err := os.ReadFile("../../programs/facts/chain.facts")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		in   *tuple.Instance
		max  float64
	}{
		{"a 12-node chain (the benchmark's dct-infl)", gen.Chain(u, "G", 12), 915},
		{"programs/facts/chain.facts", parser.MustParseFacts(string(shipped), u), 534},
	} {
		got := testing.AllocsPerRun(10, func() {
			if _, err := EvalInflationary(p, c.in, u, nil); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("delayed_ct.dl over %s: %.0f allocations, want <= %.0f", c.name, got, c.max)
		}
	}
}
