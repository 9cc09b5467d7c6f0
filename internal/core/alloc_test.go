package core

import (
	"testing"

	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/queries"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
	"unchained/programs"
)

// The delta-driven stages must not be paid for in allocations: the
// delta variants and the replans they bring are schedules of the
// compiled rules, not compilations, and a stage's new facts are staged
// into the instance's own rows, where the next stage's delta views them.
// The bounds are the counts under the race detector plus a tenth
// (172 and 140 without it, 177 and 143 with it). When Delta scheduled
// every variant, and the planner scheduled it again, they read 208 and
// 164; with two staging sets
// kept for the run and appended from, they read 242 and 186; when every
// stage staged into a fresh set and folded it in by inserts, 479 and 216; when every stage fired every rule against the whole
// instance, 915 and 534; with a variant or a replan compiled from the
// AST the first read 1 627.
func TestInflationaryAllocations(t *testing.T) {
	u := value.New()
	p := parser.MustParse(programs.Source("delayed_ct.dl"), u)
	for _, c := range []struct {
		name string
		in   *tuple.Instance
		max  float64
	}{
		{"a 12-node chain (the benchmark's dct-infl)", gen.Chain(u, "G", 12), 195},
		{"programs/facts/chain.facts", parser.MustParseFacts(programs.Facts("chain.facts"), u), 157},
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

// A Datalog¬¬ stage allocates nothing: one matcher context and its
// scratch serve every firing of the run, the staging sets are emptied
// rather than made anew, and the stage is applied in place. What a run
// allocates beyond its setup is Brent's tortoise, a snapshot per
// doubling, and the rows its relations grow by. The 10-bit counter runs
// 768 stages more than the 8-bit one; when every stage cloned the
// instance and allocated its context and sets, they cost 49 562 more.
//
// A stats collector adds its stage list, its plans and the rule texts
// its summary lists, and nothing per enumeration: with one, the 10-bit
// counter reads 528 allocations against 443 without. When every
// enumeration allocated its probe tally, and the run formatted every
// rule's text up front, it read 22 511.
func TestNonInflationaryAllocations(t *testing.T) {
	run := func(bits int, withStats bool) float64 {
		u := value.New()
		p := parser.MustParse(queries.Counter(bits), u)
		in := tuple.NewInstance()
		in.Ensure("One", 1)
		return testing.AllocsPerRun(5, func() {
			var opt *Options
			if withStats {
				opt = &Options{Stats: stats.New()}
			}
			res, err := EvalNonInflationary(p, in, u, opt)
			if err != nil || res.Stages != 1<<bits {
				t.Fatalf("%d-bit counter: %v after %v stages", bits, err, res)
			}
		})
	}
	for _, withStats := range []bool{false, true} {
		small, large := run(8, withStats), run(10, withStats)
		if large-small > 256 {
			t.Errorf("collector %v: the 10-bit counter allocates %.0f times, the 8-bit one %.0f: %.0f more for 768 more stages, want <= 256", withStats, large, small, large-small)
		}
	}
	without, with := run(10, false), run(10, true)
	t.Logf("10-bit counter: %.0f allocations without a collector, %.0f with one", without, with)
	if with > 2*without {
		t.Errorf("the 10-bit counter allocates %.0f times with a collector, %.0f without, want at most twice as many", with, without)
	}
}
