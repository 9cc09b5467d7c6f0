// P12: optimizer ablation. The static optimizer (internal/opt,
// docs/OPTIMIZER.md) rewrites a program before any engine runs; this
// experiment prices the two rewrites that move wall time rather than
// just rule counts, on shapes built to exercise them:
//
//   - chain-inline: a deep chain of single-rule copy predicates over
//     a large edge relation, read through a selective filter. At -O2
//     inlining folds the chain into its one consumer and the root
//     reachability pass removes the now-unreferenced defining rules,
//     so the engine never materializes the intermediate copies.
//   - dead-heavy: a full transitive closure sharing the program with
//     a cheap root query that never reads it. At -O2 with the root
//     declared, reachability elimination deletes the recursive rules
//     and the engine skips the closure entirely.
//
// Each shape runs unoptimized and at -O2 through the public facade
// (Session.EvalContext + WithOptimize/WithOptimizeRoots — the same
// path the CLI and daemon use), best-of-3 on each side, verifying the
// root relation is byte-identical. The ISSUE acceptance bar is a
// >=1.3x improvement on at least one shape.
package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"unchained"
	"unchained/internal/gen"
	"unchained/internal/parser"
)

// optSpeedupBar is the in-code acceptance bound: the best shape must
// improve by at least this factor at -O2.
const optSpeedupBar = 1.3

func expP12(quick bool) error {
	chainDepth := 12
	chainEdges := 100_000
	tcNodes := 220
	if quick {
		chainEdges = 40_000
		tcNodes = 150
	}

	// chain-inline: S1..Sn copy E; Out reads the last copy through a
	// selective filter.
	chain := gen.Wide(chainDepth, 0)

	// dead-heavy: the closure rules are unreachable from Out.
	deadHeavy := `
		T(X,Y) :- E(X,Y).
		T(X,Z) :- E(X,Y), T(Y,Z).
		Out(X) :- E(X,Y), Sel(Y).
	`

	type shape struct {
		name  string
		prog  string
		nodes int
		edges int
	}
	shapes := []shape{
		{"chain-inline", chain, chainEdges / 4, chainEdges},
		{"dead-heavy", deadHeavy, tcNodes, 5 * tcNodes},
	}

	fmt.Printf("%16s %12s %12s %9s\n", "shape", "-O0", "-O2", "speedup")
	bestSpeedup := 0.0
	for _, sh := range shapes {
		s := unchained.NewSession()
		p := parser.MustParse(sh.prog, s.U)
		in := gen.Random(s.U, "E", sh.nodes, sh.edges, int64(sh.edges))
		// A selective filter relation: every 16th node.
		sel := in.Ensure("Sel", 1)
		for i := 0; i < sh.nodes; i += 16 {
			sel.Insert(unchained.Tuple{s.Sym(fmt.Sprintf("n%d", i))})
		}

		eval := func(opts ...unchained.Opt) (*unchained.EvalResult, error) {
			return s.EvalContext(context.Background(), p, in, unchained.Stratified, opts...)
		}
		o2 := []unchained.Opt{unchained.WithOptimize(unchained.Opt2), unchained.WithOptimizeRoots("Out")}

		// The contract of WithOptimizeRoots is that only the roots are
		// observed, so equality is checked on the root relation.
		rootFacts := func(res *unchained.EvalResult) string {
			rel := res.Out.Relation("Out")
			if rel == nil {
				return ""
			}
			var b strings.Builder
			for _, tp := range rel.SortedTuples(s.U) {
				b.WriteString(tp.String(s.U))
				b.WriteByte('\n')
			}
			return b.String()
		}
		base, err := eval()
		if err != nil {
			return err
		}
		opt, err := eval(o2...)
		if err != nil {
			return err
		}
		if err := check(rootFacts(base) != "" && rootFacts(base) == rootFacts(opt),
			"%s: -O2 root relation differs from -O0", sh.name); err != nil {
			return err
		}

		// Best-of-3 on each side: the ratio of minima is stable under
		// CI noise.
		best := func(opts ...unchained.Opt) (time.Duration, error) {
			var min time.Duration
			for rep := 0; rep < 3; rep++ {
				var err error
				d := timed(func() { _, err = eval(opts...) })
				if err != nil {
					return 0, err
				}
				if min == 0 || d < min {
					min = d
				}
			}
			return min, nil
		}
		bare, err := best()
		if err != nil {
			return err
		}
		optimized, err := best(o2...)
		if err != nil {
			return err
		}
		speedup := float64(bare) / float64(optimized)
		if speedup > bestSpeedup {
			bestSpeedup = speedup
		}
		fmt.Printf("%16s %12v %12v %8.1fx\n", sh.name,
			bare.Round(time.Microsecond), optimized.Round(time.Microsecond), speedup)

		// The same pair amortized over many iterations.
		benchNote("opt/"+sh.name+"-O0", testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval(); err != nil {
					b.Fatal(err)
				}
			}
		}))
		benchNote("opt/"+sh.name+"-O2", testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval(o2...); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	if err := check(bestSpeedup >= optSpeedupBar,
		"best -O2 speedup %.2fx below the %.1fx bar", bestSpeedup, optSpeedupBar); err != nil {
		return err
	}
	fmt.Println("   shape: inlining only pays when the defining rules die with it (root reachability);")
	fmt.Println("   a rewrite that keeps the chain alive rewrites text, not wall time.")
	return nil
}
