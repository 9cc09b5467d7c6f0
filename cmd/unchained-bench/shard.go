// P10: shard-parallel semi-naive evaluation vs serial on a large-EDB
// recursive join. Transitive closure over a dense random graph is the
// showcase shape: after the serial round 0, every delta round joins
// the freshly derived T-delta against the full edge relation, so the
// work the shards split grows with the frontier and the serial fold of
// the round's new facts into the instance is a small fraction of each
// round.
package main

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"unchained/internal/declarative"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

func expP10(quick bool) error {
	const prog = `
		T(X,Y) :- E(X,Y).
		T(X,Z) :- E(X,Y), T(Y,Z).
	`
	fmt.Printf("%8s %8s %12s %8s %14s\n", "n", "shards", "time", "speedup", "facts merged")
	worst := 0.0
	for _, n := range pick(quick, []int{192}, []int{192, 384}) {
		u := value.New()
		in := gen.Random(u, "E", n, 6*n, int64(n))
		p := parser.MustParse(prog, u)
		var serialOut *tuple.Instance
		var serialDur time.Duration
		for _, shards := range []int{1, 2, 8} {
			var res *declarative.Result
			var err error
			col := stats.New()
			d := timed(func() {
				res, err = declarative.Eval(p, in, u, &declarative.Options{Shards: shards, Stats: col})
			})
			if err != nil {
				return err
			}
			merged := col.Summary().ShardFactsMerged
			if shards == 1 {
				serialOut, serialDur = res.Out, d
			} else if err := check(res.Out.Equal(serialOut),
				"shards=%d changed the answer at n=%d", shards, n); err != nil {
				return err
			}
			speedup := float64(serialDur) / float64(d)
			if shards == 8 && (worst == 0 || speedup < worst) {
				worst = speedup
			}
			fmt.Printf("%8d %8d %12v %7.1fx %14d\n", n, shards,
				d.Round(time.Millisecond), speedup, merged)
		}
	}
	// Serial and 8-shard runs amortized over many iterations.
	u := value.New()
	in := gen.Random(u, "E", 192, 6*192, 192)
	p := parser.MustParse(prog, u)
	benchNote("shard/tc-serial", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := declarative.Eval(p, in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	}))
	benchNote("shard/tc-8shards", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := declarative.Eval(p, in, u, &declarative.Options{Shards: 8}); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// The >=1.5x wall-clock bar needs hardware parallelism; on a
	// single-core box the shards serialize and only the determinism
	// checks are meaningful. Quick runs (the ones `go test` makes)
	// report the ratio and do not assert it: a wall-clock bar inside
	// the test suite fails on whatever the box happens to be doing.
	if procs := runtime.GOMAXPROCS(0); procs < 2 {
		fmt.Printf("   note: GOMAXPROCS=%d — speedup bar waived (outputs verified identical).\n", procs)
	} else if quick {
		fmt.Printf("   note: 8-shard speedup %.2fx against a 1.5x bar (GOMAXPROCS=%d) — not asserted under -quick (outputs verified identical).\n", worst, procs)
	} else if err := check(worst >= 1.5,
		"8-shard speedup %.2fx below the 1.5x acceptance bar (GOMAXPROCS=%d)", worst, procs); err != nil {
		return err
	}
	fmt.Println("   shape: delta rounds dominate TC, so hash-partitioning the frontier scales with cores;")
	fmt.Println("   workers drop known facts against their snapshot, so only new facts reach the serial fold.")
	return nil
}
