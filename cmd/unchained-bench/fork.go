package main

import (
	"fmt"
	"testing"

	"unchained/internal/tuple"
	"unchained/internal/value"
)

// forkInstance builds a 10-relation instance with total tuples and
// one warm index per relation — the steady state a serve fork sees.
func forkInstance(total int) (*tuple.Instance, *value.Universe) {
	u := value.New()
	in := tuple.NewInstance()
	per := total / 10
	vals := make([]value.Value, per+1)
	for i := range vals {
		vals[i] = u.Int(int64(i))
	}
	for r := 0; r < 10; r++ {
		name := fmt.Sprintf("R%d", r)
		for i := 0; i < per; i++ {
			in.Insert(name, tuple.Tuple{vals[i], vals[(i+1)%per]})
		}
		in.Relation(name).BuildIndex(1)
	}
	return in, u
}

// benchNote prints one testing.Benchmark result's ns/op next to the
// experiment's console output and returns it.
func benchNote(name string, r testing.BenchmarkResult) int64 {
	ns := r.NsPerOp()
	fmt.Printf("   bench %-28s %12d ns/op  (%d iters)\n", name, ns, r.N)
	return ns
}

// expP8 measures the copy-on-write fork path: Instance.Snapshot and
// Universe.Clone against the eager DeepClone they replaced, plus the
// promote cost a fork pays on its first write. The ISSUE acceptance
// bar is a >=10x snapshot-vs-deep-clone gap on >=100k tuples.
func expP8(quick bool) error {
	total := 100_000 // the acceptance bar is fixed; -quick does not shrink it
	in, u := forkInstance(total)
	x, y := u.Int(1_000_001), u.Int(1_000_002)

	snap := benchNote("fork/cow-snapshot", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = in.Snapshot()
		}
	}))
	deep := benchNote("fork/deep-clone", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = in.DeepClone()
		}
	}))
	benchNote("fork/snapshot-then-write", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := in.Snapshot()
			s.Insert("R0", tuple.Tuple{x, y}) // promotes R0 only
		}
	}))
	benchNote("fork/universe-clone", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = u.Clone()
		}
	}))

	if snap <= 0 {
		snap = 1
	}
	speedup := float64(deep) / float64(snap)
	fmt.Printf("   snapshot speedup over deep clone: %.0fx on %d tuples\n", speedup, total)
	if err := check(speedup >= 10, "COW snapshot only %.1fx faster than deep clone (want >=10x)", speedup); err != nil {
		return err
	}

	// The fork must still be a value-faithful copy.
	f := in.Snapshot()
	f.Insert("R0", tuple.Tuple{x, y})
	if err := check(in.Relation("R0").Len() == total/10, "fork write leaked into parent"); err != nil {
		return err
	}
	return check(f.Relation("R0").Len() == total/10+1, "fork write lost")
}
