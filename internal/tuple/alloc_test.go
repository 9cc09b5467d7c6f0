package tuple

import (
	"runtime"
	"testing"

	"unchained/internal/value"
)

// Allocation pins of the storage core: what must stay malloc-free, and
// what may only allocate as storage grows.

func pairs(n int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{value.Value(1 + i%64), value.Value(1 + i/64)}
	}
	return out
}

func TestWarmReadsDoNotAllocate(t *testing.T) {
	ts := pairs(4096)
	r := NewRelation(2)
	for _, tp := range ts {
		r.Insert(tp)
	}
	r.BuildIndex(1)
	var it Iterator
	for name, fn := range map[string]func(Tuple){
		"Contains":              func(tp Tuple) { r.Contains(tp) },
		"fully-bound ProbeIter": func(tp Tuple) { r.ProbeIter(3, tp, &it); exhaust(&it) },
		"indexed ProbeIter":     func(tp Tuple) { r.ProbeIter(1, tp, &it); exhaust(&it) },
		"full ProbeIter":        func(tp Tuple) { r.ProbeIter(0, nil, &it); it.Next() },
	} {
		i := 0
		if got := testing.AllocsPerRun(200, func() { fn(ts[i%len(ts)]); i += 37 }); got != 0 {
			t.Errorf("%s allocates %.1f times per call on a warm relation", name, got)
		}
	}
}

func TestInsertAllocatesOnlyGrowth(t *testing.T) {
	ts := pairs(4096)
	got := testing.AllocsPerRun(10, func() {
		r := NewRelation(2)
		for _, tp := range ts {
			r.Insert(tp)
		}
	})
	if per := got / float64(len(ts)); per > 0.1 {
		t.Errorf("inserting %d new pairs allocates %.3f times per tuple, want <= 0.1", len(ts), per)
	}
}

// TestFormatAllocatesPerRelationNotPerFact: rendering 4 096 facts (56 234
// bytes of output) took 56 mallocs and 656 032 bytes under the
// comparison sort into a []Tuple and a doubling buffer. The counting
// sort over row ids and the presized buffer must do with no more
// mallocs and at most half the bytes.
func TestFormatAllocatesPerRelationNotPerFact(t *testing.T) {
	u := value.New()
	in := NewInstance()
	for i := 0; i < 4096; i++ {
		in.Insert("Edge", Tuple{u.Sym(string(rune('a' + i%26))), u.Int(int64(i))})
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		in.String(u)
	}
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Instance.String: %.0f bytes in %.0f mallocs", bytes, mallocs)
	if mallocs > 56 || bytes > 656_032/2 {
		t.Errorf("Instance.String allocates %.0f bytes in %.0f mallocs, want <= %d bytes in <= 56", bytes, mallocs, 656_032/2)
	}
}
