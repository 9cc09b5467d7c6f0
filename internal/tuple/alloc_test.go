package tuple

import (
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

func TestFormatAllocatesPerRelationNotPerFact(t *testing.T) {
	u := value.New()
	in := NewInstance()
	for i := 0; i < 4096; i++ {
		in.Insert("Edge", Tuple{u.Sym(string(rune('a' + i%26))), u.Int(int64(i))})
	}
	got := testing.AllocsPerRun(10, func() { in.String(u) })
	if per := got / float64(in.Facts()); per > 0.05 {
		t.Errorf("Instance.String allocates %.3f times per fact, want <= 0.05", per)
	}
}
