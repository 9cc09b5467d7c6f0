package tuple

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"unchained/internal/value"
)

func tup(vs ...value.Value) Tuple { return Tuple(vs) }

func TestTupleHashDeterministicAndKeyConsistent(t *testing.T) {
	u := value.New()
	a, b := u.Sym("a"), u.Sym("b")
	t1 := Tuple{a, b}
	t2 := Tuple{a, b}
	if t1.Hash() != t2.Hash() {
		t.Fatal("equal tuples must hash equally")
	}
	if (Tuple{b, a}).Hash() == t1.Hash() {
		t.Fatal("hash should depend on position (swapped tuple collided; FNV over packed layout broken)")
	}
	if (Tuple{}).Hash() != (Tuple{}).Hash() {
		t.Fatal("empty tuple hash not stable")
	}
}

// probe and scan drain ProbeIter and ScanIter into slices.
func probe(r *Relation, mask uint32, pattern Tuple) []Tuple {
	var it Iterator
	r.ProbeIter(mask, pattern, &it)
	return drain(&it)
}

func scan(r *Relation, mask uint32, pattern Tuple) []Tuple {
	var it Iterator
	r.ScanIter(mask, pattern, &it)
	return drain(&it)
}

func drain(it *Iterator) []Tuple {
	var out []Tuple
	for t, ok := it.Next(); ok; t, ok = it.Next() {
		out = append(out, t)
	}
	return out
}

func TestTupleKeyInjective(t *testing.T) {
	u := value.New()
	a, b := u.Sym("a"), u.Sym("b")
	if tup(a, b).Key() == tup(b, a).Key() {
		t.Fatalf("keys of (a,b) and (b,a) collide")
	}
	if tup(a, b).Key() != tup(a, b).Key() {
		t.Fatalf("key not deterministic")
	}
}

func TestTupleKeyProperty(t *testing.T) {
	f := func(a, b []uint16) bool {
		ta := make(Tuple, len(a))
		for i, v := range a {
			ta[i] = value.Value(v) + 1
		}
		tb := make(Tuple, len(b))
		for i, v := range b {
			tb[i] = value.Value(v) + 1
		}
		if len(ta) == len(tb) {
			return (ta.Key() == tb.Key()) == ta.Equal(tb)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelationInsertContainsDelete(t *testing.T) {
	u := value.New()
	a, b, c := u.Sym("a"), u.Sym("b"), u.Sym("c")
	r := NewRelation(2)
	if !r.Insert(tup(a, b)) {
		t.Fatalf("first insert not new")
	}
	if r.Insert(tup(a, b)) {
		t.Fatalf("duplicate insert reported new")
	}
	if !r.Contains(tup(a, b)) || r.Contains(tup(b, a)) {
		t.Fatalf("Contains wrong")
	}
	r.Insert(tup(b, c))
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if !r.Delete(tup(a, b)) || r.Delete(tup(a, b)) {
		t.Fatalf("Delete semantics wrong")
	}
	if r.Contains(tup(a, b)) {
		t.Fatalf("deleted tuple still present")
	}
}

func TestInsertArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on arity mismatch")
		}
	}()
	u := value.New()
	r := NewRelation(2)
	r.Insert(tup(u.Sym("a")))
}

func TestInsertCopiesTuple(t *testing.T) {
	u := value.New()
	a, b := u.Sym("a"), u.Sym("b")
	r := NewRelation(2)
	in := tup(a, b)
	r.Insert(in)
	in[0] = b // mutate caller's tuple
	if !r.Contains(tup(a, b)) {
		t.Fatalf("relation affected by caller mutation")
	}
}

func TestCloneIndependent(t *testing.T) {
	u := value.New()
	a, b := u.Sym("a"), u.Sym("b")
	r := NewRelation(2)
	r.Insert(tup(a, b))
	c := r.Clone()
	c.Insert(tup(b, a))
	if r.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone not independent: %d %d", r.Len(), c.Len())
	}
	if !r.Equal(r.Clone()) {
		t.Fatalf("clone not equal to original")
	}
}

func TestEqualAndFingerprint(t *testing.T) {
	u := value.New()
	vals := make([]value.Value, 10)
	for i := range vals {
		vals[i] = u.Int(int64(i))
	}
	r1 := NewRelation(2)
	r2 := NewRelation(2)
	// Insert the same tuples in different orders.
	order := rand.New(rand.NewSource(1)).Perm(9)
	for i := 0; i < 9; i++ {
		r1.Insert(tup(vals[i], vals[i+1]))
	}
	for _, i := range order {
		r2.Insert(tup(vals[i], vals[i+1]))
	}
	if !r1.Equal(r2) {
		t.Fatalf("equal relations reported unequal")
	}
	if r1.Fingerprint() != r2.Fingerprint() {
		t.Fatalf("fingerprints differ for equal relations")
	}
	r2.Delete(tup(vals[0], vals[1]))
	if r1.Equal(r2) {
		t.Fatalf("unequal relations reported equal")
	}
	if r1.Fingerprint() == r2.Fingerprint() {
		t.Fatalf("fingerprint unchanged after delete")
	}
}

func TestSortedTuplesDeterministic(t *testing.T) {
	u := value.New()
	r := NewRelation(1)
	for _, s := range []string{"pear", "apple", "fig"} {
		r.Insert(tup(u.Sym(s)))
	}
	got := r.SortedTuples(u)
	want := []string{"apple", "fig", "pear"}
	for i, w := range want {
		if u.Name(got[i][0]) != w {
			t.Fatalf("sorted[%d] = %s, want %s", i, u.Name(got[i][0]), w)
		}
	}
}

// TestSortedTuplesSparseUniverse: a small relation whose values sit at
// the far end of a large universe sorts like any other, and ranking it
// costs memory in proportion to the relation, not to the largest id.
func TestSortedTuplesSparseUniverse(t *testing.T) {
	u := value.New()
	for i := 0; i < 200_000; i++ {
		u.Int(int64(i))
	}
	r := NewRelation(2)
	for _, s := range []string{"pear", "apple", "fig"} {
		r.Insert(tup(u.Sym(s), u.Int(199_999)))
		r.Insert(tup(u.Sym(s), u.Int(7)))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := r.SortedTuples(u)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
		t.Errorf("SortedTuples of 6 tuples allocated %d bytes", grew)
	}
	want := "(apple,7) (apple,199999) (fig,7) (fig,199999) (pear,7) (pear,199999)"
	var parts []string
	for _, tp := range got {
		parts = append(parts, tp.String(u))
	}
	if s := strings.Join(parts, " "); s != want {
		t.Fatalf("sorted = %s, want %s", s, want)
	}
}

func TestProbeMatchesScan(t *testing.T) {
	u := value.New()
	rng := rand.New(rand.NewSource(7))
	vals := make([]value.Value, 8)
	for i := range vals {
		vals[i] = u.Int(int64(i))
	}
	r := NewRelation(3)
	for i := 0; i < 200; i++ {
		r.Insert(tup(vals[rng.Intn(8)], vals[rng.Intn(8)], vals[rng.Intn(8)]))
	}
	for mask := uint32(0); mask < 8; mask++ {
		pattern := tup(vals[rng.Intn(8)], vals[rng.Intn(8)], vals[rng.Intn(8)])
		got := probe(r, mask, pattern)
		want := scan(r, mask, pattern)
		if len(got) != len(want) {
			t.Fatalf("mask %b: probe %d tuples, scan %d", mask, len(got), len(want))
		}
		seen := map[string]bool{}
		for _, g := range got {
			seen[g.Key()] = true
		}
		for _, w := range want {
			if !seen[w.Key()] {
				t.Fatalf("mask %b: scan tuple %v missing from probe", mask, w)
			}
		}
	}
}

func TestProbeAfterMutation(t *testing.T) {
	u := value.New()
	a, b, c := u.Sym("a"), u.Sym("b"), u.Sym("c")
	r := NewRelation(2)
	r.Insert(tup(a, b))
	if n := len(probe(r, 1, tup(a, value.None))); n != 1 {
		t.Fatalf("probe before mutation: %d", n)
	}
	r.Insert(tup(a, c)) // must invalidate the index
	if n := len(probe(r, 1, tup(a, value.None))); n != 2 {
		t.Fatalf("probe after insert: %d, want 2 (stale index?)", n)
	}
	r.Delete(tup(a, b))
	if n := len(probe(r, 1, tup(a, value.None))); n != 1 {
		t.Fatalf("probe after delete: %d, want 1 (stale index?)", n)
	}
}

func TestUnionInPlace(t *testing.T) {
	u := value.New()
	a, b, c := u.Sym("a"), u.Sym("b"), u.Sym("c")
	r1 := NewRelation(1)
	r1.Insert(tup(a))
	r1.Insert(tup(b))
	r2 := NewRelation(1)
	r2.Insert(tup(b))
	r2.Insert(tup(c))
	if n := r1.UnionInPlace(r2); n != 1 {
		t.Fatalf("UnionInPlace added %d, want 1", n)
	}
	if r1.Len() != 3 {
		t.Fatalf("union size %d, want 3", r1.Len())
	}
}

func TestInstanceBasics(t *testing.T) {
	u := value.New()
	a, b := u.Sym("a"), u.Sym("b")
	in := NewInstance()
	if !in.Insert("G", tup(a, b)) {
		t.Fatalf("insert not new")
	}
	if !in.Has("G", tup(a, b)) || in.Has("G", tup(b, a)) || in.Has("H", tup(a)) {
		t.Fatalf("Has wrong")
	}
	if in.Facts() != 1 {
		t.Fatalf("Facts = %d", in.Facts())
	}
	sch := in.Schema()
	if sch["G"] != 2 {
		t.Fatalf("schema arity %d", sch["G"])
	}
}

func TestInstanceEqualIgnoresEmptyRelations(t *testing.T) {
	u := value.New()
	a := u.Sym("a")
	i1 := NewInstance()
	i1.Insert("P", tup(a))
	i2 := i1.Clone()
	i2.Ensure("Q", 3) // empty relation materialized on one side only
	if !i1.Equal(i2) || !i2.Equal(i1) {
		t.Fatalf("empty relation should not break equality")
	}
	if i1.Fingerprint() != i2.Fingerprint() {
		t.Fatalf("empty relation changed fingerprint")
	}
	i2.Insert("Q", tup(a, a, a))
	if i1.Equal(i2) || i2.Equal(i1) {
		t.Fatalf("instances with different facts reported equal")
	}
}

func TestInstanceCloneDeep(t *testing.T) {
	u := value.New()
	a, b := u.Sym("a"), u.Sym("b")
	i1 := NewInstance()
	i1.Insert("G", tup(a, b))
	i2 := i1.Clone()
	i2.Insert("G", tup(b, a))
	if i1.Relation("G").Len() != 1 {
		t.Fatalf("clone shares storage")
	}
}

func TestInstanceString(t *testing.T) {
	u := value.New()
	a, b := u.Sym("a"), u.Sym("b")
	in := NewInstance()
	in.Insert("G", tup(b, a))
	in.Insert("G", tup(a, b))
	in.Insert("P", tup(a))
	want := "G(a,b).\nG(b,a).\nP(a).\n"
	if got := in.String(u); got != want {
		t.Fatalf("String:\n%s\nwant:\n%s", got, want)
	}
}

func TestRestrict(t *testing.T) {
	u := value.New()
	a := u.Sym("a")
	in := NewInstance()
	in.Insert("P", tup(a))
	in.Insert("Q", tup(a))
	out := in.Restrict([]string{"P", "R"}, Schema{"P": 1, "R": 2})
	if out.Relation("P") == nil || out.Relation("P").Len() != 1 {
		t.Fatalf("P not kept")
	}
	if out.Relation("Q") != nil {
		t.Fatalf("Q not dropped")
	}
	if out.Relation("R") == nil || out.Relation("R").Arity() != 2 {
		t.Fatalf("R not materialized empty with arity 2")
	}
}

func TestFingerprintPermutationProperty(t *testing.T) {
	u := value.New()
	vals := make([]value.Value, 16)
	for i := range vals {
		vals[i] = u.Int(int64(i))
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%20) + 1
		tuples := make([]Tuple, k)
		for i := range tuples {
			tuples[i] = tup(vals[rng.Intn(16)], vals[rng.Intn(16)])
		}
		r1 := NewRelation(2)
		r2 := NewRelation(2)
		for _, t := range tuples {
			r1.Insert(t)
		}
		for _, i := range rng.Perm(k) {
			r2.Insert(tuples[i])
		}
		return r1.Fingerprint() == r2.Fingerprint() && r1.Equal(r2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelationEach(t *testing.T) {
	u := value.New()
	r := NewRelation(1)
	for _, s := range []string{"a", "b", "c"} {
		r.Insert(tup(u.Sym(s)))
	}
	n := 0
	r.Each(func(Tuple) bool { n++; return true })
	if n != 3 {
		t.Fatalf("Each visited %d", n)
	}
	n = 0
	r.Each(func(Tuple) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Each early stop visited %d", n)
	}
}

func TestSchemaCloneAndNames(t *testing.T) {
	s := Schema{"B": 2, "A": 1}
	c := s.Clone()
	c["C"] = 3
	if len(s) != 2 {
		t.Fatalf("clone not independent")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("Names = %v", names)
	}
}

func TestInstanceDeleteAndActiveDomain(t *testing.T) {
	u := value.New()
	a, b := u.Sym("a"), u.Sym("b")
	in := NewInstance()
	in.Insert("P", tup(a))
	in.Insert("Q", tup(a, b))
	if !in.Delete("P", tup(a)) || in.Delete("P", tup(a)) {
		t.Fatalf("Delete semantics wrong")
	}
	if in.Delete("Missing", tup(a)) {
		t.Fatalf("delete from missing relation succeeded")
	}
	vals := in.ActiveDomain(nil)
	if len(vals) != 2 {
		t.Fatalf("ActiveDomain = %v", vals)
	}
}

func TestRelationContainsArityMismatch(t *testing.T) {
	u := value.New()
	r := NewRelation(2)
	r.Insert(tup(u.Sym("a"), u.Sym("b")))
	if r.Contains(tup(u.Sym("a"))) {
		t.Fatalf("arity mismatch Contains returned true")
	}
}

func TestProbeFullMaskFastPath(t *testing.T) {
	u := value.New()
	a, b := u.Sym("a"), u.Sym("b")
	r := NewRelation(2)
	r.Insert(tup(a, b))
	hit := probe(r, 3, tup(a, b))
	if len(hit) != 1 || !hit[0].Equal(tup(a, b)) {
		t.Fatalf("full-mask probe wrong: %v", hit)
	}
	if got := probe(r, 3, tup(b, a)); got != nil {
		t.Fatalf("full-mask miss returned %v", got)
	}
}
