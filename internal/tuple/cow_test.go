package tuple

import (
	"fmt"
	"sync"
	"testing"

	"unchained/internal/value"
)

// buildInstance makes an instance with nRels relations of n tuples.
func buildInstance(t testing.TB, nRels, n int) (*Instance, *value.Universe) {
	t.Helper()
	u := value.New()
	in := NewInstance()
	for r := 0; r < nRels; r++ {
		name := fmt.Sprintf("R%d", r)
		for i := 0; i < n; i++ {
			in.Insert(name, tup(u.Int(int64(i)), u.Int(int64(i+1))))
		}
	}
	return in, u
}

func TestSnapshotIsolation(t *testing.T) {
	u := value.New()
	a, b, c := u.Sym("a"), u.Sym("b"), u.Sym("c")
	in := NewInstance()
	in.Insert("P", tup(a, b))
	snap := in.Snapshot()

	// Parent write must not leak into the snapshot.
	in.Insert("P", tup(b, c))
	if snap.Relation("P").Len() != 1 {
		t.Fatalf("parent insert visible in snapshot")
	}
	// Snapshot write must not leak into the parent.
	snap.Insert("P", tup(c, a))
	if in.Relation("P").Len() != 2 {
		t.Fatalf("snapshot insert visible in parent")
	}
	// Deletes too.
	snap2 := in.Snapshot()
	snap2.Delete("P", tup(a, b))
	if !in.Has("P", tup(a, b)) {
		t.Fatalf("snapshot delete visible in parent")
	}
}

func TestSnapshotChainIsolation(t *testing.T) {
	u := value.New()
	in := NewInstance()
	for i := 0; i < 10; i++ {
		in.Insert("P", tup(u.Int(int64(i))))
	}
	// Fork a chain of snapshots, mutating each differently.
	cur := in
	for d := 0; d < 5; d++ {
		next := cur.Snapshot()
		next.Insert("P", tup(u.Int(int64(100+d))))
		if next.Relation("P").Len() != cur.Relation("P").Len()+1 {
			t.Fatalf("depth %d: child len %d, parent %d", d, next.Relation("P").Len(), cur.Relation("P").Len())
		}
		cur = next
	}
	if in.Relation("P").Len() != 10 {
		t.Fatalf("root mutated: %d", in.Relation("P").Len())
	}
}

func TestSnapshotGenerations(t *testing.T) {
	u := value.New()
	in := NewInstance()
	in.Insert("P", tup(u.Sym("a")))
	r := in.Relation("P")
	g0 := r.Generation()
	snap := in.Snapshot()
	sr := snap.Relation("P")
	if sr.Generation() != g0 {
		t.Fatalf("snapshot generation %d, want parent's %d", sr.Generation(), g0)
	}
	if !sr.Shared() || !r.Shared() {
		t.Fatalf("both sides should be marked shared after snapshot")
	}
	snap.Insert("P", tup(u.Sym("b")))
	if sr.Generation() != g0+1 {
		t.Fatalf("promoted generation %d, want %d", sr.Generation(), g0+1)
	}
	if r.Generation() != g0 {
		t.Fatalf("parent generation moved to %d", r.Generation())
	}
	if sr.Shared() {
		t.Fatalf("promoted relation still marked shared")
	}
}

func TestSnapshotReusesWarmIndexes(t *testing.T) {
	u := value.New()
	r := NewRelation(2)
	for i := 0; i < 50; i++ {
		r.Insert(tup(u.Int(int64(i%7)), u.Int(int64(i))))
	}
	// Warm an index on column 0 while r owns its data.
	warm := probe(r, 1, tup(u.Int(3), value.None))
	snap := r.Snapshot()
	if indexOn(snap.data.indexes, 1) == nil {
		t.Fatalf("snapshot did not inherit the warm index")
	}
	if got := probe(snap, 1, tup(u.Int(3), value.None)); len(got) != len(warm) {
		t.Fatalf("probe via inherited index: %d tuples, want %d", len(got), len(warm))
	}
	// Indexes built while shared go into the private overlay, and a
	// later snapshot folds them into the common storage.
	_ = probe(snap, 2, tup(value.None, u.Int(9)))
	if indexOn(snap.data.indexes, 2) != nil {
		t.Fatalf("index built while shared leaked into frozen storage")
	}
	if indexOn(snap.own, 2) == nil {
		t.Fatalf("index built while shared missing from overlay")
	}
	snap2 := snap.Snapshot()
	if indexOn(snap2.data.indexes, 2) == nil {
		t.Fatalf("second snapshot did not fold overlay indexes")
	}
}

// TestClearAndDropIndexes: a cleared relation is empty and takes new
// tuples into its old storage, indexes included (a shared one into
// fresh storage, without touching its snapshot's); dropping indexes
// leaves probes answering the same, and keeps the indexes a snapshot
// shares.
func TestClearAndDropIndexes(t *testing.T) {
	u := value.New()
	r := NewRelation(2)
	for i := 0; i < 50; i++ {
		r.Insert(tup(u.Int(int64(i%7)), u.Int(int64(i))))
	}
	want := len(probe(r, 1, tup(u.Int(3), value.None)))
	r.DropIndexes()
	if r.data.indexes != nil || len(probe(r, 1, tup(u.Int(3), value.None))) != want {
		t.Fatalf("after DropIndexes: indexes %v, probe differs", r.data.indexes)
	}
	snap := r.Snapshot()
	r.DropIndexes()
	if indexOn(snap.data.indexes, 1) == nil || len(probe(snap, 1, tup(u.Int(3), value.None))) != want {
		t.Fatalf("DropIndexes on a shared relation took its snapshot's index")
	}
	r.Clear()
	if r.Len() != 0 || r.Contains(tup(u.Int(3), u.Int(3))) || snap.Len() != 50 {
		t.Fatalf("after Clear: %d tuples, snapshot %d", r.Len(), snap.Len())
	}
	for i := 0; i < 3; i++ {
		r.Insert(tup(u.Int(9), u.Int(int64(i))))
	}
	_ = probe(r, 1, tup(u.Int(9), value.None)) // warm
	vals, ix := cap(r.data.vals), indexOn(r.data.indexes, 1)
	slots, blocks := len(ix.slots), cap(ix.blocks)
	r.Clear()
	r.Insert(tup(u.Int(8), u.Int(8)))
	if r.Len() != 1 || !r.Contains(tup(u.Int(8), u.Int(8))) || r.Contains(tup(u.Int(9), u.Int(0))) || cap(r.data.vals) != vals {
		t.Fatalf("Clear of an owned relation: %d tuples, storage %d → %d", r.Len(), vals, cap(r.data.vals))
	}
	// The index stays, emptied in place, and takes the rows inserted since.
	if indexOn(r.data.indexes, 1) != ix || len(ix.slots) != slots || cap(ix.blocks) != blocks || ix.keys != 1 {
		t.Fatalf("Clear of an owned relation rebuilt its index: %d slots, %d keys", len(ix.slots), ix.keys)
	}
	if len(probe(r, 1, tup(u.Int(9), value.None))) != 0 || len(probe(r, 1, tup(u.Int(8), value.None))) != 1 {
		t.Fatal("the index kept by Clear answers for the rows cleared")
	}
	o := NewRelation(2)
	o.Insert(tup(u.Int(8), u.Int(8)))
	if r.Fingerprint() != o.Fingerprint() || !r.Equal(o) {
		t.Fatalf("fingerprint not reset by Clear")
	}
}

func TestPromoteCarriesIndexesSafely(t *testing.T) {
	u := value.New()
	r := NewRelation(2)
	for i := 0; i < 30; i++ {
		r.Insert(tup(u.Int(int64(i%3)), u.Int(int64(i))))
	}
	_ = probe(r, 1, tup(u.Int(0), value.None)) // warm index
	snap := r.Snapshot()

	// Writing through the snapshot promotes it; the carried index must
	// keep answering correctly on both sides afterwards.
	snap.Insert(tup(u.Int(0), u.Int(999)))
	if got := len(probe(snap, 1, tup(u.Int(0), value.None))); got != 11 {
		t.Fatalf("promoted probe: %d, want 11", got)
	}
	if got := len(probe(r, 1, tup(u.Int(0), value.None))); got != 10 {
		t.Fatalf("parent probe after child promote: %d, want 10", got)
	}
	// And the parent's own promote must not disturb the child.
	r.Delete(tup(u.Int(0), u.Int(0)))
	if got := len(probe(snap, 1, tup(u.Int(0), value.None))); got != 11 {
		t.Fatalf("child probe after parent promote: %d, want 11", got)
	}
	if got := len(probe(r, 1, tup(u.Int(0), value.None))); got != 9 {
		t.Fatalf("parent probe after delete: %d, want 9", got)
	}
}

// TestPromoteCarriesTombstones: a relation forked with deleted rows is
// copied, tombstones and all, by the write that promotes it. Row ids
// stay what they were, so an insert that revives a row, an insert of a
// new one and a delete each land on the row they looked up, and every
// index (the shared payload's and the private overlay's) answers over
// the copy while the parent keeps its own. Deletes on the fork that take
// it past the tombstone bound re-pack the fork alone.
func TestPromoteCarriesTombstones(t *testing.T) {
	u := value.New()
	r := NewRelation(2)
	for i := 0; i < 200; i++ {
		r.Insert(tup(u.Int(int64(i%4)), u.Int(int64(i))))
	}
	_ = probe(r, 1, tup(u.Int(0), value.None)) // warm, in the payload
	for i := 0; i < 40; i++ {
		r.Delete(tup(u.Int(int64(i%4)), u.Int(int64(i))))
	}
	parentSame := func(what string) {
		t.Helper()
		if r.Len() != 160 || r.data.ndead != 40 || len(probe(r, 1, tup(u.Int(0), value.None))) != 40 {
			t.Fatalf("%s: the parent moved: %d live, %d dead", what, r.Len(), r.data.ndead)
		}
	}
	for _, write := range []struct {
		name       string
		insert     bool
		t          Tuple
		rows, dead int
	}{
		{"insert revives", true, tup(u.Int(0), u.Int(0)), 200, 39},
		{"insert new", true, tup(u.Int(0), u.Int(999)), 201, 40},
		{"delete", false, tup(u.Int(0), u.Int(100)), 200, 41},
	} {
		s := r.Snapshot()
		_ = probe(s, 2, tup(value.None, u.Int(150))) // warm, in the overlay
		if write.insert && !s.Insert(write.t) || !write.insert && !s.Delete(write.t) {
			t.Fatalf("%s: the write after the promote missed its tuple", write.name)
		}
		if s.data.n != write.rows || s.data.ndead != write.dead {
			t.Fatalf("%s: %d rows, %d dead: want %d and %d, the parent's with the write", write.name, s.data.n, s.data.ndead, write.rows, write.dead)
		}
		if indexOn(s.data.indexes, 1) == nil || indexOn(s.data.indexes, 2) == nil || s.own != nil {
			t.Fatalf("%s: the promote dropped an index", write.name)
		}
		want, zeros := NewRelation(2), 0
		for i := 40; i < 200; i++ {
			want.Insert(tup(u.Int(int64(i%4)), u.Int(int64(i))))
		}
		if write.insert {
			want.Insert(write.t)
		} else {
			want.Delete(write.t)
		}
		want.Each(func(t Tuple) bool {
			if t[0] == u.Int(0) {
				zeros++
			}
			return true
		})
		if !s.Equal(want) {
			t.Fatalf("%s: the fork does not hold the parent's facts with the write applied", write.name)
		}
		if got := len(probe(s, 1, tup(u.Int(0), value.None))); got != zeros {
			t.Fatalf("%s: probe on column 0: %d, want %d", write.name, got, zeros)
		}
		if got := len(probe(s, 2, tup(value.None, u.Int(150)))); got != 1 {
			t.Fatalf("%s: probe on column 1: %d, want 1", write.name, got)
		}
		parentSame(write.name)
	}
	// 200 rows, 40 dead: the 27th delete on the fork passes a third.
	s := r.Snapshot()
	for i := 40; i < 67; i++ {
		if s.data.n != 200 {
			t.Fatalf("re-packed after %d deletes, at %d dead of %d rows", i-40, s.data.ndead, s.data.n)
		}
		s.Delete(tup(u.Int(int64(i%4)), u.Int(int64(i))))
	}
	if s.data.n != 133 || s.data.ndead != 0 || s.Len() != 133 || len(probe(s, 1, tup(u.Int(0), value.None))) != 33 {
		t.Fatalf("past the bound: %d rows, %d dead, %d live: want a re-pack to 133", s.data.n, s.data.ndead, s.Len())
	}
	parentSame("re-pack")
}

func TestEqualFastPathSharedData(t *testing.T) {
	in, _ := buildInstance(t, 3, 100)
	snap := in.Snapshot()
	if !in.Equal(snap) || !snap.Equal(in) {
		t.Fatalf("snapshot not equal to parent")
	}
	r, sr := in.Relation("R0"), snap.Relation("R0")
	if r.data != sr.data {
		t.Fatalf("untouched snapshot should share relation storage")
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	in, u := buildInstance(t, 2, 10)
	in.SetCow(&c)
	snap := in.Snapshot()
	snap.Insert("R0", tup(u.Int(500), u.Int(501)))
	got := c.Load()
	if got.Snapshots != 1 {
		t.Fatalf("snapshots = %d, want 1", got.Snapshots)
	}
	if got.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", got.Promotions)
	}
	if got.TuplesCopied != 10 {
		t.Fatalf("tuples copied = %d, want 10", got.TuplesCopied)
	}
	// New relations created via the snapshot inherit the sink.
	snap.Insert("NEW", tup(u.Int(1), u.Int(2)))
	snap2 := snap.Snapshot()
	snap2.Insert("R1", tup(u.Int(900), u.Int(901)))
	got = c.Load()
	if got.Snapshots != 2 || got.Promotions != 2 {
		t.Fatalf("after second fork: %+v", got)
	}
	c.Reset()
	if got := c.Load(); got != (CounterStats{}) {
		t.Fatalf("reset left %+v", got)
	}
	// Nil receiver is a no-op everywhere.
	var nilC *Counters
	nilC.addSnapshot()
	nilC.addPromotion(1, 1)
	nilC.Reset()
	if nilC.Load() != (CounterStats{}) {
		t.Fatalf("nil counters not zero")
	}
}

func TestConcurrentSnapshotsAndReads(t *testing.T) {
	in, u := buildInstance(t, 4, 200)
	_ = probe(in.Relation("R0"), 1, tup(u.Int(5), value.None)) // warm one index
	// Intern every value up front: the Universe itself is not safe for
	// concurrent interning (Session.Fork clones it per goroutine).
	tags := make([]value.Value, 8)
	ints := make([]value.Value, 50)
	for g := range tags {
		tags[g] = u.Int(int64(1000 + g))
	}
	for i := range ints {
		ints[i] = u.Int(int64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			snap := in.Snapshot()
			// Each goroutine mutates only its private snapshot.
			for i := 0; i < 50; i++ {
				snap.Insert("R0", tup(tags[g], ints[i]))
			}
			if got := len(probe(snap.Relation("R0"), 1, tup(tags[g], value.None))); got != 50 {
				t.Errorf("goroutine %d: probe %d, want 50", g, got)
			}
			if snap.Relation("R1").Len() != 200 {
				t.Errorf("goroutine %d: shared relation wrong size", g)
			}
		}(g)
	}
	wg.Wait()
	if in.Relation("R0").Len() != 200 {
		t.Fatalf("parent mutated by concurrent snapshot writers")
	}
}

func TestDeepCloneIndependent(t *testing.T) {
	in, u := buildInstance(t, 2, 20)
	dc := in.DeepClone()
	dc.Insert("R0", tup(u.Int(777), u.Int(778)))
	if in.Relation("R0").Len() != 20 || dc.Relation("R0").Len() != 21 {
		t.Fatalf("deep clone not independent")
	}
	if in.Relation("R0").Shared() {
		t.Fatalf("DeepClone marked the parent shared")
	}
}

func TestFingerprintInheritedAcrossSnapshot(t *testing.T) {
	in, u := buildInstance(t, 1, 50)
	fp := in.Fingerprint()
	snap := in.Snapshot()
	if snap.Fingerprint() != fp {
		t.Fatalf("snapshot fingerprint differs")
	}
	snap.Insert("R0", tup(u.Int(999), u.Int(1000)))
	if snap.Fingerprint() == fp {
		t.Fatalf("fingerprint unchanged after snapshot write")
	}
	if in.Fingerprint() != fp {
		t.Fatalf("parent fingerprint changed by snapshot write")
	}
}
