package tuple

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"unchained/internal/value"
)

// The storage model test: random operation sequences on relations
// forked from one another, each checked step by step against a naive
// reference set (a map keyed by Tuple.Key). It runs once as built and
// once with every table hash cut to three bits, so that every lookup
// walks a collision run and column comparison alone tells rows apart.

// ref is the reference implementation of a relation.
type ref map[string]Tuple

func (s ref) clone() ref {
	c := make(ref, len(s))
	for k, t := range s {
		c[k] = t
	}
	return c
}

func (s ref) matching(mask uint32, pattern Tuple) []string {
	var out []string
	for k, t := range s {
		if maskEq(t, mask, pattern) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func keysOf(ts []Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	sort.Strings(out)
	return out
}

// fork is a relation under test beside its reference.
type fork struct {
	rel *Relation
	ref ref
}

type model struct {
	t      *testing.T
	rng    *rand.Rand
	arity  int
	domain int
	forks  []*fork
}

func (m *model) randTuple() Tuple {
	t := make(Tuple, m.arity)
	for i := range t {
		t[i] = value.Value(1 + m.rng.Intn(m.domain))
	}
	return t
}

// member returns a random member of f, or a random tuple if f is empty.
func (m *model) member(f *fork) Tuple {
	if len(f.ref) == 0 {
		return m.randTuple()
	}
	n := m.rng.Intn(len(f.ref))
	for _, t := range f.ref {
		if n == 0 {
			return t
		}
		n--
	}
	panic("unreachable")
}

// mutate applies one random insert or delete to f; grow biases it.
func (m *model) mutate(f *fork, grow bool) {
	if m.rng.Intn(10) < 7 == grow {
		t := m.randTuple()
		_, had := f.ref[t.Key()]
		if got := f.rel.Insert(t); got == had {
			m.t.Fatalf("Insert(%v) = %v with the tuple present: %v", t, got, had)
		}
		f.ref[t.Key()] = t
		return
	}
	t := m.member(f)
	_, had := f.ref[t.Key()]
	if got := f.rel.Delete(t); got != had {
		m.t.Fatalf("Delete(%v) = %v, want %v", t, got, had)
	}
	delete(f.ref, t.Key())
}

func (m *model) checkProbes(f *fork) {
	pattern := m.member(f)
	if m.rng.Intn(3) == 0 {
		pattern = m.randTuple()
	}
	if got, _ := f.ref[pattern.Key()]; (got != nil) != f.rel.Contains(pattern) {
		m.t.Fatalf("Contains(%v) = %v", pattern, f.rel.Contains(pattern))
	}
	for mask := uint32(0); mask < 1<<uint(m.arity); mask++ {
		want := f.ref.matching(mask, pattern)
		for name, got := range map[string][]Tuple{"ProbeIter": probe(f.rel, mask, pattern), "ScanIter": scan(f.rel, mask, pattern)} {
			if fmt.Sprint(keysOf(got)) != fmt.Sprint(want) {
				m.t.Fatalf("%s(mask %b, %v): %d tuples, want %d", name, mask, pattern, len(got), len(want))
			}
		}
	}
	if f.rel.Len() != len(f.ref) || f.rel.Empty() != (len(f.ref) == 0) || len(f.rel.Tuples()) != len(f.ref) {
		m.t.Fatalf("Len = %d, want %d", f.rel.Len(), len(f.ref))
	}
}

// checkHeldIterator positions a cursor on f, mutates f under it (the
// first write promotes a shared f, a run of deletes re-packs it) and
// then drains it: every tuple must match the probe, have been a member
// at some moment since the cursor was positioned, and come once.
func (m *model) checkHeldIterator(f *fork) {
	mask, pattern := uint32(m.rng.Intn(1<<uint(m.arity))), m.member(f)
	var it Iterator
	if m.rng.Intn(4) == 0 {
		f.rel.ScanIter(mask, pattern, &it)
	} else {
		f.rel.ProbeIter(mask, pattern, &it)
	}
	ever := f.ref.clone()
	grow := m.rng.Intn(2) == 0
	for n := m.rng.Intn(80); n > 0; n-- {
		m.mutate(f, grow)
		for k, t := range f.ref {
			ever[k] = t
		}
	}
	seen := map[string]bool{}
	for _, t := range drain(&it) {
		k := t.Key()
		switch {
		case !maskEq(t, mask, pattern):
			m.t.Fatalf("held cursor (mask %b, %v) returned %v", mask, pattern, t)
		case ever[k] == nil:
			m.t.Fatalf("held cursor returned %v, never a member since it was positioned", t)
		case seen[k]:
			m.t.Fatalf("held cursor returned %v twice", t)
		}
		seen[k] = true
	}
}

// checkFingerprint: the fingerprint of f depends on its set alone —
// not on insertion order, a delete undone, or the fork it descends from.
func (m *model) checkFingerprint(f *fork) {
	fp := f.rel.Fingerprint()
	rebuilt := NewRelation(m.arity)
	for _, k := range f.ref.matching(0, nil) { // key order, not f's insertion order
		rebuilt.Insert(f.ref[k])
	}
	if rebuilt.Fingerprint() != fp || !rebuilt.Equal(f.rel) || !f.rel.Equal(rebuilt) {
		m.t.Fatalf("a relation rebuilt from the same %d tuples differs (fingerprint %x vs %x)", len(f.ref), rebuilt.Fingerprint(), fp)
	}
	if len(f.ref) > 0 {
		t := m.member(f)
		f.rel.Delete(t)
		if hashBits == ^uint64(0) && f.rel.Fingerprint() == fp {
			m.t.Fatalf("fingerprint unchanged by deleting %v", t)
		}
		f.rel.Insert(t)
	}
	if snap := f.rel.Snapshot(); f.rel.Fingerprint() != fp || snap.Fingerprint() != fp {
		m.t.Fatalf("fingerprint moved across delete + re-insert or snapshot")
	}
	for _, o := range m.forks {
		same := len(o.ref) == len(f.ref)
		for k := range o.ref {
			same = same && f.ref[k] != nil
		}
		if o.rel.Equal(f.rel) != same || (same && o.rel.Fingerprint() != fp) {
			m.t.Fatalf("Equal = %v between forks whose references say %v", o.rel.Equal(f.rel), same)
		}
	}
}

func (m *model) checkPartition(f *fork) {
	in := NewInstance()
	in.put("R", f.rel.Snapshot())
	n := 1 + m.rng.Intn(4)
	total := 0
	for i, part := range in.Partition(n) {
		part.Relation("R").Each(func(t Tuple) bool {
			if f.ref[t.Key()] == nil || (n > 1 && t.Shard(n) != i) {
				m.t.Fatalf("Partition(%d): %v in part %d", n, t, i)
			}
			total++
			return true
		})
	}
	if total != len(f.ref) {
		m.t.Fatalf("Partition(%d) holds %d facts, want %d", n, total, len(f.ref))
	}
}

func runModel(t *testing.T, arity, domain int, seed int64) {
	m := &model{t: t, rng: rand.New(rand.NewSource(seed)), arity: arity, domain: domain}
	m.forks = []*fork{{NewRelation(arity), ref{}}}
	grow := true
	for step := 0; step < 1500; step++ {
		if step%150 == 0 {
			grow = m.rng.Intn(3) > 0
		}
		f := m.forks[m.rng.Intn(len(m.forks))]
		switch op := m.rng.Intn(100); {
		case op < 60:
			m.mutate(f, grow)
		case op < 80:
			m.checkProbes(f)
		case op < 85: // fork; a write to either side then promotes it
			c := &fork{f.rel.Snapshot(), f.ref.clone()}
			if m.rng.Intn(2) == 0 {
				c.rel = f.rel.DeepClone()
			}
			if len(m.forks) < 5 {
				m.forks = append(m.forks, c)
			} else {
				m.forks[m.rng.Intn(len(m.forks))] = c
			}
		case op < 90:
			m.checkHeldIterator(f)
		case op < 95:
			m.checkFingerprint(f)
		default:
			m.checkPartition(f)
		}
	}
	for _, f := range m.forks {
		m.checkProbes(f)
	}
}

func TestStorageModel(t *testing.T) {
	for _, hash := range []struct {
		name string
		bits uint64
	}{{"hash64", ^uint64(0)}, {"hash3", 7 << 61}} {
		t.Run(hash.name, func(t *testing.T) {
			defer func(old uint64) { hashBits = old }(hashBits)
			hashBits = hash.bits
			// Domains sized so that every arity sees a few dozen to a few
			// hundred distinct tuples: enough deletes to re-pack, enough
			// repeats to hit duplicates and revived rows.
			for arity, domain := range map[int]int{0: 1, 1: 120, 2: 10, 3: 5, 5: 3} {
				for seed := int64(1); seed <= 3; seed++ {
					runModel(t, arity, domain, seed)
				}
			}
		})
	}
}

// TestReadBesideSnapshot has two goroutines snapshot and probe one
// warmed relation, which the storage contract allows without locks;
// the race detector checks that it holds.
func TestReadBesideSnapshot(t *testing.T) {
	r := NewRelation(2)
	for i := 1; i <= 40; i++ {
		for j := 1; j <= 5; j++ {
			r.Insert(Tuple{value.Value(i), value.Value(j)})
		}
	}
	r.Delete(Tuple{3, 3})
	r.BuildIndex(1)
	r.BuildIndex(2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 40; i++ {
				snap := r.Snapshot()
				for _, rel := range []*Relation{r, snap} {
					if n := len(probe(rel, 1, Tuple{value.Value(i), 0})); n != 5 && !(i == 3 && n == 4) {
						t.Errorf("goroutine %d: %d tuples under %d", g, n, i)
					}
					if n := len(probe(rel, 2, Tuple{0, 2})); n != 40 {
						t.Errorf("goroutine %d: %d tuples on column 1", g, n)
					}
					if !rel.Contains(Tuple{value.Value(i), 1}) || rel.Contains(Tuple{3, 3}) || len(scan(rel, 0, nil)) != 199 {
						t.Errorf("goroutine %d: membership wrong beside snapshots", g)
					}
				}
				// Writes go to the private fork only.
				snap.Insert(Tuple{value.Value(100 + g), value.Value(i)})
				snap.Delete(Tuple{value.Value(i), 1})
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 199 {
		t.Fatalf("the shared relation changed: %d tuples", r.Len())
	}
}

// TestTombstoneBound runs delete and revive sequences across the one
// tombstone bound (overDead), on a relation of its own and on one whose
// snapshot is held throughout, so that its first write promotes it and
// the re-packs happen on its private copy. After every operation the
// relation holds what the map model holds and its deleted rows are
// within the bound; the held snapshot keeps what it held when taken.
func TestTombstoneBound(t *testing.T) {
	for _, held := range []bool{false, true} {
		rng := rand.New(rand.NewSource(1))
		r, model := NewRelation(2), ref{}
		var all []Tuple
		for i := 0; i < 300; i++ {
			tp := Tuple{value.Value(1 + i/20), value.Value(1 + i%20)}
			r.Insert(tp)
			model[tp.Key()], all = tp, append(all, tp)
		}
		r.BuildIndex(1)
		var snap *Relation
		if held {
			snap = r.Snapshot()
		}
		repacks := 0
		for phase := 0; phase < 40; phase++ {
			del := phase%2 == 0
			for k := 1 + rng.Intn(150); k > 0; k-- {
				tp := all[rng.Intn(len(all))]
				_, had := model[tp.Key()]
				n := r.data.n
				if del {
					if r.Delete(tp) != had {
						t.Fatalf("held %v: Delete(%v) = %v", held, tp, !had)
					}
					delete(model, tp.Key())
				} else {
					if r.Insert(tp) == had {
						t.Fatalf("held %v: Insert(%v) = %v", held, tp, had)
					}
					model[tp.Key()] = tp
				}
				if r.data.n < n {
					repacks++
				}
				if r.Len() != len(model) || r.data.overDead() {
					t.Fatalf("held %v: %d live of %d rows, %d dead, want %d live within the bound", held, r.Len(), r.data.n, r.data.ndead, len(model))
				}
			}
			if got := keysOf(r.Tuples()); fmt.Sprint(got) != fmt.Sprint(model.matching(0, nil)) {
				t.Fatalf("held %v, phase %d: the relation does not hold the model's tuples", held, phase)
			}
			for c := 1; c <= 15; c++ {
				pattern := Tuple{value.Value(c), 0}
				if got := probe(r, 1, pattern); fmt.Sprint(keysOf(got)) != fmt.Sprint(model.matching(1, pattern)) {
					t.Fatalf("held %v, phase %d: probe on %d: %d tuples", held, phase, c, len(got))
				}
			}
			if held && (snap.Len() != 300 || snap.data.ndead != 0 || !snap.Contains(all[0]) || len(probe(snap, 1, Tuple{1, 0})) != 20) {
				t.Fatalf("phase %d: the held snapshot moved: %d live, %d dead", phase, snap.Len(), snap.data.ndead)
			}
		}
		if repacks == 0 {
			t.Errorf("held %v: no sequence crossed the bound", held)
		}
	}
}

// TestAbsorbMatchesInserts holds Absorb to the Insert loop it stands in
// for. A target grows round by round as a fixpoint's instance does: each
// round it absorbs a set of tuples it lacks, which is then cleared and
// refilled as a staging set is (and probed, as a delta is, so that
// Clear keeps an index to refill). After every round the target must
// answer Len, Contains, Fingerprint, Equal and every index probe as a
// relation built by inserts does, and store no row twice. It runs with
// the target's indexes cold and warm, and with a snapshot of the target
// held across every round, so that each Absorb promotes first and the
// snapshot keeps what it held; and, as TestStorageModel does, with
// every table hash cut to three bits.
func TestAbsorbMatchesInserts(t *testing.T) {
	for _, hash := range []struct {
		name string
		bits uint64
	}{{"hash64", ^uint64(0)}, {"hash3", 7 << 61}} {
		t.Run(hash.name, func(t *testing.T) {
			defer func(old uint64) { hashBits = old }(hashBits)
			hashBits = hash.bits
			for arity, domain := range map[int]int{0: 1, 1: 200, 2: 14, 3: 6} {
				for _, mode := range []string{"cold", "warm", "held"} {
					for seed := int64(1); seed <= 3; seed++ {
						absorbRounds(t, arity, domain, mode, seed)
					}
				}
			}
		})
	}
}

func absorbRounds(t *testing.T, arity, domain int, mode string, seed int64) {
	m := &model{t: t, rng: rand.New(rand.NewSource(seed)), arity: arity, domain: domain}
	target, staged := &fork{NewRelation(arity), ref{}}, &fork{NewRelation(arity), ref{}}
	want := NewRelation(arity)
	for round := 0; round < 12; round++ {
		staged.rel.Clear()
		staged.ref = ref{}
		for k := m.rng.Intn(40); k > 0; k-- {
			if tp := m.randTuple(); target.ref[tp.Key()] == nil {
				staged.rel.Insert(tp)
				staged.ref[tp.Key()] = tp
			}
		}
		m.checkProbes(staged)
		if mode == "warm" {
			for mask := uint32(1); mask < 1<<uint(arity); mask++ {
				target.rel.BuildIndex(mask)
			}
		}
		var snap *Relation
		before := target.ref.clone()
		if mode == "held" {
			snap = target.rel.Snapshot()
		}
		gen := target.rel.Generation()
		if n := target.rel.Absorb(staged.rel); n != len(staged.ref) {
			t.Fatalf("%s arity %d seed %d round %d: Absorb = %d, want %d", mode, arity, seed, round, n, len(staged.ref))
		}
		for k, tp := range staged.ref {
			want.Insert(tp)
			target.ref[k] = tp
		}
		r := target.rel
		if r.Len() != want.Len() || r.data.n != want.Len() || r.Fingerprint() != want.Fingerprint() || !r.Equal(want) || !want.Equal(r) {
			t.Fatalf("%s arity %d seed %d round %d: %d live of %d rows, fingerprint %x; inserts give %d, %x", mode, arity, seed, round, r.Len(), r.data.n, r.Fingerprint(), want.Len(), want.Fingerprint())
		}
		m.checkProbes(target)
		if snap != nil {
			if snap.Len() != len(before) || len(staged.ref) > 0 && r.Generation() == gen {
				t.Fatalf("%s arity %d seed %d round %d: the held snapshot has %d tuples, want %d; promoted %v", mode, arity, seed, round, snap.Len(), len(before), r.Generation() != gen)
			}
			m.checkProbes(&fork{snap, before})
		}
	}
}

// TestAbsorbRevivesTombstones: a target that still holds a tuple's
// deleted row revives that row when it absorbs the tuple, and does not
// append a second one, which its membership table would never find
// (it finds the dead row first) and a fixpoint would derive again every
// round. A source with deleted rows gives up only its live ones.
func TestAbsorbRevivesTombstones(t *testing.T) {
	u := value.New()
	a, b, c, d := tup(u.Int(1), u.Int(2)), tup(u.Int(2), u.Int(3)), tup(u.Int(3), u.Int(4)), tup(u.Int(4), u.Int(5))
	r := NewRelation(2)
	r.Insert(a)
	r.Insert(b)
	r.BuildIndex(1)
	r.Delete(b)
	o := NewRelation(2)
	o.Insert(b)
	o.Insert(c)
	if n := r.Absorb(o); n != 2 {
		t.Fatalf("Absorb = %d, want 2", n)
	}
	want := NewRelation(2)
	for _, tp := range []Tuple{a, b, c} {
		want.Insert(tp)
	}
	if r.data.n != 3 || r.data.ndead != 0 || !r.Contains(b) || !r.Equal(want) || r.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%d rows, %d dead, contains the revived tuple %v: want 3 rows, none dead", r.data.n, r.data.ndead, r.Contains(b))
	}
	if got := probe(r, 1, b); len(got) != 1 || !got[0].Equal(b) {
		t.Fatalf("probe on the revived tuple's column: %v", got)
	}
	if !r.Delete(b) || r.Contains(b) {
		t.Fatal("the revived tuple has a second live row")
	}
	r = NewRelation(2)
	r.Insert(a)
	o.Clear()
	o.Insert(d)
	o.Insert(b)
	o.Delete(d)
	if n := r.Absorb(o); n != 1 || r.Contains(d) || !r.Contains(b) || r.Len() != 2 {
		t.Fatalf("absorbing a set with a deleted row: %d added, %d live", n, r.Len())
	}
}
