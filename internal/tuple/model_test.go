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
// reference set (a map keyed by Tuple.Key). Besides inserts, deletes
// and forks, a relation runs fixpoint rounds: it stages facts, which
// its readers must not see, and then publishes them into a view or
// drops them as a stopped round does. It runs once as built and once
// with every table hash cut to three bits, so that every lookup walks a
// collision run and column comparison alone tells rows apart;
// FuzzStorageModel draws the operations from the fuzzer's bytes.

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

// fork is a relation under test beside its reference. While a round
// is open, staged holds what it staged, in staging order (and inRound
// the same by key), and fp the fingerprint the round found; view is
// where the fork's rounds publish, and held a snapshot of it taken
// after some round, with what it held then.
type fork struct {
	rel     *Relation
	ref     ref
	staged  []Tuple
	inRound ref
	fp      uint64
	view    *Relation
	held    *fork
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

// stage stages one fact into f, opening a round if none is open: a
// member, a fact the round staged already, or a random tuple, which may
// be one whose deleted row f still holds.
func (m *model) stage(f *fork) {
	if f.inRound == nil {
		f.inRound, f.fp = ref{}, f.rel.Fingerprint()
	}
	t := m.randTuple()
	switch m.rng.Intn(4) {
	case 0:
		t = m.member(f)
	case 1:
		if len(f.staged) > 0 {
			t = f.staged[m.rng.Intn(len(f.staged))]
		}
	}
	k := t.Key()
	want := f.ref[k] == nil && f.inRound[k] == nil
	if got := f.rel.Stage(t); got != want {
		m.t.Fatalf("Stage(%v) = %v, want %v", t, got, want)
	}
	if want {
		f.staged, f.inRound[k] = append(f.staged, t), t
	}
	if f.rel.Contains(t) != (f.ref[k] != nil) || f.rel.Fingerprint() != f.fp {
		m.t.Fatalf("a staged fact shows before its round is published")
	}
}

// publish ends f's round: the staged facts join f and are the view's,
// in staging order. A snapshot held of the view keeps what it held.
func (m *model) publish(f *fork) {
	if f.view == nil {
		f.view = NewRelation(m.arity)
	}
	before := f.rel.data.n
	if n := f.rel.Publish(f.view); n != len(f.staged) {
		m.t.Fatalf("Publish = %d, want %d", n, len(f.staged))
	}
	if got, want := f.view.Tuples(), f.staged; fmt.Sprint(got) != fmt.Sprint(want) {
		m.t.Fatalf("the view holds %v, want %v in staging order", got, want)
	}
	for k, t := range f.inRound {
		f.ref[k] = t
	}
	appended := 0
	for _, t := range f.staged {
		if f.rel.data.find(t, t.Hash()) >= before {
			appended++
		}
	}
	if f.rel.data.n != before+appended {
		m.t.Fatalf("%d rows after publishing %d appended facts onto %d", f.rel.data.n, appended, before)
	}
	m.checkProbes(&fork{rel: f.view, ref: f.inRound})
	if h := f.held; h != nil {
		m.checkProbes(h)
	}
	if m.rng.Intn(3) == 0 {
		f.held = &fork{rel: f.view.Snapshot(), ref: f.inRound}
	}
	f.staged, f.inRound = nil, nil
	m.checkProbes(f)
}

// stop drops f's round as a stopped round does: f is as the round found
// it, fingerprint included, and a fact the round staged is new again.
func (m *model) stop(f *fork) {
	f.rel.Unstage()
	if f.rel.Fingerprint() != f.fp || f.rel.data.pending() {
		m.t.Fatalf("a stopped round left its mark: fingerprint %x, want %x", f.rel.Fingerprint(), f.fp)
	}
	again := f.staged
	f.staged, f.inRound = nil, nil
	m.checkProbes(f)
	if len(again) > 0 {
		t := again[m.rng.Intn(len(again))]
		if !f.rel.Stage(t) {
			m.t.Fatalf("Stage(%v) after the round that staged it was stopped = false", t)
		}
		f.rel.Unstage()
	}
}

func runModel(t *testing.T, arity, domain int, seed int64) {
	m := &model{t: t, rng: rand.New(rand.NewSource(seed)), arity: arity, domain: domain}
	m.run(1500)
}

// run applies steps random operations and then checks every fork.
func (m *model) run(steps int) {
	arity := m.arity
	m.forks = []*fork{{rel: NewRelation(arity), ref: ref{}}}
	grow := true
	for step := 0; step < steps; step++ {
		if step%150 == 0 {
			grow = m.rng.Intn(3) > 0
		}
		f := m.forks[m.rng.Intn(len(m.forks))]
		if f.inRound != nil { // a round is open: only reads and staging
			switch op := m.rng.Intn(100); {
			case op < 60:
				m.stage(f)
			case op < 75:
				m.checkProbes(f)
			case op < 92:
				m.publish(f)
			default:
				m.stop(f)
			}
			continue
		}
		switch op := m.rng.Intn(100); {
		case op < 50:
			m.mutate(f, grow)
		case op < 60:
			m.stage(f)
		case op < 75:
			m.checkProbes(f)
		case op < 80: // fork; a write to either side then promotes it
			c := &fork{rel: f.rel.Snapshot(), ref: f.ref.clone()}
			if m.rng.Intn(2) == 0 {
				c.rel = f.rel.DeepClone()
			}
			if len(m.forks) < 5 {
				m.forks = append(m.forks, c)
			} else {
				m.forks[m.rng.Intn(len(m.forks))] = c
			}
		case op < 88:
			m.checkHeldIterator(f)
		default:
			m.checkFingerprint(f)
		}
	}
	for _, f := range m.forks {
		if f.inRound != nil {
			m.publish(f)
		}
		m.checkProbes(f)
	}
}

// hashes are the two hash widths the model runs under.
var hashes = []struct {
	name string
	bits uint64
}{{"hash64", ^uint64(0)}, {"hash3", 7 << 61}}

func TestStorageModel(t *testing.T) {
	for _, hash := range hashes {
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

// FuzzStorageModel is the storage model with its choices read from the
// fuzzer's bytes: every operation the model makes, rounds included, at
// an arity, domain and hash width the input picks, one step per four
// bytes.
func FuzzStorageModel(f *testing.F) {
	f.Add([]byte("\x02\x0a\x00staged rows stay invisible until published"))
	f.Add([]byte("\x03\x05\x01\x00\x00\x00\x01\x02\x03\x04\x05\x06\x07\x08"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		defer func(old uint64) { hashBits = old }(hashBits)
		hashBits = hashes[int(data[2])%2].bits
		src := &byteSource{data: data[3:]}
		m := &model{t: t, rng: rand.New(src), arity: int(data[0]) % 4, domain: 1 + int(data[1])%16}
		m.run(min(len(src.data)/4, 1000))
	})
}

// byteSource is a rand.Source that reads its numbers off data, and zeros
// once data runs out.
type byteSource struct {
	data []byte
	i    int
}

func (s *byteSource) Int63() int64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v <<= 8
		if s.i < len(s.data) {
			v |= uint64(s.data[s.i])
			s.i++
		}
	}
	return int64(v >> 1)
}

func (s *byteSource) Seed(int64) {}

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

// TestStageMatchesInserts holds fixpoint rounds of Stage and Publish to
// the Insert loop they stand in for. A target grows round by round as a
// fixpoint's instance does: each round stages random tuples, some it
// holds, some staged twice and some whose deleted row it keeps, and
// publishes them into a view that the round's probes read, as a delta
// is read. While the round is open the target answers as it did before
// it; after, it must answer Len, Contains, Fingerprint, Equal and every
// index probe as a relation built by inserts does, and store no row
// twice, and the view must hold exactly the round's new facts. It runs
// with the target's indexes cold and warm, with a snapshot of the
// target held across every round, so that each round promotes first
// and the snapshot keeps what it held, and with deletes between rounds;
// and, as TestStorageModel does, with every table hash cut to three
// bits.
func TestStageMatchesInserts(t *testing.T) {
	for _, hash := range hashes {
		t.Run(hash.name, func(t *testing.T) {
			defer func(old uint64) { hashBits = old }(hashBits)
			hashBits = hash.bits
			for arity, domain := range map[int]int{0: 1, 1: 200, 2: 14, 3: 6} {
				for _, mode := range []string{"cold", "warm", "held", "deletes"} {
					for seed := int64(1); seed <= 3; seed++ {
						stageRounds(t, arity, domain, mode, seed)
					}
				}
			}
		})
	}
}

func stageRounds(t *testing.T, arity, domain int, mode string, seed int64) {
	m := &model{t: t, rng: rand.New(rand.NewSource(seed)), arity: arity, domain: domain}
	target, view := &fork{rel: NewRelation(arity), ref: ref{}}, NewRelation(arity)
	for round := 0; round < 12; round++ {
		if mode == "deletes" && len(target.ref) > 0 {
			for k := m.rng.Intn(1 + len(target.ref)/2); k > 0; k-- {
				tp := m.member(target)
				target.rel.Delete(tp)
				delete(target.ref, tp.Key())
			}
		}
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
		gen, fp, rows := target.rel.Generation(), target.rel.Fingerprint(), target.rel.data.n
		for k := m.rng.Intn(40); k > 0; k-- {
			m.stage(target)
		}
		m.checkProbes(target)
		if target.rel.Fingerprint() != fp {
			t.Fatalf("%s arity %d seed %d round %d: the fingerprint moved before Publish", mode, arity, seed, round)
		}
		staged, revived := target.inRound, 0
		for _, tp := range target.staged {
			if target.rel.data.find(tp, tp.Hash()) >= 0 {
				revived++
			}
		}
		if target.inRound == nil {
			staged = ref{}
		}
		if n := target.rel.Publish(view); n != len(staged) {
			t.Fatalf("%s arity %d seed %d round %d: Publish = %d, want %d", mode, arity, seed, round, n, len(staged))
		}
		for k, tp := range staged {
			target.ref[k] = tp
		}
		target.staged, target.inRound = nil, nil
		want := NewRelation(arity)
		for _, tp := range target.ref {
			want.Insert(tp)
		}
		r := target.rel
		if r.Len() != want.Len() || r.data.n != rows+len(staged)-revived || r.Fingerprint() != want.Fingerprint() || !r.Equal(want) || !want.Equal(r) {
			t.Fatalf("%s arity %d seed %d round %d: %d live of %d rows, fingerprint %x; inserts give %d, %x", mode, arity, seed, round, r.Len(), r.data.n, r.Fingerprint(), want.Len(), want.Fingerprint())
		}
		m.checkProbes(target)
		m.checkProbes(&fork{rel: view, ref: staged})
		if snap != nil {
			if snap.Len() != len(before) || len(staged) > 0 && r.Generation() == gen {
				t.Fatalf("%s arity %d seed %d round %d: the held snapshot has %d tuples, want %d; promoted %v", mode, arity, seed, round, snap.Len(), len(before), r.Generation() != gen)
			}
			m.checkProbes(&fork{rel: snap, ref: before})
		}
	}
}

// TestStagedFactRevivesItsRow: a relation that still holds a fact's
// deleted row revives that row when the fact is staged over it, and
// adds no second row, which its membership table would never find (it
// finds the dead row first) and a fixpoint would derive again every
// round. The revived fact is in the view, where it was staged among the
// appended ones; the round's readers see none of them.
func TestStagedFactRevivesItsRow(t *testing.T) {
	u := value.New()
	a, b, c := tup(u.Int(1), u.Int(2)), tup(u.Int(2), u.Int(3)), tup(u.Int(3), u.Int(4))
	r := NewRelation(2)
	r.Insert(a)
	r.Insert(b)
	r.BuildIndex(1)
	r.Delete(b)
	if !r.Stage(c) || !r.Stage(b) || r.Stage(b) || r.Stage(a) {
		t.Fatal("Stage reports a staged or held fact as new, or a new one as held")
	}
	if r.Contains(b) || r.Contains(c) || r.Len() != 1 || len(probe(r, 1, b)) != 0 {
		t.Fatal("a staged fact is visible before Publish")
	}
	view := NewRelation(2)
	if n := r.Publish(view); n != 2 {
		t.Fatalf("Publish = %d, want 2", n)
	}
	want := NewRelation(2)
	for _, tp := range []Tuple{a, b, c} {
		want.Insert(tp)
	}
	if r.data.n != 3 || r.data.ndead != 0 || !r.Contains(b) || !r.Equal(want) || r.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%d rows, %d dead, contains the revived fact %v: want 3 rows, none dead", r.data.n, r.data.ndead, r.Contains(b))
	}
	if got := probe(r, 1, b); len(got) != 1 || !got[0].Equal(b) {
		t.Fatalf("probe on the revived fact's column: %v", got)
	}
	if got := view.Tuples(); len(got) != 2 || !got[0].Equal(c) || !got[1].Equal(b) || !view.Contains(b) || view.Contains(a) {
		t.Fatalf("the view holds %v, want [%v %v]", got, c, b)
	}
	if !r.Delete(b) || r.Contains(b) {
		t.Fatal("the revived fact has a second live row")
	}
}
