package tuple

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"unchained/internal/value"
)

// referenceSorted is the comparison sort String and SortedTuples ran
// before the counting sort, kept as their oracle: r's tuples sorted by
// a closure that compares two tuples column by column under u.Compare.
func referenceSorted(u *value.Universe, r *Relation) []Tuple {
	ts := r.Tuples()
	slices.SortFunc(ts, func(a, b Tuple) int {
		for i, v := range a {
			if c := u.Compare(v, b[i]); c != 0 {
				return c
			}
		}
		return 0
	})
	return ts
}

// sameAsReference fails t unless in.String and every relation's
// SortedTuples are exactly what referenceSorted's order gives.
func sameAsReference(t *testing.T, u *value.Universe, in *Instance) {
	t.Helper()
	var want strings.Builder
	for _, n := range in.Names() {
		ref := referenceSorted(u, in.Relation(n))
		for _, tp := range ref {
			want.WriteString(n + tp.String(u) + ".\n")
		}
		if got := in.Relation(n).SortedTuples(u); !slices.EqualFunc(got, ref, Tuple.Equal) {
			t.Fatalf("%s: SortedTuples = %v, want %v", n, got, ref)
		}
	}
	if got := in.String(u); got != want.String() {
		t.Fatalf("String:\n%s\nwant:\n%s", got, want.String())
	}
}

// opEveryOther, as an operation byte's bits 1-3, deletes every other
// live tuple of the relation: repeated, it repacks a large relation and
// deletes every row of a small one.
const opEveryOther = 7

// decodeInstance builds the relations P and Q from data. The first byte
// picks their arities (head%5 and head/5%5) and, when head/25 is odd,
// interns half the value pool past a long run of unused ids so that
// ranking goes through the sparse map. Every later byte is an operation
// on P (bit 0 clear) or Q: bits 1-3 below 5 insert a tuple, 5 and 6
// delete one, opEveryOther deletes every other live tuple. An insert or
// a delete reads one byte per column, an index into a pool of symbols,
// integers and invented values interned out of their Compare order.
func decodeInstance(data []byte) (*value.Universe, *Instance) {
	u, in := value.New(), NewInstance()
	if len(data) == 0 {
		return u, in
	}
	head := data[0]
	pool := []value.Value{u.Sym("pear"), u.Int(7), u.Fresh(), u.Sym(""), u.Int(-2), u.Sym("apple")}
	if head/25%2 == 1 {
		for i := 0; i < 1<<14; i++ {
			u.Fresh()
		}
	}
	pool = append(pool, u.Int(199_999), u.Sym("fig"), u.Fresh(), u.Int(0), u.Sym("b"), u.Int(-40))
	rels := [2]*Relation{in.Ensure("P", int(head%5)), in.Ensure("Q", int(head/5%5))}
	for data = data[1:]; len(data) > 0; {
		op, r := data[0]>>1%8, rels[data[0]&1]
		data = data[1:]
		if op == opEveryOther {
			for i, tp := range r.Tuples() {
				if i%2 == 0 {
					r.Delete(tp)
				}
			}
			continue
		}
		if len(data) < r.Arity() {
			break
		}
		tp := make(Tuple, r.Arity())
		for i := range tp {
			tp[i] = pool[int(data[i])%len(pool)]
		}
		data = data[r.Arity():]
		if op < 5 {
			r.Insert(tp)
		} else {
			r.Delete(tp)
		}
	}
	return u, in
}

// repackedInput fills P (arity 2) with 100 tuples, then halves it twice:
// the second halving repacks it and leaves deleted rows after that.
func repackedInput() []byte {
	data := []byte{2}
	for i := 0; i < 100; i++ {
		data = append(data, 0, byte(i%12), byte(i/12))
	}
	return append(data, opEveryOther<<1, opEveryOther<<1, 0, 3, 3)
}

// emptiedInput deletes every row of P (arity 3) and Q (arity 0), one
// halving at a time.
func emptiedInput() []byte {
	data := []byte{3, 1}
	for i := 0; i < 5; i++ {
		data = append(data, 0, byte(i), byte(7*i), byte(11-i))
	}
	return append(data, opEveryOther<<1, opEveryOther<<1, opEveryOther<<1, opEveryOther<<1, opEveryOther<<1|1)
}

// TestFormatMatchesReference holds String and SortedTuples to
// referenceSorted on random relations of arity 0-4 over symbols,
// integers and invented values, ranked dense and sparse, with deletes,
// and on a relation after a repack and one whose every row is deleted.
func TestFormatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		head := byte(rng.Intn(50))
		arity := [2]int{int(head % 5), int(head / 5 % 5)}
		data := []byte{head}
		for n := 20 + rng.Intn(200); n > 0; n-- {
			rel, op := rng.Intn(2), rng.Intn(5)
			switch p := rng.Intn(20); {
			case p == 0:
				data = append(data, opEveryOther<<1|byte(rel))
				continue
			case p < 6:
				op = 5 + rng.Intn(2)
			}
			data = append(data, byte(op<<1|rel))
			for c := 0; c < arity[rel]; c++ {
				data = append(data, byte(rng.Intn(256)))
			}
		}
		u, in := decodeInstance(data)
		sameAsReference(t, u, in)
		if k := valueRanks(u, in.Relation("P"), in.Relation("Q")); k.sparse != nil {
			seen["sparse"] = true
		} else {
			seen["dense"] = true
		}
		for _, r := range []*Relation{in.Relation("P"), in.Relation("Q")} {
			seen[string(rune('0'+r.Arity()))] = true
			if r.data.ndead > 0 && r.Len() > 0 {
				seen["deleted rows"] = true
			}
		}
	}
	for _, want := range []string{"sparse", "dense", "0", "1", "2", "3", "4", "deleted rows"} {
		if !seen[want] {
			t.Errorf("no random case covered %q", want)
		}
	}

	u, in := decodeInstance(repackedInput())
	if p := in.Relation("P"); p.data.n >= 100 || p.data.ndead == 0 || p.Len() == 0 {
		t.Fatalf("P holds %d rows, %d of them deleted: want a repacked relation with deleted rows", p.data.n, p.data.ndead)
	}
	sameAsReference(t, u, in)
	u, in = decodeInstance(emptiedInput())
	for _, n := range []string{"P", "Q"} {
		if r := in.Relation(n); r.data.n == 0 || r.Len() != 0 {
			t.Fatalf("%s holds %d rows, %d live: want every row deleted", n, r.data.n, r.Len())
		}
	}
	sameAsReference(t, u, in)

	// A few tuples among many more distinct values than rows: each
	// column of Small sorts in several passes over digits of its ranks.
	u, in = value.New(), NewInstance()
	var many []value.Value
	for _, i := range rng.Perm(1000) {
		many = append(many, u.Int(int64(i-500)))
		in.Insert("Big", Tuple{many[len(many)-1]})
	}
	for i := 0; i < 40; i++ {
		in.Insert("Small", Tuple{many[rng.Intn(1000)], many[rng.Intn(1000)], many[rng.Intn(3)]})
	}
	in.Delete("Small", in.Relation("Small").Tuples()[7])
	sameAsReference(t, u, in)
}

func FuzzSortedTuples(f *testing.F) {
	f.Add(repackedInput())
	f.Add(emptiedInput())
	f.Add([]byte{37, 0, 1, 2, 1, 3, 4, 5, 6, 7, 8, 0, 11, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		u, in := decodeInstance(data)
		sameAsReference(t, u, in)
	})
}
