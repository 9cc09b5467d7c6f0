// Package tuple implements the relational substrate of the paper
// (Section 2): constant tuples, relation instances (finite sets of
// constant tuples of a fixed arity), and database instances (a finite
// map from relation names to relation instances).
//
// A relation stores its tuples as rows of one flat []value.Value and
// finds them through an open-addressed table of row ids hashed by the
// column values (table.go); the secondary indexes the rule matcher
// asks for are the same table over a subset of the columns, built on
// demand. Membership tests, inserts and probes build no keys and, once
// the storage has grown to size, allocate nothing. Instances carry a
// schema (relation name -> arity) and support the cloning, equality,
// and fingerprinting operations the forward-chaining engines need for
// stage iteration and cycle detection (Section 4.2).
//
// Cloning is copy-on-write (cow.go): Instance.Snapshot and Clone are
// O(#relations) structural shares, and a relation's storage is only
// copied when one side of a fork first writes to it.
package tuple

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"unchained/internal/value"
)

// Tuple is a constant tuple: a sequence of interned domain values.
// Tuples a relation hands out alias its row storage and must not be
// written to (the tuplemut analyzer enforces it outside this package).
type Tuple []value.Value

// Key packs t into a compact string usable as a map key. Two tuples
// of the same arity have equal keys iff they are equal. Relations do
// not use it; it serves callers that key their own maps by fact.
func (t Tuple) Key() string {
	var b [64]byte // room for 16 values: the one allocation is the string's
	return string(t.AppendKey(b[:0]))
}

// AppendKey appends the bytes of t's Key to b: each value's four low
// bytes, low first.
func (t Tuple) AppendKey(b []byte) []byte {
	for _, v := range t {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}

// Hash returns a deterministic 64-bit hash of the tuple's values: a
// multiply-xorshift step per value, finished with an avalanche mixer.
// It is the one hash of the package: the membership table places rows
// by it, and a relation's fingerprint is the XOR of it over the live
// tuples. The mixer matters: symbol ids are dense and structured, and
// the tables use the top bits. Equal tuples hash equally across
// processes and runs.
func (t Tuple) Hash() uint64 {
	h := uint64(hashSeed)
	for _, v := range t {
		h = mix(h, v)
	}
	return avalanche(h)
}

// Clone returns a copy of t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports whether t and o are identical tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i, v := range t {
		if v != o[i] {
			return false
		}
	}
	return true
}

// String renders t using the universe's display names.
func (t Tuple) String(u *value.Universe) string { return string(t.appendTo(nil, u)) }

// appendTo appends "(a,b,...)" to dst.
func (t Tuple) appendTo(dst []byte, u *value.Universe) []byte {
	dst = append(dst, '(')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = u.AppendName(dst, v)
	}
	return append(dst, ')')
}

// Relation is a finite set of constant tuples of a fixed arity.
// The zero Relation is not ready; use NewRelation.
//
// Storage is copy-on-write (see cow.go): data points at a possibly
// shared relData holding the rows, the membership table and the lazily
// built secondary indexes. While shared, mutations first promote onto a
// private generation, and freshly built indexes go into the private own
// overlay instead of the frozen shared payload.
type Relation struct {
	arity int
	data  *relData
	// own holds indexes built while data was shared; the frozen base
	// cannot accept new masks without racing sibling readers.
	own []*table
	// shared marks the storage as reachable from a snapshot. It is
	// atomic so concurrent Snapshot calls on the same relation are
	// race-free.
	shared atomic.Bool
	// fp is the XOR of the live tuples' hashes, kept up to date by
	// every insert and delete (see Fingerprint).
	fp uint64
	// cow, when set, tallies snapshot/promote traffic (see Counters).
	cow *Counters
}

// NewRelation returns an empty relation of the given arity. It holds
// no storage until the first insert.
func NewRelation(arity int) *Relation {
	return &Relation{arity: arity, data: &relData{rows: rows{arity: arity}}}
}

// Arity reports the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len reports the number of tuples.
func (r *Relation) Len() int { return r.data.n - r.data.ndead }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.Len() == 0 }

// Insert adds t to the relation, reporting whether it was new. The
// values are copied into the relation's rows; t is not retained.
// Insert panics if the arity does not match: arities are schema-level
// invariants and a mismatch is a programming error.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("tuple: insert arity %d into relation of arity %d", len(t), r.arity))
	}
	h := t.Hash()
	pos, row := r.data.lookup(t, h)
	if row >= 0 && row < r.data.n && !r.data.isDead(row) {
		return false
	}
	r.settled("Insert")
	r.promote() // a copy keeps every slot where it was
	d := r.data
	r.fp ^= h
	if row >= 0 { // deleted earlier: the row is still stored and indexed
		d.dead[row>>6] &^= 1 << uint(row&63)
		d.ndead--
		return true
	}
	d.vals = append(d.vals, t...)
	d.member.putAt(pos, h, d.n)
	for _, ix := range d.indexes {
		ix.link(d.rows, d.n)
	}
	d.n++
	if d.dead != nil && d.n > 64*len(d.dead) {
		d.dead = append(d.dead, 0)
	}
	return true
}

// Delete removes t, reporting whether it was present. The row is only
// marked: tuples and iterators handed out earlier keep reading it. A
// delete that takes the deleted rows past the tombstone bound (overDead)
// re-packs the relation.
func (r *Relation) Delete(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	h := t.Hash()
	row := r.data.find(t, h)
	if row < 0 || r.data.isDead(row) {
		return false
	}
	r.settled("Delete")
	r.promote()
	d := r.data
	if d.dead == nil {
		d.dead = make([]uint64, (d.n+63)/64)
	}
	d.dead[row>>6] |= 1 << uint(row&63)
	d.ndead++
	r.fp ^= h
	if d.overDead() {
		r.repack()
	}
	return true
}

// Clear empties r and keeps its storage for the inserts that follow:
// the rows, the membership table and every secondary index, emptied in
// place, so a set probed again after it is refilled links its rows into
// the index it had instead of building one from nothing. The inserts
// overwrite the old rows and index blocks, so a tuple or cursor read
// from r before is no longer valid: Clear is for a scratch set that
// hands out no tuples, such as a memo reused from one pass to the next
// or a deletion run's scratch sets, and not for a delta view (Publish),
// whose rows are another relation's. A relation shared with a snapshot
// gets fresh storage instead, and the snapshot keeps the old.
func (r *Relation) Clear() {
	r.settled("Clear")
	if r.shared.Load() {
		r.data = &relData{rows: rows{arity: r.arity}}
		r.shared.Store(false)
	} else {
		d := r.data
		d.vals, d.n, d.dead, d.ndead = d.vals[:0], 0, d.dead[:0], 0
		d.member.reset()
		for _, ix := range d.indexes {
			ix.reset()
		}
	}
	r.own, r.fp = nil, 0
}

// DropIndexes returns the memory of r's secondary indexes; the next
// probe that needs one builds it again. Indexes r shares with a
// snapshot stay where they are, for the snapshot's sake.
func (r *Relation) DropIndexes() {
	r.own = nil
	if !r.shared.Load() {
		r.data.indexes = nil
	}
}

// Contains reports whether t is in the relation.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	row := r.data.find(t, t.Hash())
	return row >= 0 && !r.data.isDead(row)
}

// Each calls fn for every tuple in unspecified order; fn must not
// mutate the relation. If fn returns false, iteration stops.
func (r *Relation) Each(fn func(Tuple) bool) {
	d := r.data
	for row := 0; row < d.n; row++ {
		if !d.isDead(row) && !fn(d.at(row)) {
			return
		}
	}
}

// Tuples returns all tuples in unspecified order. The returned slice
// is fresh but the tuples alias the relation's rows; callers must not
// mutate them.
func (r *Relation) Tuples() []Tuple {
	dst := make([]Tuple, 0, r.Len())
	r.Each(func(t Tuple) bool {
		dst = append(dst, t)
		return true
	})
	return dst
}

// ranks maps the values of some relations to their positions among the
// distinct ones under Universe.Compare: a table indexed by value where
// the ids run dense, a map where a few values sit in a large universe
// (zeroing a table to the largest id would cost more than the sort it
// serves, which is linear in the cells). It also carries the scratch
// that sorted reuses across those relations.
type ranks struct {
	dense  []uint32
	sparse map[value.Value]uint32
	n      int // distinct values ranked
	width  int // rendered width of every live cell, summed
	// ids and tmp hold a relation's row ids, and a counting pass
	// scatters one into the other; count holds the pass's buckets.
	ids, tmp []uint32
	count    []uint32
}

func (k *ranks) of(v value.Value) uint32 {
	if k.dense != nil {
		return k.dense[v]
	}
	return k.sparse[v]
}

func (k *ranks) set(v value.Value, rank uint32) {
	if k.dense != nil {
		k.dense[v] = rank
	} else {
		k.sparse[v] = rank
	}
}

// valueRanks ranks the distinct values of rels' live rows and totals
// their rendered width. Ordering tuples by rank is ordering them by
// u.Compare column by column, at one Compare per pair of distinct
// values and none per pair of tuples.
func valueRanks(u *value.Universe, rels ...*Relation) *ranks {
	var top value.Value
	cells := 0
	for _, r := range rels {
		cells += len(r.data.live())
		for _, v := range r.data.live() {
			top = max(top, v)
		}
	}
	k := &ranks{}
	if int(top) <= 8*cells+1024 {
		k.dense = make([]uint32, int(top)+1)
	} else {
		k.sparse = make(map[value.Value]uint32)
	}
	// Until it is ranked, a value maps to the number of live cells
	// holding it, so one name per distinct value gives the width.
	var distinct []value.Value
	for _, r := range rels {
		r.Each(func(t Tuple) bool {
			for _, v := range t {
				n := k.of(v)
				if n == 0 {
					distinct = append(distinct, v)
				}
				k.set(v, n+1)
			}
			return true
		})
	}
	var name []byte
	for _, v := range distinct {
		name = u.AppendName(name[:0], v)
		k.width += int(k.of(v)) * len(name)
	}
	slices.SortFunc(distinct, u.Compare)
	for i, v := range distinct {
		k.set(v, uint32(i))
	}
	k.n = len(distinct)
	return k
}

// sorted returns the ids of r's live rows in rank order, column by
// column: a radix sort over the ranks, last column first, one stable
// counting pass per column. Where the ranks span far more buckets than
// r has rows (a small relation of a large instance), a column takes a
// few passes over digits of its ranks instead, so that no pass counts
// into more than 256 buckets or four per row: a relation costs in
// proportion to its own rows, not to the instance's distinct values.
// The result aliases k's scratch and holds until the next call.
func (k *ranks) sorted(r *Relation) []uint32 {
	d, n := r.data, r.Len()
	if cap(k.ids) < n {
		k.ids, k.tmp = make([]uint32, n), make([]uint32, n)
	}
	ids, tmp := k.ids[:0], k.tmp[:n]
	for row := 0; row < d.n; row++ {
		if !d.isDead(row) {
			ids = append(ids, uint32(row))
		}
	}
	width := bits.Len(uint(max(k.n, 1) - 1))
	passes := 1
	if most := max(8, bits.Len(uint(n))+1); width > most {
		passes = (width + most - 1) / most
	}
	digit := (width + passes - 1) / passes
	buckets := 1 << digit
	if passes == 1 {
		buckets = k.n
	}
	if cap(k.count) < buckets {
		k.count = make([]uint32, buckets)
	}
	count, mask := k.count[:buckets], uint32(1)<<digit-1
	for c := d.arity - 1; c >= 0; c-- {
		for shift := 0; shift < width; shift += digit {
			clear(count)
			for _, id := range ids {
				count[k.of(d.vals[int(id)*d.arity+c])>>shift&mask]++
			}
			var sum uint32
			for b, m := range count {
				count[b], sum = sum, sum+m
			}
			for _, id := range ids {
				b := k.of(d.vals[int(id)*d.arity+c]) >> shift & mask
				tmp[count[b]] = id
				count[b]++
			}
			ids, tmp = tmp, ids
		}
	}
	return ids
}

// SortedTuples returns all tuples ordered by u.Compare column by
// column, for deterministic output.
func (r *Relation) SortedTuples(u *value.Universe) []Tuple {
	k := valueRanks(u, r)
	out := make([]Tuple, 0, r.Len())
	for _, row := range k.sorted(r) {
		out = append(out, r.data.at(int(row)))
	}
	return out
}

// Clone returns a copy of the relation with value semantics. Since
// the COW rewrite it is an alias for Snapshot: an O(1) structural
// share whose first mutation (on either side) promotes onto a private
// copy. Use DeepClone for an eager copy.
func (r *Relation) Clone() *Relation { return r.Snapshot() }

// Equal reports whether r and o hold exactly the same tuples.
// Relations sharing the same storage generation (e.g. a snapshot and
// its untouched parent) compare in O(1), and so do relations whose
// sizes or fingerprints differ.
func (r *Relation) Equal(o *Relation) bool {
	if r.arity != o.arity {
		return false
	}
	if r.data == o.data {
		return true
	}
	if r.Len() != o.Len() || r.fp != o.fp {
		return false
	}
	same := true
	r.Each(func(t Tuple) bool {
		same = o.Contains(t)
		return same
	})
	return same
}

// UnionInPlace inserts every tuple of o into r, reporting how many
// were new.
func (r *Relation) UnionInPlace(o *Relation) int {
	added := 0
	o.Each(func(t Tuple) bool {
		if r.Insert(t) {
			added++
		}
		return true
	})
	return added
}

// Fingerprint returns an order-independent 64-bit hash of the tuple
// set (XOR of the per-tuple Hash values), used by the Datalog¬¬ and
// nondeterministic engines to detect revisited instance states. It is
// maintained by Insert and Delete, so reading it costs nothing, and it
// depends only on the set: not on insertion order, deletes since
// undone, or the snapshot the relation descends from.
func (r *Relation) Fingerprint() uint64 {
	// Mix in arity and cardinality so that, e.g., the empty relations
	// of different arities differ only via the instance-level mix.
	return r.fp ^ (uint64(r.Len())*hashMul + uint64(r.arity))
}
