// Copy-on-write relation storage. A Relation's rows, its membership
// table and its secondary indexes live in a relData that snapshots
// share by pointer: Instance.Snapshot (and Clone) hands every child the
// same relData and marks both sides shared. The first mutation after a
// snapshot promotes the writer onto a private copy (a fresh
// generation) — a handful of slice copies, warm indexes included, so
// the fork does not re-pay index construction for data it did not
// change.
//
// Concurrency contract: taking snapshots of the same Relation or
// Instance from multiple goroutines is safe, and so is reading
// (ProbeIter/Contains/Each) concurrently with snapshots as long as
// nobody mutates and every index the readers probe is already built
// (BuildIndex). Mutation (Insert/Delete) requires exclusive access to
// that Relation.
package tuple

import (
	"slices"
	"sync/atomic"

	"unchained/internal/value"
)

// relData is the structurally shared payload of a Relation: one
// generation of the rows plus the hash tables built over them. Once a
// relData is reachable from more than one Relation it is frozen — only
// a sole owner appends rows, flips tombstones or adds indexes in place.
type relData struct {
	// gen stamps the generation: promote() bumps it on the private
	// copy, so two relations with the same data pointer (and hence
	// equal gen) are known-identical without comparing tuples.
	gen uint64
	rows
	n int // rows stored, deleted ones included (arity 0 stores no values)
	// dead is the bitset of deleted rows: nil until the first delete,
	// and from then on at least n bits long. A deleted row keeps its
	// storage, its table slot and its place in every index — a later
	// insert of the same tuple revives it, readers skip it — until repack
	// drops it.
	dead    []uint64
	ndead   int
	member  table    // keyed on the whole row
	indexes []*table // secondary indexes, by mask
	// staged counts the rows stored past n by Stage, which hold facts
	// that no reader sees until Publish (stage.go); rev holds the
	// deleted rows staged for revival, and sfp the XOR of both kinds'
	// hashes. A relData with any of them is never shared.
	staged int
	rev    *revivals
	sfp    uint64
}

func (d *relData) isDead(row int) bool { return deadBit(d.dead, row) }

// overDead is the one tombstone bound: it reports whether more than a
// third of the rows, and at least 32, are deleted. Delete re-packs a
// relation that it takes past the bound, so no relation is past it
// after any operation, and a promote copies at most that many dead rows.
// A maintained view, whose batches delete and revive rows in place, is
// held to it too. The higher the bound, the rarer the re-packs; the
// lower, the fewer dead rows kept. Measured on the benchmark's
// incr-updates workload (KB allocated per batch, live heap, medians of
// three runs): a half 80 KB, 0.257 MB, one run 0.276; a third 93 KB,
// 0.237 MB; a quarter 108 KB, 0.226 MB; a view that forked its state
// for every batch took 275 KB, 0.252 MB. A third is the highest bound
// whose live heap stays under the fork's.
func (d *relData) overDead() bool { return d.ndead >= 32 && 3*d.ndead > d.n }

// deadBit reports whether row is marked in the tombstone bitset.
func deadBit(dead []uint64, row int) bool {
	return dead != nil && dead[row>>6]&(1<<uint(row&63)) != 0
}

// find returns the published row holding t (of hash h) whether live or
// deleted, or -1: a staged row is not there yet.
func (d *relData) find(t Tuple, h uint64) int {
	if _, row := d.lookup(t, h); row < d.n {
		return row
	}
	return -1
}

// live is the values of the published rows, deleted ones included.
func (d *relData) live() []value.Value { return d.vals[:d.n*d.arity] }

// indexOn returns the index on mask among ixs, or nil.
func indexOn(ixs []*table, mask uint32) *table {
	for _, ix := range ixs {
		if ix.mask == mask {
			return ix
		}
	}
	return nil
}

// Counters tallies copy-on-write traffic. All methods are safe on a
// nil receiver and safe for concurrent use, so engines can hang one
// collector-owned Counters off every instance they touch.
type Counters struct {
	snapshots      atomic.Uint64
	promotions     atomic.Uint64
	tuplesCopied   atomic.Uint64
	indexesCarried atomic.Uint64
}

// CounterStats is a plain-value reading of a Counters.
type CounterStats struct {
	// Snapshots counts Instance.Snapshot/Clone calls (O(#relations)
	// pointer copies).
	Snapshots uint64 `json:"cow_snapshots"`
	// Promotions counts relations copied onto a private generation by
	// the first write after a snapshot.
	Promotions uint64 `json:"cow_promotions"`
	// TuplesCopied counts tuples physically copied by promotions (the
	// work a deep clone would have done eagerly for every relation).
	TuplesCopied uint64 `json:"cow_tuples_copied"`
	// IndexesCarried counts warm hash indexes carried across
	// promotions instead of being rebuilt from scratch.
	IndexesCarried uint64 `json:"cow_indexes_carried"`
}

func (c *Counters) addSnapshot() {
	if c != nil {
		c.snapshots.Add(1)
	}
}

func (c *Counters) addPromotion(tuples, indexes int) {
	if c != nil {
		c.promotions.Add(1)
		c.tuplesCopied.Add(uint64(tuples))
		c.indexesCarried.Add(uint64(indexes))
	}
}

// Load returns the current counter values.
func (c *Counters) Load() CounterStats {
	if c == nil {
		return CounterStats{}
	}
	return CounterStats{
		Snapshots:      c.snapshots.Load(),
		Promotions:     c.promotions.Load(),
		TuplesCopied:   c.tuplesCopied.Load(),
		IndexesCarried: c.indexesCarried.Load(),
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	c.snapshots.Store(0)
	c.promotions.Store(0)
	c.tuplesCopied.Store(0)
	c.indexesCarried.Store(0)
}

// Generation returns the relation's data generation stamp. Snapshots
// share their parent's generation; a promote moves the writer to a
// fresh one.
func (r *Relation) Generation() uint64 { return r.data.gen }

// Shared reports whether the relation's storage is (potentially)
// shared with a snapshot, i.e. whether the next write will promote.
func (r *Relation) Shared() bool { return r.shared.Load() }

// Snapshot returns a relation sharing r's storage. Both r and the
// snapshot become copy-on-write: whichever side mutates first pays
// for its own private copy. Indexes r built privately while itself
// shared are folded into the common storage first, so the snapshot
// starts with every index r has warm.
func (r *Relation) Snapshot() *Relation {
	r.settled("Snapshot")
	if len(r.own) > 0 {
		// Fold the private overlay indexes into a fresh frozen relData
		// (same generation: the tuple set is unchanged). The old
		// relData stays untouched for any siblings still holding it.
		d := *r.data
		d.indexes = append(slices.Clip(d.indexes), r.own...)
		r.data, r.own = &d, nil
	}
	r.shared.Store(true)
	c := &Relation{arity: r.arity, data: r.data, fp: r.fp, cow: r.cow}
	c.shared.Store(true)
	return c
}

// promote gives r a private copy of its shared storage; it must be
// called before any in-place mutation while r is shared. Rows,
// tombstones and tables are copied slice by slice, so row ids, and with
// them every slot and block, stay what they were, and every warm index
// is carried across. The tombstones come along as they are: the one
// tombstone bound (overDead), which Delete keeps, holds them to a third
// of the rows on either side of a fork.
func (r *Relation) promote() {
	if !r.shared.Load() {
		return
	}
	d := r.data
	nd := &relData{
		gen: d.gen + 1, rows: rows{cloneRoom(d.vals, r.arity), r.arity}, n: d.n,
		dead: slices.Clone(d.dead), ndead: d.ndead, member: d.member.clone(),
	}
	for _, ixs := range [][]*table{d.indexes, r.own} {
		for _, ix := range ixs {
			c := ix.clone()
			nd.indexes = append(nd.indexes, &c)
		}
	}
	r.data, r.own = nd, nil
	r.shared.Store(false)
	r.cow.addPromotion(r.Len(), len(r.data.indexes))
}

// repack moves the live rows into fresh storage with the same indexes
// (the shared payload's and the private overlay's) rebuilt over them,
// dropping the deleted rows. Delete calls it once they pass the
// tombstone bound, which keeps storage, tables and blocks proportional
// to the live set at amortized constant cost per delete. The old arrays
// are left as they are for whoever still reads them.
func (r *Relation) repack() {
	d := r.data
	nd := &relData{gen: d.gen, rows: rows{make([]value.Value, 0, r.Len()*r.arity), r.arity}}
	nd.member.reserve(r.Len())
	for row := 0; row < d.n; row++ {
		if !d.isDead(row) {
			t := d.at(row)
			nd.vals = append(nd.vals, t...)
			nd.member.put(t.Hash(), nd.n)
			nd.n++
		}
	}
	for _, ixs := range [][]*table{d.indexes, r.own} {
		for _, ix := range ixs {
			nd.indexes = append(nd.indexes, newIndex(ix.mask, nd.rows, nd.n))
		}
	}
	r.data, r.own = nd, nil
}

// DeepClone returns an eager deep copy of the relation: fresh rows and
// membership table, no indexes, no sharing. It reproduces the pre-COW
// Clone and exists for the fork benchmarks that quantify the COW win.
func (r *Relation) DeepClone() *Relation {
	r.settled("DeepClone")
	d := r.data
	return &Relation{arity: r.arity, fp: r.fp, cow: r.cow, data: &relData{
		rows: rows{slices.Clone(d.vals), r.arity}, n: d.n,
		dead: slices.Clone(d.dead), ndead: d.ndead, member: d.member.clone(),
	}}
}
