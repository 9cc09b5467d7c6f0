// Streaming probe iterators. A probe positions a caller-owned cursor
// over the matching rows instead of materializing a result slice, so
// the rule matcher's hot loop allocates nothing per step and an early
// exit (a satisfied existential, a canceled enumeration) stops pulling
// immediately.
//
// An Iterator captures its source once, at reset time: the row storage
// and tombstones as they stand, and either a row range (a full scan, or
// the one row of a fully-bound probe) or the newest block of an index
// key with the row ids it then held. Rows are never
// overwritten and a block only gains ids past those, so the
// cursor stays memory-safe — stale at worst — while the relation is
// inserted into, deleted from, promoted or re-packed under it: it
// returns only tuples that match its probe and were members at some
// moment since it was positioned, each at most once.
package tuple

// Iterator is a cursor over the results of one relation probe. The
// zero value is an exhausted iterator; ProbeIter/ScanIter reset it.
// An Iterator is single-goroutine and may be reused across probes.
type Iterator struct {
	rows
	// The run [i, hi) still to visit: of rows, or — when blocks is set,
	// by an index probe — of positions in blocks holding row ids, with
	// older linking to the key's next block (see table.blocks).
	i, hi  int
	blocks []uint32
	older  uint32
	// fast marks an index probe with nothing to filter, the cursor a
	// join step spends its time in. The others skip tombstoned rows and,
	// in scan mode, rows that differ from pattern on a masked column;
	// pattern is read until the cursor is exhausted or reset.
	fast    bool
	mask    uint32
	dead    []uint64
	pattern Tuple
}

// Next returns the next matching tuple, or ok=false when the probe is
// exhausted. The returned tuple is shared storage; callers must not
// mutate it.
func (it *Iterator) Next() (t Tuple, ok bool) {
	if i := it.i; it.fast && i < it.hi {
		row := int(it.blocks[i])
		it.i = i + 1
		return it.at(row), true
	}
	return it.step()
}

// step is Next in general: the run with rows to skip, the key's next
// block, or the end.
func (it *Iterator) step() (Tuple, bool) {
	for {
		row := it.i
		if row >= it.hi {
			if it.older == 0 {
				return nil, false
			}
			it.load(int(it.older) - 1)
			continue
		}
		it.i++
		if it.blocks != nil {
			row = int(it.blocks[row])
		}
		if deadBit(it.dead, row) {
			continue
		}
		if t := it.at(row); it.mask == 0 || maskEq(t, it.mask, it.pattern) {
			return t, true
		}
	}
}

// load makes the block at offset o of blocks the cursor's current run.
func (it *Iterator) load(o int) {
	it.older, it.i, it.hi = it.blocks[o], o+2, o+2+int(it.blocks[o+1]&0xffff)
}

// maskEq reports whether t agrees with pattern on every masked column.
func maskEq(t Tuple, mask uint32, pattern Tuple) bool {
	for pos := range t {
		if mask&(1<<uint(pos)) != 0 && t[pos] != pattern[pos] {
			return false
		}
	}
	return true
}

// fullMask reports whether mask binds every column of the relation, so
// that a probe is a membership lookup and needs no index.
func (r *Relation) fullMask(mask uint32) bool {
	return mask != 0 && r.arity <= 32 && mask == uint32(1)<<uint(r.arity)-1
}

// ProbeIter resets it to cursor over the tuples whose values at the
// masked columns equal the corresponding entries of pattern (entries at
// unmasked columns are ignored). A zero mask walks the rows; a
// fully-bound mask is a membership lookup; anything else reads the
// key's blocks in a lazily built, incrementally maintained index. None
// of them allocates once the index exists.
func (r *Relation) ProbeIter(mask uint32, pattern Tuple, it *Iterator) {
	d := r.data
	it.reset(d, 0, nil)
	switch {
	case mask == 0:
		it.hi = d.n
	case r.fullMask(mask):
		if row := d.find(pattern, pattern.Hash()); row >= 0 {
			it.i, it.hi = row, row+1
		}
	default:
		ix := r.index(mask)
		if _, o := ix.find(d.rows, pattern, ix.hash(pattern)); o >= 0 {
			it.blocks, it.fast = ix.blocks, d.dead == nil
			it.load(o)
		}
	}
}

// ScanIter is the index-free variant of ProbeIter used by the
// ablation benchmarks: it walks every row and filters, building no
// index. pattern must stay unchanged while the cursor is in use.
func (r *Relation) ScanIter(mask uint32, pattern Tuple, it *Iterator) {
	d := r.data
	it.reset(d, mask, pattern)
	it.hi = d.n
}

// reset points it at d's rows with an empty run, field by field: the
// cursor of a join step is reset once per probe, and assigning it a
// fresh Iterator would zero and copy the whole struct each time.
func (it *Iterator) reset(d *relData, mask uint32, pattern Tuple) {
	it.rows, it.dead = d.rows, d.dead
	it.i, it.hi, it.blocks, it.older = 0, 0, nil, 0
	it.fast, it.mask, it.pattern = false, mask, pattern
}

// index returns (building if needed) the secondary index on the given
// column set. mask bit i set means column i participates in the key.
// While the storage is shared, snapshots reuse the warm indexes baked
// into it, and new masks are built into the private own overlay (the
// frozen base is read-only); a sole owner extends the base in place.
func (r *Relation) index(mask uint32) *table {
	d := r.data
	if ix := indexOn(d.indexes, mask); ix != nil {
		return ix
	}
	if ix := indexOn(r.own, mask); ix != nil {
		return ix
	}
	ix := newIndex(mask, d.rows, d.n)
	if r.shared.Load() {
		if r.own == nil {
			r.own = make([]*table, 0, 2) // a join probes a shared relation by a column or two
		}
		r.own = append(r.own, ix)
	} else {
		d.indexes = append(d.indexes, ix)
	}
	return ix
}

// BuildIndex materializes the index for the given column mask so that
// later probes of it are read-only on the relation. A zero mask walks
// the rows and a fully-bound mask hits the membership table; neither
// needs an index.
func (r *Relation) BuildIndex(mask uint32) {
	if mask != 0 && !r.fullMask(mask) {
		r.index(mask)
	}
}
