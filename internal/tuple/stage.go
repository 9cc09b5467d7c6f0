// Staged rows: how a fixpoint round adds its new facts. A round reads
// the instance as it stood when the round began while it derives, so
// its new facts may not show until it ends. Stage stores each one
// straight into the relation it joins, as a row past the published
// count (or, for a fact whose deleted row the relation still holds, as
// a mark on that row), after one hash and one lookup; every reader
// skips staged rows until Publish links them into the indexes and moves
// the count, and Unstage drops them when the round is stopped. Publish
// also points a view at the rows it published: the round's delta,
// which aliases the relation's rows instead of holding a copy, since
// rows are never overwritten.
package tuple

import (
	"fmt"
	"slices"

	"unchained/internal/value"
)

// revivals holds the deleted rows a relation has staged for revival,
// in staging order, and marks them in a bitset (grown to the
// tombstones' length as it is needed) so that a fact staged twice is
// found staged.
type revivals struct {
	rows   []revival
	marked []uint64
}

// revival is a deleted row staged for revival, with the number of rows
// staged past the published count before it (its place in the delta).
type revival struct{ row, at int32 }

// pending reports whether d holds staged rows or revivals.
func (d *relData) pending() bool {
	return d.staged != 0 || d.rev != nil && len(d.rev.rows) != 0
}

// settled panics if r holds staged rows: every write but Stage, and
// every fork, needs the staging finished (Publish) or undone (Unstage)
// first.
func (r *Relation) settled(op string) {
	if r.data.pending() {
		panic(fmt.Sprintf("tuple: %s on a relation with staged rows", op))
	}
}

// Stage adds t to r's staged rows unless r holds it or has staged it
// already, and reports whether it did, after one hash and one lookup.
// A staged fact is stored once: appended as a row past the published
// count, or, when r still holds its deleted row, as a mark that revives
// that row. No reader sees it (Len, Contains, Each, the iterators,
// Fingerprint, the indexes) until Publish. Between the first Stage and
// Publish or Unstage, r accepts only reads and more Stage calls.
func (r *Relation) Stage(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("tuple: stage arity %d into relation of arity %d", len(t), r.arity))
	}
	h := t.Hash()
	pos, row := r.data.lookup(t, h)
	if row >= 0 {
		return row < r.data.n && r.data.isDead(row) && r.revive(row, h)
	}
	r.promote() // a copy keeps every slot where it was
	d := r.data
	d.vals = append(d.vals, t...)
	d.member.putAt(pos, h, d.n+d.staged)
	d.staged++
	d.sfp ^= h
	return true
}

// revive marks the deleted row (of hash h) for revival at Publish,
// reporting false when it is marked already.
func (r *Relation) revive(row int, h uint64) bool {
	if rv := r.data.rev; rv != nil && row>>6 < len(rv.marked) && deadBit(rv.marked, row) {
		return false
	}
	r.promote()
	d := r.data
	if d.rev == nil {
		d.rev = &revivals{}
	}
	rv := d.rev
	if n := len(d.dead); len(rv.marked) < n {
		rv.marked = append(rv.marked, make([]uint64, n-len(rv.marked))...)
	}
	rv.marked[row>>6] |= 1 << uint(row&63)
	rv.rows = append(rv.rows, revival{int32(row), int32(d.staged)})
	d.sfp ^= h
	return true
}

// Publish makes r's staged rows members: it links the appended ones
// into every index, clears the tombstones of the revived ones and XORs
// their hashes into the fingerprint, and returns how many facts it
// added. view is pointed at exactly those facts, in staging order, and
// holds nothing when there were none (see show).
func (r *Relation) Publish(view *Relation) int {
	d := r.data
	var rv []revival
	if d.rev != nil {
		rv = d.rev.rows
	}
	view.show(d, rv)
	added := d.staged + len(rv)
	if added == 0 {
		return 0
	}
	base := d.n
	d.n += d.staged
	d.staged = 0
	for _, ix := range d.indexes {
		for row := base; row < d.n; row++ {
			ix.link(d.rows, row)
		}
	}
	for d.dead != nil && d.n > 64*len(d.dead) {
		d.dead = append(d.dead, 0)
	}
	for _, v := range rv {
		w, bit := v.row>>6, uint64(1)<<uint(v.row&63)
		d.dead[w] &^= bit
		d.rev.marked[w] &^= bit
	}
	if rv != nil {
		d.ndead -= len(rv)
		d.rev.rows = rv[:0]
	}
	r.fp ^= d.sfp
	d.sfp = 0
	return added
}

// Unstage drops r's staged rows and revival marks, leaving r exactly as
// it was before the first Stage: the rows are truncated and the
// membership slots of the published rows re-placed by their stored
// tags, so no row is hashed.
func (r *Relation) Unstage() {
	d := r.data
	if d.staged > 0 {
		d.vals = d.vals[:d.n*d.arity]
		old := slices.Clone(d.member.slots)
		clear(d.member.slots)
		for _, s := range old {
			if s != 0 && int(uint32(s))-1 < d.n {
				d.member.place(s)
			}
		}
		d.member.keys -= d.staged
		d.staged = 0
	}
	if d.rev != nil {
		for _, v := range d.rev.rows {
			d.rev.marked[v.row>>6] &^= 1 << uint(v.row&63)
		}
		d.rev.rows = d.rev.rows[:0]
	}
	d.sfp = 0
}

// show points v, a view, at the facts d is about to publish: the rows
// staged past d.n, aliased, or, when d also revives rows, a copy of
// them with the revived rows placed where they were staged. The view
// is read-only and holds until the next show; it has no tombstones and
// builds its membership table on the first lookup (find) and an index
// on the first probe that needs it, and an index it built before is
// emptied and refilled here. A view a snapshot shares gets fresh
// storage, and the snapshot keeps the old.
func (v *Relation) show(d *relData, rv []revival) {
	n, a := d.staged+len(rv), d.arity
	vd := v.data
	if n == 0 && vd.n == 0 {
		return
	}
	lo, hi := d.n*a, (d.n+d.staged)*a
	vals := d.vals[lo:hi:hi]
	if len(rv) > 0 {
		vals = make([]value.Value, 0, n*a)
		next := lo
		for _, x := range rv {
			at := lo + int(x.at)*a
			vals = append(append(vals, d.vals[next:at]...), d.at(int(x.row))...)
			next = at
		}
		vals = append(vals, d.vals[next:hi]...)
	}
	if v.shared.Load() {
		vd = &relData{rows: rows{arity: a}}
		v.data = vd
		v.shared.Store(false)
	} else {
		vd.member.reset()
	}
	vd.vals, vd.n, vd.dead, vd.ndead = vals, n, nil, 0
	for _, ix := range vd.indexes {
		ix.reset()
		for row := 0; row < n; row++ {
			ix.link(vd.rows, row)
		}
	}
	v.own, v.fp = nil, d.sfp
}

// lookup is the membership table's find: the row holding t (of hash
// h), published or staged, live or deleted, or -1 and the free slot
// where t would go. A view (show) has rows but no membership table
// until a lookup needs one, and gets it here: every other relation
// enters a row into its table when it stores it.
func (d *relData) lookup(t Tuple, h uint64) (pos, row int) {
	if d.member.keys < d.n {
		d.member.reserve(d.n)
		for row := 0; row < d.n; row++ {
			d.member.put(d.at(row).Hash(), row)
		}
	}
	return d.member.find(d.rows, t, h)
}
