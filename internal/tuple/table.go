// The hash table under every relation. Rows live in flat storage
// (rows); a table addresses them by row id, hashed by a 64-bit mix of
// the key columns and compared column by column, so membership and
// index probes build no keys and allocate nothing. The membership
// table of a relation keys on the whole row; a secondary index is the
// same table over the masked columns, with the row ids of one key kept
// in blocks of one append-only arena.
package tuple

import (
	"math/bits"
	"slices"

	"unchained/internal/value"
)

// rows is flat row storage: row i is vals[i*arity : (i+1)*arity]. Rows
// are appended and never overwritten, so the Tuples handed out (and
// the rows an Iterator captured) stay valid — and immutable — however
// the relation changes afterwards.
type rows struct {
	vals  []value.Value
	arity int
}

func (s rows) at(i int) Tuple {
	o := i * s.arity
	return Tuple(s.vals[o : o+s.arity : o+s.arity])
}

const (
	hashSeed = 0x243f6a8885a308d3
	hashMul  = 0x9e3779b97f4a7c15
)

// hashBits masks every table hash. It is all ones; the storage model
// test narrows it to three bits so that every lookup collides.
var hashBits = ^uint64(0)

func mix(h uint64, v value.Value) uint64 {
	h = (h ^ uint64(v)) * hashMul
	return h ^ h>>32
}

// avalanche is the murmur3 finalizer: every input bit reaches every
// output bit, which the tables (top bits) and the XOR-combined
// fingerprints rely on.
func avalanche(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// table is an open-addressed hash table with linear probing. A slot
// holds the top half of the key's hash beside its payload, so a probe
// touches row storage only on a tag match and growing re-places the
// slots without rehashing a row. Nothing is ever removed: a deleted row
// stays addressed (tombstoned in relData.dead) until the relation
// re-packs into fresh storage.
type table struct {
	// mask is the key columns as a bitmask, the name a secondary index
	// goes by; 0 keys on the whole row (the membership table).
	mask  uint32
	slots []uint64 // tag<<32 | payload+1, placed by the tag's top bits; 0 is free
	keys  int      // occupied slots
	// blocks holds the row ids of a secondary index (the payload of the
	// membership table is the row itself). A key's payload is the offset
	// of its newest block; a block is
	//
	//	[1 + offset of the key's next older block, or 0][cap<<16 | n][cap row ids, the first n set]
	//
	// and a key's blocks quadruple in capacity from 2 to maxBlock. Only the
	// newest block of a key has room, and it only ever gains ids past n:
	// what an Iterator captured of a key never changes under it, and a
	// probe reads row ids in runs instead of chasing a link per row.
	blocks []uint32
}

const maxBlock = 1 << 10

// smallIndex is the most rows a relation may have for a new index on
// it to be sized up front for one key per row, its slots and its blocks
// one allocation each instead of a doubling sequence. Past it a key
// count far below the row count would leave most of that room unused.
const smallIndex = 64

// newIndex builds the secondary index on the masked columns of rs.
func newIndex(mask uint32, rs rows, n int) *table {
	tb := &table{mask: mask}
	if n <= smallIndex {
		tb.reserve(n)
		tb.blocks = make([]uint32, 0, 4*n)
	}
	for row := 0; row < n; row++ {
		tb.link(rs, row)
	}
	return tb
}

// hash is the hash of t's key columns.
func (tb *table) hash(t Tuple) uint64 {
	if tb.mask == 0 {
		return t.Hash()
	}
	h := uint64(hashSeed)
	for m := tb.mask; m != 0; m &= m - 1 {
		h = mix(h, t[bits.TrailingZeros32(m)])
	}
	return avalanche(h)
}

func (tb *table) sameKey(a, b Tuple) bool {
	if tb.mask == 0 {
		return a.Equal(b)
	}
	for m := tb.mask; m != 0; m &= m - 1 {
		if c := bits.TrailingZeros32(m); a[c] != b[c] {
			return false
		}
	}
	return true
}

// home is the slot a tag probes from: its top log2(len(slots)) bits.
func (tb *table) home(tag uint64) int {
	return int(uint32(tag) >> uint(bits.LeadingZeros32(uint32(len(tb.slots)-1))))
}

// find returns the slot position and payload of key's key columns (h
// is their hash), or, when the table lacks the key, the free slot the
// probe stopped at (-1 in an empty table) and payload -1. The key of a
// slot is read off a row it addresses: the row itself, or the first of
// the newest block.
func (tb *table) find(rs rows, key Tuple, h uint64) (pos, payload int) {
	if tb.keys == 0 {
		return -1, -1
	}
	tag := (h & hashBits) >> 32
	for pos, m := tb.home(tag), len(tb.slots)-1; ; pos = (pos + 1) & m {
		s := tb.slots[pos]
		if s == 0 {
			return pos, -1
		}
		if s>>32 == tag {
			payload, row := int(uint32(s))-1, int(uint32(s))-1
			if tb.mask != 0 {
				row = int(tb.blocks[payload+2])
			}
			if tb.sameKey(rs.at(row), key) {
				return pos, payload
			}
		}
	}
}

// reserve makes room for n more keys at a load of at most 3/4.
func (tb *table) reserve(n int) {
	need := tb.keys + n
	if need*4 <= len(tb.slots)*3 {
		return
	}
	size := max(8, len(tb.slots))
	for need*4 > size*3 {
		size *= 2
	}
	old := tb.slots
	tb.slots = make([]uint64, size)
	for _, s := range old {
		if s != 0 {
			tb.place(s)
		}
	}
}

// place stores slot word s at the first free position from its home.
func (tb *table) place(s uint64) {
	pos, m := tb.home(s>>32), len(tb.slots)-1
	for tb.slots[pos] != 0 {
		pos = (pos + 1) & m
	}
	tb.slots[pos] = s
}

// put stores payload under a key (of hash h) the table does not hold.
func (tb *table) put(h uint64, payload int) {
	tb.reserve(1)
	tb.place((h&hashBits)>>32<<32 | uint64(payload+1))
	tb.keys++
}

// putAt is put at pos, the free slot find stopped at for the key, so
// the probe is not walked again, unless the table has to grow first.
func (tb *table) putAt(pos int, h uint64, payload int) {
	if pos < 0 || (tb.keys+1)*4 > len(tb.slots)*3 {
		tb.put(h, payload)
		return
	}
	tb.slots[pos] = (h&hashBits)>>32<<32 | uint64(payload+1)
	tb.keys++
}

// link enters the freshly appended row of rs into a secondary index:
// into its key's newest block, a new block once that is full, or as a
// new key.
func (tb *table) link(rs rows, row int) {
	t := rs.at(row)
	h := tb.hash(t)
	pos, o := tb.find(rs, t, h)
	if o < 0 {
		tb.putAt(pos, h, tb.newBlock(0, 2, row))
		return
	}
	n, c := tb.blocks[o+1]&0xffff, tb.blocks[o+1]>>16
	if n < c {
		tb.blocks[o+2+int(n)] = uint32(row)
		tb.blocks[o+1]++
		return
	}
	tb.slots[pos] = tb.slots[pos]>>32<<32 | uint64(tb.newBlock(uint32(o+1), min(4*c, maxBlock), row)+1)
}

// newBlock appends a block of capacity c holding row, linked to older.
func (tb *table) newBlock(older, c uint32, row int) int {
	o := len(tb.blocks)
	// Grown in place and cleared, not appended from a make: under the race
	// detector that make is an allocation per key.
	tb.blocks = slices.Grow(tb.blocks, 2+int(c))[:o+2+int(c)]
	tb.blocks[o], tb.blocks[o+1], tb.blocks[o+2] = older, c<<16|1, uint32(row)
	clear(tb.blocks[o+3:])
	return o
}

// reset empties the table and keeps its slot and block storage.
func (tb *table) reset() {
	clear(tb.slots)
	tb.keys, tb.blocks = 0, tb.blocks[:0]
}

// clone copies the table for a promoted relation, with room for the
// writes that follow.
func (tb *table) clone() table {
	c := *tb
	c.slots = append([]uint64(nil), tb.slots...)
	c.blocks = cloneRoom(tb.blocks, 1)
	return c
}

// cloneRoom copies s with spare capacity for about a quarter more
// elements (of the given stride), so the first appends after a
// promotion do not copy the whole array a second time.
func cloneRoom[T any](s []T, stride int) []T {
	if s == nil {
		return nil
	}
	c := make([]T, len(s), len(s)+len(s)/4+4*stride)
	copy(c, s)
	return c
}
