// Package value provides the interned value universe shared by all
// engines in the repository.
//
// The paper (Section 2) assumes an infinite domain dom of constants.
// We realize dom as an interning table: every constant a program or
// instance mentions is mapped to a dense Value handle. Three kinds of
// constants exist:
//
//   - symbols (lower-case identifiers or quoted strings),
//   - integers, and
//   - invented values, created by Datalog¬new programs (Section 4.3)
//     via Universe.Fresh; they have no external name.
//
// Values are only meaningful relative to the Universe that created
// them. All engines are single-threaded per evaluation; a Universe is
// not safe for concurrent mutation.
package value

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"unsafe"
)

// Value is a handle to an interned domain constant. The zero Value is
// invalid and doubles as the "unbound" sentinel in rule matchers.
type Value uint32

// None is the invalid/unbound sentinel.
const None Value = 0

// Kind classifies a domain constant.
type Kind uint8

// The constant kinds.
const (
	KindInvalid Kind = iota
	KindSym          // named symbol
	KindInt          // integer constant
	KindFresh        // invented value (Datalog¬new)
)

func (k Kind) String() string {
	switch k {
	case KindSym:
		return "sym"
	case KindInt:
		return "int"
	case KindFresh:
		return "fresh"
	default:
		return "invalid"
	}
}

type entry struct {
	kind Kind
	name string // symbol text; empty for ints and fresh values
	num  int64  // integer payload; fresh counter for invented values
}

// Universe interns domain constants and hands out fresh invented
// values. The zero Universe is not ready; use New.
//
// Clone is copy-on-write: clones share the entry table prefix and the
// interning maps until one side interns something new, at which point
// that side promotes onto private maps. Taking clones of the same
// Universe from several goroutines is safe; interning concurrently
// with anything else on the same Universe is not.
type Universe struct {
	entries []entry          // entries[0] is a dummy for the None sentinel
	syms    map[string]Value // symbol text -> Value
	ints    map[int64]Value  // integer -> Value; nil until the first integer
	// names is the chunk the next symbol's text is copied into: the
	// bytes before its length are the texts of earlier symbols, which
	// entries and syms point into and nothing writes again. A clone
	// starts with none and copies its new names into chunks of its own.
	names []byte
	fresh int64 // count of invented values issued
	// shared marks syms/ints as reachable from a clone and therefore
	// read-only until promoted. Atomic so concurrent Clone calls on
	// the same Universe (Session.Fork per request) are race-free.
	shared atomic.Bool
}

// New returns an empty Universe.
func New() *Universe {
	return &Universe{
		entries: make([]entry, 1), // reserve index 0 for None
		syms:    make(map[string]Value),
	}
}

// promote gives u private copies of the interning maps; it must be
// called before writing to them while u is shared with clones. The
// entry slice needs no copy: clones hold capacity-trimmed views, so
// appends beyond their length reallocate on their side and are
// invisible on this one.
func (u *Universe) promote() {
	if !u.shared.Load() {
		return
	}
	syms := make(map[string]Value, len(u.syms)+1)
	for k, v := range u.syms {
		syms[k] = v
	}
	var ints map[int64]Value
	if len(u.ints) > 0 {
		ints = make(map[int64]Value, len(u.ints)+1)
		for k, v := range u.ints {
			ints[k] = v
		}
	}
	u.syms, u.ints = syms, ints
	u.shared.Store(false)
}

// Sym interns the symbol with the given name and returns its Value.
// Interning the same name twice returns the same Value. The universe
// keeps a copy of a new name, never name itself, so interning a slice
// of a larger text does not keep that text alive.
func (u *Universe) Sym(name string) Value {
	if v, ok := u.syms[name]; ok {
		return v
	}
	u.promote()
	name = u.own(name)
	v := Value(len(u.entries))
	u.entries = append(u.entries, entry{kind: KindSym, name: name})
	u.syms[name] = v
	return v
}

// A universe's first name chunk is firstChunk bytes, enough for the
// names of a program; the next is nextChunk, enough for a facts file's
// hundreds, and each after that doubles up to maxChunk. A name that
// fits in none gets a chunk of its own size.
const (
	firstChunk = 256
	nextChunk  = 2 << 10
	maxChunk   = 64 << 10
)

// own copies name into the name chunk, starting a new chunk when it
// does not fit, and returns the copy.
func (u *Universe) own(name string) string {
	if len(name) == 0 {
		return ""
	}
	if len(name) > cap(u.names)-len(u.names) {
		size := firstChunk
		if c := cap(u.names); c > 0 {
			size = min(max(2*c, nextChunk), maxChunk)
		}
		u.names = make([]byte, 0, max(size, len(name)))
	}
	n := len(u.names)
	u.names = append(u.names, name...)
	return unsafe.String(&u.names[n], len(name))
}

// Int interns the integer n and returns its Value.
func (u *Universe) Int(n int64) Value {
	if v, ok := u.ints[n]; ok {
		return v
	}
	u.promote()
	if u.ints == nil {
		u.ints = make(map[int64]Value)
	}
	v := Value(len(u.entries))
	u.entries = append(u.entries, entry{kind: KindInt, num: n})
	u.ints[n] = v
	return v
}

// Fresh invents a brand-new value distinct from every value the
// Universe has issued so far (the value-invention primitive of
// Datalog¬new, Section 4.3).
func (u *Universe) Fresh() Value {
	u.fresh++
	v := Value(len(u.entries))
	u.entries = append(u.entries, entry{kind: KindFresh, num: u.fresh})
	return v
}

// Clone returns a copy-on-write copy of the Universe. Because handles
// are dense indices into the entry table, every Value issued by the
// original remains valid — and means the same constant — in the
// clone; interning or inventing in the clone never affects the
// original. This is what makes a parsed program (whose constants are
// Values of the original) evaluable against any number of clones
// concurrently.
//
// The copy is O(1): both sides share the entry prefix, the chunks
// its names are in and the interning maps until one of them interns a
// new constant, which promotes that side onto private maps. Concurrent
// Clone calls on the same Universe are safe (the per-request fork in
// internal/serve relies on this); concurrent interning is not.
func (u *Universe) Clone() *Universe {
	u.shared.Store(true)
	c := &Universe{
		// Trim capacity so an append in the clone reallocates instead
		// of writing into the shared backing array. The parent keeps
		// its capacity: its appends land beyond every clone's length
		// and are invisible to them.
		entries: u.entries[:len(u.entries):len(u.entries)],
		syms:    u.syms,
		ints:    u.ints,
		fresh:   u.fresh,
	}
	c.shared.Store(true)
	return c
}

// Lookup returns the Value interned for the symbol name, or None if
// the name has never been interned. It never allocates.
func (u *Universe) Lookup(name string) Value {
	return u.syms[name]
}

// LookupInt returns the Value interned for n, or None.
func (u *Universe) LookupInt(n int64) Value {
	return u.ints[n]
}

// Kind reports the kind of v. Kind(None) is KindInvalid.
func (u *Universe) Kind(v Value) Kind {
	if int(v) >= len(u.entries) {
		return KindInvalid
	}
	return u.entries[v].kind
}

// IsFresh reports whether v is an invented value.
func (u *Universe) IsFresh(v Value) bool { return u.Kind(v) == KindFresh }

// IntVal returns the integer payload of an interned integer value.
// The second result is false if v is not an integer constant.
func (u *Universe) IntVal(v Value) (int64, bool) {
	if u.Kind(v) != KindInt {
		return 0, false
	}
	return u.entries[v].num, true
}

// Name renders v for display: the symbol text, the decimal integer,
// "$k" for the k-th invented value, or "?" for None/out-of-range.
func (u *Universe) Name(v Value) string {
	if int(v) >= len(u.entries) || v == None {
		return "?"
	}
	e := u.entries[v]
	switch e.kind {
	case KindSym:
		return e.name
	case KindInt:
		return strconv.FormatInt(e.num, 10)
	case KindFresh:
		return fmt.Sprintf("$%d", e.num)
	default:
		return "?"
	}
}

// AppendName appends what Name(v) returns to dst, without building the
// string (output rendering calls it once per value of every fact).
func (u *Universe) AppendName(dst []byte, v Value) []byte {
	if int(v) < len(u.entries) {
		switch e := &u.entries[v]; e.kind {
		case KindSym:
			return append(dst, e.name...)
		case KindInt:
			return strconv.AppendInt(dst, e.num, 10)
		}
	}
	return append(dst, u.Name(v)...)
}

// Len reports how many values (excluding the None sentinel) have been
// interned or invented.
func (u *Universe) Len() int { return len(u.entries) - 1 }

// FreshCount reports how many invented values have been issued.
func (u *Universe) FreshCount() int64 { return u.fresh }

// Compare orders two values deterministically and independently of
// interning order: by kind (sym < int < fresh), then symbols
// lexicographically, integers numerically, and invented values by
// invention order. It is the ordering used for stable output dumps.
func (u *Universe) Compare(a, b Value) int {
	ka, kb := u.Kind(a), u.Kind(b)
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	ea, eb := u.entries[a], u.entries[b]
	switch ka {
	case KindSym:
		switch {
		case ea.name < eb.name:
			return -1
		case ea.name > eb.name:
			return 1
		}
		return 0
	default: // KindInt, KindFresh, KindInvalid
		switch {
		case ea.num < eb.num:
			return -1
		case ea.num > eb.num:
			return 1
		}
		return 0
	}
}
