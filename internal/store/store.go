// Package store defines the storage layer behind named extensional
// databases: snapshot reads, batched assert/retract transactions with
// net-effect reporting, and ordered change notification. Two
// implementations exist — Mem, an in-memory store over the COW
// relations of internal/tuple, and WAL, a disk-backed store that
// reaches the same interface through an append-only, CRC-framed
// write-ahead log with compacted snapshots and torn-tail recovery
// (see docs/STORE.md).
//
// The split mirrors OPA's storage/{inmem,disk}: engines and the serve
// layer program against Store and pick durability per database.
package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Fact is one extensional fact: a predicate name and a constant
// tuple. Values must be interned in the store's Universe and must be
// symbols or integers (invented values are evaluation-internal and
// not storable).
type Fact struct {
	Pred  string
	Tuple tuple.Tuple
}

// Batch is one transaction: asserts are applied first, then
// retracts. A fact both asserted and retracted in the same batch nets
// to its retraction (or to nothing if it was absent before).
type Batch struct {
	Assert  []Fact
	Retract []Fact
}

// Applied reports the net effect of a batch: Asserted holds the facts
// newly present afterwards that were absent before, Retracted the
// facts present before and absent afterwards, both in first-effect
// order. Seq is the store's sequence number after the batch; a batch
// with no net effect does not advance it.
type Applied struct {
	Seq       uint64
	Asserted  []Fact
	Retracted []Fact
}

// Empty reports whether the batch had no net effect.
func (a Applied) Empty() bool { return len(a.Asserted) == 0 && len(a.Retracted) == 0 }

// Watcher observes committed batches. Watchers run synchronously on
// the committing goroutine, in commit order, after durability; they
// must be fast and must not call back into the store.
type Watcher func(Applied)

// Store is a named extensional database.
//
// Apply is serialized internally; Snapshot and Seq may be called
// concurrently with Apply. The Universe is owned by the store: callers
// interning new constants (parsing facts, formatting output) must
// serialize those operations among themselves — internal/serve holds a
// per-database mutex around parse/apply/format for exactly this.
type Store interface {
	// Universe returns the value universe facts are interned in.
	Universe() *value.Universe
	// Snapshot returns a copy-on-write snapshot of the current state.
	Snapshot() *tuple.Instance
	// Seq returns the sequence number of the last effective batch.
	Seq() uint64
	// Apply commits a batch and reports its net effect.
	Apply(Batch) (Applied, error)
	// Watch registers a change observer; the returned cancel
	// unregisters it.
	Watch(Watcher) (cancel func())
	// Close releases resources. Further Applies fail with ErrClosed.
	Close() error
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// core is the in-memory half shared by Mem and WAL: the instance, the
// sequence counter, and the watcher table, all guarded by mu.
type core struct {
	mu       sync.Mutex
	u        *value.Universe
	inst     *tuple.Instance
	seq      uint64
	watchers map[int]Watcher
	nextW    int
	closed   bool
}

func newCore() core {
	return core{u: value.New(), inst: tuple.NewInstance(), watchers: map[int]Watcher{}}
}

func (c *core) Universe() *value.Universe { return c.u }

func (c *core) Snapshot() *tuple.Instance {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inst.Snapshot()
}

func (c *core) Seq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

func (c *core) Watch(fn Watcher) (cancel func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextW
	c.nextW++
	c.watchers[id] = fn
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.watchers, id)
	}
}

// validate checks a batch against the store's schema before any
// mutation: values must be interned symbols or integers, and arities
// must agree with existing relations and within the batch.
func (c *core) validate(b Batch) error {
	arity := map[string]int{}
	check := func(f Fact) error {
		if f.Pred == "" {
			return fmt.Errorf("store: empty predicate name")
		}
		for _, v := range f.Tuple {
			switch c.u.Kind(v) {
			case value.KindSym, value.KindInt:
			default:
				return fmt.Errorf("store: %s: value %d is not an interned constant", f.Pred, v)
			}
		}
		if r := c.inst.Relation(f.Pred); r != nil && r.Arity() != len(f.Tuple) {
			return fmt.Errorf("store: %s has arity %d, batch uses %d", f.Pred, r.Arity(), len(f.Tuple))
		}
		if a, ok := arity[f.Pred]; ok && a != len(f.Tuple) {
			return fmt.Errorf("store: %s used with arities %d and %d in one batch", f.Pred, a, len(f.Tuple))
		}
		arity[f.Pred] = len(f.Tuple)
		return nil
	}
	for _, f := range b.Assert {
		if err := check(f); err != nil {
			return err
		}
	}
	for _, f := range b.Retract {
		if err := check(f); err != nil {
			return err
		}
	}
	return nil
}

// applyNet mutates the instance and computes the batch's net effect.
// Must be called with mu held, after validate.
func (c *core) applyNet(b Batch) Applied {
	key := func(f Fact) string { return f.Pred + "\x00" + f.Tuple.Key() }
	var added, removed []Fact
	addSet := map[string]bool{}
	for _, f := range b.Assert {
		r := c.inst.Relation(f.Pred)
		if r == nil {
			// The relation outlives the batch: it is named by a copy,
			// not by a slice of the text the batch was parsed from.
			f.Pred = strings.Clone(f.Pred)
			r = c.inst.Ensure(f.Pred, len(f.Tuple))
		}
		if r.Insert(f.Tuple) {
			addSet[key(f)] = true
			added = append(added, f)
		}
	}
	for _, f := range b.Retract {
		if c.inst.Delete(f.Pred, f.Tuple) {
			if k := key(f); addSet[k] {
				addSet[k] = false // asserted then retracted: net zero
			} else {
				removed = append(removed, f)
			}
		}
	}
	net := added[:0]
	for _, f := range added {
		if addSet[key(f)] {
			net = append(net, f)
		}
	}
	ap := Applied{Asserted: net, Retracted: removed}
	if !ap.Empty() {
		c.seq++
	}
	ap.Seq = c.seq
	return ap
}

// notify runs the watchers for a committed batch. Must be called with
// mu held so observers see batches in commit order.
func (c *core) notify(ap Applied) {
	for _, fn := range c.watchers {
		fn(ap)
	}
}

// Mem is the in-memory Store: a mutex around the COW instance. It is
// the storage default; state does not survive the process.
type Mem struct {
	core
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{core: newCore()}
}

// Apply commits the batch.
func (m *Mem) Apply(b Batch) (Applied, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Applied{}, ErrClosed
	}
	if err := m.validate(b); err != nil {
		return Applied{}, err
	}
	ap := m.applyNet(b)
	if !ap.Empty() {
		m.notify(ap)
	}
	return ap, nil
}

// Close marks the store closed.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
