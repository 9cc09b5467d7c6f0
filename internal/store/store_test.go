package store_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"unchained/internal/store"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

func fact(u *value.Universe, pred string, args ...string) store.Fact {
	t := make(tuple.Tuple, len(args))
	for i, a := range args {
		t[i] = u.Sym(a)
	}
	return store.Fact{Pred: pred, Tuple: t}
}

func TestMemApplyNetEffect(t *testing.T) {
	m := store.NewMem()
	defer m.Close()
	u := m.Universe()

	ap, err := m.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "a", "b"), fact(u, "e", "a", "b")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ap.Asserted) != 1 || ap.Seq != 1 {
		t.Fatalf("dup assert not deduped: %+v", ap)
	}

	// Assert+retract of the same absent fact in one batch nets to nothing.
	ap, err = m.Apply(store.Batch{
		Assert:  []store.Fact{fact(u, "e", "x", "y")},
		Retract: []store.Fact{fact(u, "e", "x", "y")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ap.Empty() || ap.Seq != 1 {
		t.Fatalf("net-zero batch advanced state: %+v", ap)
	}
	if m.Snapshot().Has("e", tuple.Tuple{u.Sym("x"), u.Sym("y")}) {
		t.Fatal("net-zero fact persisted")
	}

	// Retract of a preexisting fact reports it.
	ap, err = m.Apply(store.Batch{Retract: []store.Fact{fact(u, "e", "a", "b")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ap.Retracted) != 1 || ap.Seq != 2 {
		t.Fatalf("retract: %+v", ap)
	}
}

func TestMemValidation(t *testing.T) {
	m := store.NewMem()
	defer m.Close()
	u := m.Universe()
	if _, err := m.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "a", "b")}}); err != nil {
		t.Fatal(err)
	}
	// Arity conflict with the existing relation must error, not panic.
	if _, err := m.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "a")}}); err == nil {
		t.Fatal("arity conflict accepted")
	}
	// Conflicting arities within one batch.
	if _, err := m.Apply(store.Batch{Assert: []store.Fact{fact(u, "q", "a"), fact(u, "q", "a", "b")}}); err == nil {
		t.Fatal("intra-batch arity conflict accepted")
	}
	// Invented values are not storable.
	if _, err := m.Apply(store.Batch{Assert: []store.Fact{{Pred: "q", Tuple: tuple.Tuple{u.Fresh()}}}}); err == nil {
		t.Fatal("fresh value accepted")
	}
	if _, err := m.Apply(store.Batch{Assert: []store.Fact{{Pred: "", Tuple: nil}}}); err == nil {
		t.Fatal("empty predicate accepted")
	}
}

func TestMemWatchOrderAndCancel(t *testing.T) {
	m := store.NewMem()
	defer m.Close()
	u := m.Universe()
	var seqs []uint64
	cancel := m.Watch(func(ap store.Applied) { seqs = append(seqs, ap.Seq) })
	m.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "a", "b")}})
	m.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "b", "c")}})
	m.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "b", "c")}}) // no net effect: no event
	cancel()
	m.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "c", "d")}})
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("watch events: %v", seqs)
	}
}

func TestMemClosed(t *testing.T) {
	m := store.NewMem()
	m.Close()
	if _, err := m.Apply(store.Batch{}); err != store.ErrClosed {
		t.Fatalf("apply on closed store: %v", err)
	}
}

func TestWALRestartPreservesState(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := w.Universe()
	w.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "a", "b"), fact(u, "e", "b", "c")}})
	w.Apply(store.Batch{Retract: []store.Fact{fact(u, "e", "a", "b")}})
	w.Apply(store.Batch{Assert: []store.Fact{{Pred: "n", Tuple: tuple.Tuple{u.Int(42)}}}})
	want := w.Snapshot().String(u)
	seq := w.Seq()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Snapshot().String(w2.Universe()); got != want {
		t.Fatalf("recovered state mismatch:\ngot:\n%swant:\n%s", got, want)
	}
	if w2.Seq() != seq {
		t.Fatalf("recovered seq %d, want %d", w2.Seq(), seq)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := w.Universe()
	w.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "a", "b")}})
	want := w.Snapshot().String(u)
	w.Close()

	// Garbage beyond the committed prefix must be truncated, not fatal.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("\x99\x00\x00\x00garbage-tail"))
	f.Close()

	w2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer w2.Close()
	if got := w2.Snapshot().String(w2.Universe()); got != want {
		t.Fatalf("state after torn tail:\ngot:\n%swant:\n%s", got, want)
	}
	if st := w2.Stats(); st.Truncations != 1 {
		t.Fatalf("truncations = %d, want 1", st.Truncations)
	}
}

func TestWALTruncatedMidRecordLosesOnlyTail(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := w.Universe()
	w.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "a", "b")}})
	afterFirst := w.Snapshot().String(u)
	w.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "b", "c")}})
	w.Close()

	// Chop one byte off the end: the second record is torn; the first
	// must survive intact.
	path := filepath.Join(dir, "wal.log")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-1); err != nil {
		t.Fatal(err)
	}

	w2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Snapshot().String(w2.Universe()); got != afterFirst {
		t.Fatalf("mid-record truncation:\ngot:\n%swant:\n%s", got, afterFirst)
	}
	if w2.Seq() != 1 {
		t.Fatalf("recovered seq %d, want 1", w2.Seq())
	}
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Open(dir, store.Options{CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	u := w.Universe()
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i := 0; i+1 < len(names); i++ {
		if _, err := w.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", names[i], names[i+1])}}); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction after threshold")
	}
	if st.Records >= 3 {
		t.Fatalf("live log holds %d records after compaction", st.Records)
	}
	want := w.Snapshot().String(u)
	seq := w.Seq()
	w.Close()
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}

	w2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Snapshot().String(w2.Universe()); got != want {
		t.Fatalf("post-compaction recovery:\ngot:\n%swant:\n%s", got, want)
	}
	if w2.Seq() != seq {
		t.Fatalf("recovered seq %d, want %d", w2.Seq(), seq)
	}
}

func TestWALCompactionCrashWindow(t *testing.T) {
	// Snapshot renamed but log not yet truncated: records with seq <=
	// snapshot seq must replay as no-ops, not double-apply or error.
	dir := t.TempDir()
	w, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := w.Universe()
	w.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "a", "b")}})
	w.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "b", "c")}})
	want := w.Snapshot().String(u)
	w.Close()

	logData, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Compact(); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	// Restore the pre-compaction log next to the new snapshot,
	// simulating a crash between rename and truncate.
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), logData, 0o644); err != nil {
		t.Fatal(err)
	}

	w3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if got := w3.Snapshot().String(w3.Universe()); got != want {
		t.Fatalf("crash-window recovery:\ngot:\n%swant:\n%s", got, want)
	}
	if w3.Seq() != 2 {
		t.Fatalf("recovered seq %d, want 2", w3.Seq())
	}
}

func TestWALPoisonedAfterInjectedFailure(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Open(dir, store.Options{FailAfterBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	u := w.Universe()
	if _, err := w.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "a", "b")}}); err == nil {
		t.Fatal("write beyond fault budget succeeded")
	}
	if _, err := w.Apply(store.Batch{Assert: []store.Fact{fact(u, "e", "b", "c")}}); err != store.ErrPoisoned {
		t.Fatalf("poisoned store accepted a write: %v", err)
	}
}

// liveHeap is the heap still in use after two collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestNewRelationKeepsNoText: a relation a batch creates is named by a
// copy of its predicate, so a predicate sliced out of a large text (a
// parsed request body) does not keep that text alive. Sixteen 1 MB
// texts, each naming a new relation with its last two bytes, leave
// under 64 KB live.
func TestNewRelationKeepsNoText(t *testing.T) {
	m := store.NewMem()
	defer m.Close()
	one := tuple.Tuple{m.Universe().Int(1)}
	before := liveHeap()
	for i := 0; i < 16; i++ {
		text := strings.Repeat("x", 1<<20) + string(rune('A'+i)) + "0"
		if _, err := m.Apply(store.Batch{Assert: []store.Fact{{Pred: text[len(text)-2:], Tuple: one}}}); err != nil {
			t.Fatal(err)
		}
	}
	if live := int64(liveHeap()) - int64(before); live >= 64<<10 {
		t.Fatalf("16 relations named by 2-byte slices of 1 MB texts leave %d KB live, want < 64", live>>10)
	}
	if n := len(m.Snapshot().Names()); n != 16 {
		t.Fatalf("%d relations, want 16", n)
	}
}
