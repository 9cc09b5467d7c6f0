package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"unchained"
	"unchained/internal/incr"
	"unchained/internal/store"
	"unchained/internal/tuple"
)

// incrProgram is the maintained view: a recursive layer (DRed) and a
// negation layer above it (support counts).
const incrProgram = tcProgram + "Unreach(X,Y) :- N(X), N(Y), !T(X,Y).\n"

const (
	incrNodes, incrEdges = 60, 120
	incrBatch            = 4  // asserts and retracts per batch
	incrPairs            = 16 // the op list is 2*incrPairs batches
	incrAuditEvery       = 50 // ops between checks against full recomputation
)

// incrBatchOp is one op: the same four asserts and four retracts for
// the durable store and for the view.
type incrBatchOp struct {
	store   store.Batch
	assert  []incr.Fact
	retract []incr.Fact
}

// incrWorkload applies assert/retract batches on G to a store.WAL in a
// directory under bench/out and maintains a view over it. The op list
// comes in pairs, the second batch of a pair undoing the first, so the
// database is back at its initial state after every pair and the list
// can be cycled for any duration.
type incrWorkload struct {
	dir  string
	wal  *store.WAL
	sess *unchained.Session
	prog *unchained.Program
	view *incr.View
	ops  []incrBatchOp
	next int // ops applied so far

	auditBytes, auditMallocs uint64
	deltaFacts, applied      int
}

func (w *incrWorkload) clients() int { return 1 }

func (w *incrWorkload) cycle() int { return len(w.ops) }

func (w *incrWorkload) checkAllocs() (uint64, uint64) { return w.auditBytes, w.auditMallocs }

func (w *incrWorkload) setup(e *env, seed int64, sc scope) error {
	rng := rand.New(rand.NewSource(seed))
	shape := rand.New(rand.NewSource(shapeSeed))
	lab := newLabels(rng, "n", incrNodes)
	base := randomEdges(shape, incrNodes, incrEdges)

	dir, err := os.MkdirTemp(e.outDir, "wal-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.wal, err = store.Open(filepath.Join(dir, "db"), store.Options{}); err != nil {
		return err
	}
	w.sess = &unchained.Session{U: w.wal.Universe()}
	if w.prog, err = w.sess.Parse(incrProgram); err != nil {
		return err
	}

	in := facts{}
	in.addEdges("G", base, lab)
	for _, name := range lab {
		in.add("N", name)
	}
	edb, err := w.sess.Facts(in.input(rng))
	if err != nil {
		return err
	}
	var load store.Batch
	edb.EachRel(func(name string, r *tuple.Relation) {
		for _, t := range r.Tuples() {
			load.Assert = append(load.Assert, store.Fact{Pred: name, Tuple: t})
		}
	})
	if _, err := w.wal.Apply(load); err != nil {
		return err
	}
	sc.span("incr.materialize", func(scope) {
		w.view, err = w.sess.MaterializeContext(context.Background(), w.prog, w.wal.Snapshot())
	})
	if err != nil {
		return err
	}

	// The view must start at what the BFS oracle says the model is.
	want := ctFacts(incrNodes, base, lab)
	model := facts{"G": want["G"], "T": want["T"], "N": in["N"]}
	isT := map[string]bool{}
	for _, t := range want["T"] {
		isT[t[0]+","+t[1]] = true
	}
	for _, x := range lab {
		for _, y := range lab {
			if !isT[x+","+y] {
				model.add("Unreach", x, y)
			}
		}
	}
	if got := w.sess.Format(w.view.Instance()); got != model.output() {
		return fmt.Errorf("materialized view differs from the BFS oracle's model")
	}

	inBase := map[edge]bool{}
	for _, e := range base {
		inBase[e] = true
	}
	for p := 0; p < incrPairs; p++ {
		var do, undo incrBatchOp
		fresh := map[edge]bool{}
		for _, i := range shape.Perm(len(base))[:incrBatch] {
			add := edge{shape.Intn(incrNodes), shape.Intn(incrNodes)}
			for inBase[add] || fresh[add] {
				add = edge{shape.Intn(incrNodes), shape.Intn(incrNodes)}
			}
			fresh[add] = true
			out := unchained.Tuple{w.sess.Sym(lab[base[i][0]]), w.sess.Sym(lab[base[i][1]])}
			in := unchained.Tuple{w.sess.Sym(lab[add[0]]), w.sess.Sym(lab[add[1]])}
			do.store.Retract, do.retract = append(do.store.Retract, store.Fact{Pred: "G", Tuple: out}), append(do.retract, incr.Fact{Pred: "G", Tuple: out})
			do.store.Assert, do.assert = append(do.store.Assert, store.Fact{Pred: "G", Tuple: in}), append(do.assert, incr.Fact{Pred: "G", Tuple: in})
		}
		undo.store = store.Batch{Assert: do.store.Retract, Retract: do.store.Assert}
		undo.assert, undo.retract = do.retract, do.assert
		w.ops = append(w.ops, do, undo)
	}

	// Warm-up: one pass over the op list, audited at the end.
	for k := range w.ops {
		if _, check := w.op(k, scope{}); check == nil || !check() {
			return fmt.Errorf("warm-up op %d failed", k)
		}
	}
	if !w.audit() {
		return fmt.Errorf("view differs from full recomputation after the warm-up pass")
	}
	w.auditBytes, w.auditMallocs, w.deltaFacts, w.applied = 0, 0, 0, 0
	return nil
}

func (w *incrWorkload) op(k int, sc scope) ([]time.Duration, func() bool) {
	// The position in the op list is the workload's own: the database
	// carries over from one loop to the next, so the list must too.
	at := w.next
	w.next++
	b := &w.ops[at%len(w.ops)]
	var (
		applied store.Applied
		delta   *incr.Delta
		err     error
	)
	sc.span("store.wal_apply", func(scope) { applied, err = w.wal.Apply(b.store) })
	if err != nil || len(applied.Asserted) != incrBatch || len(applied.Retracted) != incrBatch {
		return nil, nil
	}
	sc.span("incr.apply", func(scope) { delta, err = w.view.Apply(b.assert, b.retract) })
	if err != nil {
		return nil, nil
	}
	return nil, func() bool {
		n := delta.Added.Facts() + delta.Removed.Facts()
		w.deltaFacts += n
		w.applied++
		if n < 2*incrBatch { // at least the batch's own G facts changed
			return false
		}
		if at%incrAuditEvery != incrAuditEvery-1 {
			return true
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ok := w.audit()
		runtime.ReadMemStats(&after)
		w.auditBytes += after.TotalAlloc - before.TotalAlloc
		w.auditMallocs += after.Mallocs - before.Mallocs
		return ok
	}
}

// settle brings the database, the view and whatever scratch memory
// they keep from their last batch to the same state at the end of
// every run: it finishes a half-done do/undo pair and then replays the
// first pair. Without it live_heap_mb depends on which batch the clock
// stopped at (by 10%).
func (w *incrWorkload) settle() {
	if w.next%2 == 1 {
		w.op(0, scope{})
	}
	w.next = 0
	w.op(0, scope{})
	w.op(0, scope{})
}

// audit compares the maintained view with a full recomputation of the
// program on the store's current contents.
func (w *incrWorkload) audit() bool {
	res, err := w.sess.EvalContext(context.Background(), w.prog, w.wal.Snapshot(), unchained.Stratified)
	return err == nil && res.Out.Equal(w.view.Instance())
}

func (w *incrWorkload) close() error {
	var err error
	if w.wal != nil {
		err = w.wal.Close()
		w.wal = nil
	}
	if w.dir != "" {
		if rerr := os.RemoveAll(w.dir); err == nil {
			err = rerr
		}
		w.dir = ""
	}
	return err
}

func (w *incrWorkload) layers(sc scope, ops map[string]spanTotals, nOps int) (map[string]float64, error) {
	m := map[string]float64{}
	spans := sc.t.spans
	m["incr.apply_ms_p50"] = spanP(spans, "incr.apply", 0.50) / 1e6
	m["incr.apply_ms_p95"] = spanP(spans, "incr.apply", 0.95) / 1e6
	m["store.wal_apply_us_p50"] = spanP(spans, "store.wal_apply", 0.50) / 1e3
	m["incr.delta_facts_per_batch"] = float64(w.deltaFacts) / float64(w.applied)
	for _, s := range spans {
		if s.Name == "incr.materialize" {
			m["incr.materialize_ms"] = float64(s.End-s.Start) / 1e6
		}
	}

	var recompute time.Duration
	const reps = 5
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		ok := true
		sc.span("incr.recompute", func(scope) { ok = w.audit() })
		if !ok {
			return nil, fmt.Errorf("view differs from full recomputation")
		}
		recompute += time.Since(t0)
	}
	m["incr.recompute_ratio"] = float64(recompute) / reps / spanP(spans, "incr.apply", 0.50)

	if err := kernels(sc, m, kernelInput{
		sess: w.sess, inst: w.view.Instance(), program: incrProgram,
		facts: w.sess.Format(w.wal.Snapshot()), joinRule: "T(X,Y) :- G(X,Z), T(Z,Y).", big: "T",
	}); err != nil {
		return nil, err
	}

	// The log since the last compaction holds st.Records batches of
	// 2*incrBatch facts each (or the initial load, right after one).
	st := w.wal.Stats()
	if st.Records > 1 {
		m["store.wal_bytes_per_fact"] = float64(st.LogBytes) / float64(st.Records*2*incrBatch)
	}
	var err error
	t0 := time.Now()
	sc.span("store.compact", func(scope) { err = w.wal.Compact() })
	if err != nil {
		return nil, err
	}
	m["store.compact_ms"] = float64(time.Since(t0)) / 1e6
	// Replay: a few batches after the snapshot, then reopen.
	for k := 0; k < 64; k++ {
		if _, check := w.op(k, scope{}); check == nil || !check() {
			return nil, fmt.Errorf("op %d failed before replay", k)
		}
	}
	if err := w.wal.Close(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	sc.span("store.replay", func(scope) { w.wal, err = store.Open(filepath.Join(w.dir, "db"), store.Options{}) })
	if err != nil {
		return nil, err
	}
	m["store.replay_ms"] = float64(time.Since(t0)) / 1e6

	return m, nil
}
