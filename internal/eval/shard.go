// Shard-parallel semi-naive delta rounds. The delta is hash-partitioned
// across N workers (tuple.Instance.Partition); each worker evaluates
// every delta-variant rule against a copy-on-write snapshot of the
// current instance and its private slice of the delta, so lazy index
// builds land in the snapshot's private overlay instead of racing on
// shared storage. A worker fires as the serial round does — head facts
// in reused scratch, dropped at once when the snapshot holds them — and
// files the rest by the hash of the head tuple into one small set per
// destination shard. A second parallel step unions, per destination,
// what the workers filed there: the round's new facts come out already
// partitioned, which is the next round's delta as it stands. Nothing
// passes through the calling goroutine, and because relations are sets
// the result is independent of scheduling: byte-identical to the serial
// round.
package eval

import (
	"sync"
	"time"

	"unchained/internal/tuple"
	"unchained/internal/value"
)

// DeltaVariant is a delta variant of a rule (Rule.Delta) with the index
// its firings are charged to in the collector (-1: no per-rule
// attribution).
type DeltaVariant struct {
	Rule  *Rule
	Index int
}

// eachShard runs work(0..n-1) on n goroutines and joins them.
func eachShard(n int, work func(s int)) {
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			work(s)
		}(s)
	}
	wg.Wait()
}

// RunSharded evaluates every delta variant with one worker per part of
// a tuple-hash partition of the delta (tuple.Instance.Partition, or the
// result of the previous call). It returns the head facts base.In lacks,
// partitioned the same way (every part with every relation that has a
// new fact in any, as Partition makes them), and the number of head
// facts emitted, those base.In holds included. base supplies the shared read-only
// environment (In, NegIn, Adom, Scan, Stats, NoPlan, Plans, Done); every
// worker receives private snapshots of In and NegIn. A closing Done
// stops the workers as it stops any enumeration (Ctx.Done), and base
// reports it (Ctx.Stopped); what they had filed is still returned —
// RunSharded joins every worker before returning, so no goroutine
// outlives the call. Workers tally their firings locally and
// charge base.Stats (concurrency-safe counters) once per variant; the
// derived-versus-rederived split is the caller's, from the sizes of the
// returned parts. Each worker also attributes its wall time and
// emitted-fact count to its shard index via Collector.ShardWork,
// feeding the per-shard skew breakdown of stats summaries and flight
// records.
//
// The caller must not mutate parts or the instance behind base.In
// during the call.
func RunSharded(variants []DeltaVariant, base *Ctx, parts []*tuple.Instance) ([]*tuple.Instance, uint64) {
	n := len(parts)
	// Snapshot the shared instances once per shard on this goroutine:
	// Snapshot folds private index overlays into the shared payload,
	// which must not race with worker probes.
	ins := make([]*tuple.Instance, n)
	negs := make([]*tuple.Instance, n)
	for s := range ins {
		ins[s] = base.In.Snapshot()
		if base.NegIn != nil {
			negs[s] = base.NegIn.Snapshot()
		}
	}
	filed := make([][]*tuple.Instance, n) // filed[s][t]: by worker s, for shard t
	emitted := make([]uint64, n)
	ctxs, bufs := make([]Ctx, n), make([]Scratch, n)
	eachShard(n, func(s int) {
		ctx := &ctxs[s]
		*ctx = Ctx{
			In: ins[s], NegIn: negs[s], Adom: base.Adom,
			Delta: parts[s], Buf: &bufs[s], Scan: base.Scan, Stats: base.Stats,
			NoPlan: base.NoPlan, Plans: base.Plans, Done: base.Done,
		}
		filed[s], emitted[s] = runShard(variants, ctx, s, n)
	})
	for s := range ctxs {
		base.stopped = base.stopped || ctxs[s].stopped
	}
	next := make([]*tuple.Instance, n)
	eachShard(n, func(t int) {
		next[t] = filed[0][t]
		for _, row := range filed[1:] {
			Fold(next[t], row[t])
		}
	})
	total := uint64(0)
	for _, e := range emitted {
		total += e
	}
	return next, total
}

// runShard is worker s of RunSharded: it fires every variant over
// ctx.Delta and files the head facts ctx.In lacks by destination shard.
func runShard(variants []DeltaVariant, ctx *Ctx, s, n int) ([]*tuple.Instance, uint64) {
	col := ctx.Stats
	var begin time.Time
	if col.Enabled() {
		begin = time.Now()
	}
	to := make([]*tuple.Instance, n)
	for t := range to {
		to[t] = tuple.NewInstance()
	}
	emitted := uint64(0)
	for _, v := range variants {
		rule := v.Rule
		ctx.DeltaLit = rule.DeltaLit()
		facts, vals := make([]Fact, 0, len(rule.heads)), make([]value.Value, rule.headWidth)
		// The relations of the last head predicate — in the snapshot,
		// and in every destination set once a fact of it is new (in all
		// of them, so that the parts keep one schema, that of a serial
		// delta): a rule emits runs of facts for one head.
		var pred string
		var have *tuple.Relation
		var file []*tuple.Relation
		// Firings tally locally, flushed in one Fired below:
		// per-binding atomic adds on the shared collector contend
		// badly across shard workers.
		var firings uint64
		rule.Enumerate(ctx, func(b Binding) bool {
			for _, f := range rule.appendHeads(facts, vals, b) {
				if f.Pred != pred {
					pred, have, file = f.Pred, ctx.In.Relation(f.Pred), file[:0]
				}
				emitted++
				if have != nil && have.Contains(f.Tuple) {
					continue
				}
				if len(file) == 0 {
					for _, inst := range to {
						file = append(file, inst.Ensure(f.Pred, len(f.Tuple)))
					}
				}
				file[f.Tuple.Shard(n)].Insert(f.Tuple)
			}
			firings++
			return true
		})
		col.Fired(v.Index, firings, 0, 0)
	}
	if col.Enabled() {
		col.ShardWork(s, time.Since(begin).Nanoseconds(), emitted)
	}
	return to, emitted
}
