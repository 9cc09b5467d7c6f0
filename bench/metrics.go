package main

import (
	"math"
	"sort"
)

// The workloads, in the order they run. The why of each is what
// BENCHMARK.json and the README print.
type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadInfo{
	{"tc-join", "positive Datalog (TC, same-generation, 3-way join): internal/tuple and the eval matcher do the work, the front end and stage loops almost none"},
	{"neg-stages", "the paper's negation programs under four semantics: many stages with small deltas, COW snapshots, adom enumeration, cycle detection"},
	{"frontend-corpus", "programs/*.dl plus a 265-rule generated program: parse, analyze, optimize, stratify and compile dominate, storage is bypassed"},
	{"incr-updates", "assert/retract batches through store.WAL and incr.View: deletes, index upkeep, DRed and log appends beside reads"},
	{"serve-eval", "POST /v1/eval from a closed-loop client to an in-process daemon: small evaluations, so the request pipeline dominates"},
}

// An end-to-end metric is one a user of the system sees. Bound is the
// share of the parent's median by which it may worsen before a change
// counts as a regression. Driver says whether the metric is in the
// manifest, that is, gated by the driver. fail_share is not because it
// is 0 on a healthy tree (the driver reads it from "attempted" and
// "failed"; a change that raises it at all regresses). The whole-run
// percentiles and the rate are not because the reference box, a small
// guest on a shared host, does not repeat them within any bound the
// manifest allows (see the README); they are printed for the reader and
// compared by paired runs.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Driver bool
}

var unbounded = math.Inf(1)

var endToEnd = []e2eMetric{
	// Input generation, reference computation and verification, daemon
	// boot and the warm-up pass; the quickest of the run's set-ups.
	{"setup_s", "s", "lower", 0.25, true},
	// The mean op time had every piece of the op list run as fast as its
	// fastest repetition in the run (see bestMS in run.go).
	{"op_ms_best", "ms", "lower", 0.25, true},
	// Median and 95th-percentile op wall time over the whole run, and
	// correct ops completed per second of it.
	{"op_ms_p50", "ms", "lower", unbounded, false},
	{"op_ms_p95", "ms", "lower", unbounded, false},
	{"ops_per_s", "1/s", "higher", unbounded, false},
	// Failed, refused or mismatched ops over ops attempted.
	{"fail_share", "ratio", "lower", 0, false},
	// runtime.MemStats TotalAlloc and Mallocs deltas over ops.
	{"alloc_kb_per_op", "KB", "lower", 0.02, true},
	{"mallocs_per_op", "count", "lower", 0.02, true},
	// HeapAlloc after two GCs with the last results, the view or the
	// daemon still referenced, minus the baseline taken before set-up.
	{"live_heap_mb", "MB", "lower", 0.10, true},
}

// moves names an end-to-end metric and the workload on which a layer
// metric is predicted to move it.
type moves struct {
	Metric   string
	Workload string
}

type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Moves  []moves
}

func mv(metric string, workloads ...string) []moves {
	out := make([]moves, len(workloads))
	for i, w := range workloads {
		out[i] = moves{metric, w}
	}
	return out
}

func cat(ms ...[]moves) []moves {
	var out []moves
	for _, m := range ms {
		out = append(out, m...)
	}
	return out
}

const (
	tcJoin    = "tc-join"
	negStages = "neg-stages"
	frontend  = "frontend-corpus"
	incrUpd   = "incr-updates"
	serveEval = "serve-eval"
)

// perLayer lists every per-layer metric of the traced run. A workload
// that never enters a layer reports that layer's metrics as 0.
var perLayer = []layerMetric{
	{"parser.program_us", "us", "lower", mv("op_ms_best", frontend)},
	{"parser.facts_ns_per_fact", "ns", "lower", mv("op_ms_best", tcJoin, serveEval)},
	{"parser.mallocs_per_fact", "count", "lower", mv("mallocs_per_op", tcJoin, serveEval)},
	{"analyze.us_per_rule", "us", "lower", mv("op_ms_best", frontend)},
	{"analyze.mallocs_per_rule", "count", "lower", mv("mallocs_per_op", frontend)},
	{"analyze.op_share", "ratio", "lower", mv("op_ms_best", frontend)},
	{"opt.us_per_rule", "us", "lower", mv("op_ms_best", frontend)},
	{"opt.rewrites", "count", "higher", mv("op_ms_best", frontend)},
	{"opt.rules_removed", "count", "higher", mv("op_ms_best", frontend)},
	{"stratify.us_per_rule", "us", "lower", mv("op_ms_best", frontend)},
	{"eval.compile_us_per_rule", "us", "lower", mv("op_ms_best", frontend)},
	{"eval.enumerate_ns_per_binding", "ns", "lower", mv("op_ms_best", tcJoin)},
	{"eval.enumerate_mallocs_per_binding", "count", "lower", mv("mallocs_per_op", tcJoin)},
	{"eval.firings", "count", "lower", mv("op_ms_best", tcJoin, negStages)},
	{"eval.derived", "count", "lower", mv("op_ms_best", tcJoin, negStages)},
	{"eval.rederived", "count", "lower", mv("op_ms_best", tcJoin, negStages)},
	{"eval.index_probes", "count", "lower", mv("op_ms_best", tcJoin, negStages)},
	{"eval.full_scans", "count", "lower", mv("op_ms_best", tcJoin, negStages)},
	{"eval.useful_share", "ratio", "higher", mv("op_ms_best", tcJoin, negStages)},
	{"eval.plan_cache_hit_share", "ratio", "higher", mv("op_ms_best", serveEval)},
	{"eval.scan_vs_index_ratio", "ratio", "higher", mv("op_ms_best", tcJoin)},
	{"eval.shard2_ratio", "ratio", "higher", mv("op_ms_best", tcJoin)},
	{"tuple.insert_ns", "ns", "lower", mv("op_ms_best", tcJoin, negStages)},
	{"tuple.insert_mallocs", "count", "lower", cat(mv("mallocs_per_op", tcJoin, negStages), mv("alloc_kb_per_op", tcJoin))},
	{"tuple.contains_ns", "ns", "lower", mv("op_ms_best", tcJoin, negStages)},
	{"tuple.contains_mallocs", "count", "lower", mv("mallocs_per_op", tcJoin, negStages)},
	{"tuple.probe_ns", "ns", "lower", mv("op_ms_best", tcJoin, negStages)},
	{"tuple.probe_mallocs", "count", "lower", mv("mallocs_per_op", tcJoin, negStages)},
	{"tuple.delete_ns", "ns", "lower", mv("op_ms_best", incrUpd)},
	{"tuple.delete_mallocs", "count", "lower", mv("mallocs_per_op", incrUpd)},
	{"tuple.snapshot_ns", "ns", "lower", mv("op_ms_best", negStages, serveEval)},
	{"tuple.snapshot_write_ns", "ns", "lower", mv("op_ms_best", negStages, serveEval)},
	{"tuple.cow_snapshots", "count", "lower", mv("op_ms_best", negStages, serveEval)},
	{"tuple.cow_promotions", "count", "lower", mv("op_ms_best", negStages, serveEval)},
	{"tuple.cow_tuples_copied", "count", "lower", mv("alloc_kb_per_op", negStages, serveEval)},
	{"tuple.format_ns_per_fact", "ns", "lower", mv("op_ms_best", tcJoin)},
	{"tuple.format_mallocs_per_fact", "count", "lower", mv("mallocs_per_op", tcJoin)},
	{"tuple.fingerprint_ns_per_fact", "ns", "lower", mv("op_ms_best", negStages)},
	{"tuple.bytes_per_fact", "B", "lower", mv("live_heap_mb", tcJoin)},
	{"tuple.est_share", "ratio", "lower", mv("op_ms_best", tcJoin, negStages)},
	{"value.sym_ns", "ns", "lower", mv("op_ms_best", serveEval)},
	{"value.clone_ns", "ns", "lower", mv("op_ms_best", serveEval)},
	{"declarative.seminaive_ms", "ms", "lower", mv("op_ms_best", tcJoin)},
	{"declarative.stratified_ms", "ms", "lower", mv("op_ms_best", negStages)},
	{"declarative.wfs_ms", "ms", "lower", mv("op_ms_best", negStages)},
	{"declarative.us_per_stage", "us", "lower", mv("op_ms_best", negStages)},
	{"declarative.ns_per_derived", "ns", "lower", mv("op_ms_best", negStages)},
	{"core.inflationary_ms", "ms", "lower", mv("op_ms_best", negStages)},
	{"core.noninflationary_ms", "ms", "lower", mv("op_ms_best", negStages)},
	{"core.us_per_stage", "us", "lower", mv("op_ms_best", negStages)},
	{"core.ns_per_firing", "ns", "lower", mv("op_ms_best", negStages)},
	{"incr.materialize_ms", "ms", "lower", mv("setup_s", incrUpd)},
	{"incr.apply_ms_p50", "ms", "lower", mv("op_ms_best", incrUpd)},
	{"incr.apply_ms_p95", "ms", "lower", mv("op_ms_p95", incrUpd)},
	{"incr.delta_facts_per_batch", "count", "lower", mv("op_ms_best", incrUpd)},
	{"incr.recompute_ratio", "ratio", "higher", mv("op_ms_best", incrUpd)},
	{"store.wal_apply_us_p50", "us", "lower", mv("op_ms_best", incrUpd)},
	{"store.wal_bytes_per_fact", "B", "lower", mv("op_ms_best", incrUpd)},
	{"store.replay_ms", "ms", "lower", mv("setup_s", incrUpd)},
	{"store.compact_ms", "ms", "lower", mv("op_ms_p95", incrUpd)},
	{"serve.req_ms_p99", "ms", "lower", mv("op_ms_p95", serveEval)},
	{"serve.server_wall_ms_p50", "ms", "lower", mv("op_ms_best", serveEval)},
	{"serve.queue_ms_p50", "ms", "lower", mv("op_ms_best", serveEval)},
	{"serve.eval_ms_p50", "ms", "lower", mv("op_ms_best", serveEval)},
	{"serve.rest_ms_p50", "ms", "lower", cat(mv("op_ms_best", serveEval), mv("ops_per_s", serveEval))},
	{"serve.http_overhead_ms_p50", "ms", "lower", mv("op_ms_best", serveEval)},
	{"serve.cache_hit_share", "ratio", "higher", mv("op_ms_best", serveEval)},
	{"serve.shed_share", "ratio", "lower", mv("fail_share", serveEval)},
	{"serve.decode_us", "us", "lower", cat(mv("op_ms_best", serveEval), mv("mallocs_per_op", serveEval))},
	{"serve.encode_us", "us", "lower", cat(mv("op_ms_best", serveEval), mv("mallocs_per_op", serveEval))},
	{"serve.fork_facts_us", "us", "lower", cat(mv("op_ms_best", serveEval), mv("mallocs_per_op", serveEval))},
	{"stats.capture_overhead_share", "ratio", "lower", mv("op_ms_best", serveEval)},
	{"trace.capture_overhead_share", "ratio", "lower", mv("op_ms_best", serveEval)},
	{"bench.trace_overhead_share", "ratio", "lower", nil},
	{"bench.span_sum_share", "ratio", "higher", nil},
	{"bench.engine_format_share", "ratio", "lower", mv("op_ms_best", tcJoin)},
	{"runtime.gc_cycles_per_op", "count", "lower", mv("op_ms_p95", tcJoin, negStages, serveEval)},
	{"runtime.peak_rss_mb", "MB", "lower", mv("live_heap_mb", tcJoin)},
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the smallest sample with at least a share p of the
// samples at or below it. It is always a value that was measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = min(m, x)
	}
	return m
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), which is
// what the driver computes spreads from. It needs two values or more.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worse reports by what share of a the value b is worse than a, for a
// metric whose better direction is given; negative means b is better.
func worse(better string, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
