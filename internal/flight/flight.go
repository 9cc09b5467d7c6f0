// Package flight is the per-request flight recorder of the evaluation
// daemon: one structured profile per evaluation, always on, with
// bounded memory and bounded overhead.
//
// Aggregate surfaces (/metrics, /statsz) say how much work the daemon
// did; the flight recorder says which request was slow, which tenant
// caused it, and where inside the evaluation the time went — queue
// wait vs join plans vs shard skew vs copy-on-write promotion. The
// paper's framing makes one profile schema feasible across all eight
// engines: every member of the family is a stage-based fixpoint loop,
// so "per-stage wall time" and "per-rule join plan" mean the same
// thing whether the engine is positive Datalog or Datalog¬new.
//
// The package deliberately derives every number from the existing
// instrumentation — stats.Summary counters and the trace span stream —
// so a flight record can never disagree with -stats or /metrics about
// the same run. The pieces:
//
//   - Record: the profile schema (JSON = the slow-query-log JSONL
//     schema, documented in docs/OBSERVABILITY.md).
//   - PlanSink: a trace.Tracer retaining only the planner's join-order
//     spans (est-vs-act cardinalities), so capture does not pay for a
//     full event ring.
//   - Recorder: bounded recent-ring + top-K-slowest heap + slow-query
//     JSONL log with rate-limited slog warnings (recorder.go).
//   - Tenants: bounded-cardinality per-tenant accounting (tenants.go).
//   - W3C traceparent helpers (traceparent.go).
package flight

import (
	"sync"

	"unchained/internal/stats"
	"unchained/internal/trace"
)

// PlanInfo is one rule's planner-chosen join order, captured from the
// SpanPlan trace span the evaluator emits once per distinct plan.
type PlanInfo struct {
	// Rule is the head-predicate label of the planned rule.
	Rule string `json:"rule"`
	// Join is the chosen join chain with estimated-vs-actual
	// cardinalities, e.g. "A(est 12|act 9) ⋈ B(est 3|act 3)".
	Join string `json:"join"`
}

// StageInfo is one stage's slice of a flight record: the same numbers
// as stats.StageStats, trimmed to the fields a slow-query post-mortem
// reads first.
type StageInfo struct {
	Stage     int    `json:"stage"`
	WallNS    int64  `json:"wall_ns"`
	Derived   uint64 `json:"derived,omitempty"`
	Rederived uint64 `json:"rederived,omitempty"`
	Delta     int64  `json:"delta,omitempty"`
}

// ShardInfo is one shard worker's totals across all sharded delta
// rounds of the evaluation — the shard-skew view: one shard with a
// disproportionate WallNS explains a parallel eval that did not speed
// up.
type ShardInfo struct {
	Shard  int    `json:"shard"`
	Rounds uint64 `json:"rounds"`
	WallNS int64  `json:"wall_ns"`
	Facts  uint64 `json:"facts"`
}

// maxRecordStages bounds the per-stage list embedded in one record;
// runs longer than this keep their totals (StageWallNS, Stages) and
// mark StagesTruncated. 2^k-stage Datalog¬¬ counters must not turn one
// flight record into megabytes.
const maxRecordStages = 64

// Record is one request's flight profile. Its JSON rendering is both
// the /debug/flight payload element and the slow-query-log JSONL
// schema.
type Record struct {
	// ID is the request id: the W3C trace id (32 lowercase hex), the
	// same value the client saw in X-Request-Id and the error
	// envelope's details.request_id.
	ID string `json:"id"`
	// SpanID is the daemon's own span id within the trace (16 hex).
	SpanID string `json:"span_id,omitempty"`
	// ParentSpanID is the inbound traceparent's span id, when the
	// request carried one.
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Tenant is the program's sha256 digest (the admission-gate and
	// parse-cache key).
	Tenant string `json:"tenant,omitempty"`
	// Endpoint is the serving endpoint ("/v1/eval", "/v1/query") or
	// "cli" for one-shot cmd/datalog -profile records.
	Endpoint string `json:"endpoint,omitempty"`
	// Semantics is the evaluation semantics ("query" for magic sets).
	Semantics string `json:"semantics,omitempty"`
	// Engine is the engine that actually ran (from the stats summary).
	Engine string `json:"engine,omitempty"`
	// StartUnixNS is the request arrival time (Unix nanoseconds).
	StartUnixNS int64 `json:"start_unix_ns,omitempty"`
	// Outcome is "ok", "shed", or the wire error code ("deadline",
	// "canceled", "eval_error", "queue_timeout", ...).
	Outcome string `json:"outcome"`
	// Status is the HTTP status the request was answered with (0 for
	// CLI records).
	Status int `json:"status,omitempty"`

	// Shards is the effective data-parallel shard count of the run.
	Shards int `json:"shards,omitempty"`

	// The wall-time breakdown: QueueNS is the admission-queue wait,
	// EvalNS the engine run, WallNS the whole request (decode to
	// response write). QueueNS + EvalNS <= WallNS; the remainder is
	// parse/fork/serialization overhead.
	QueueNS int64 `json:"queue_ns,omitempty"`
	EvalNS  int64 `json:"eval_ns,omitempty"`
	WallNS  int64 `json:"wall_ns"`

	// Totals from the stats summary.
	Stages           int    `json:"stages,omitempty"`
	Firings          uint64 `json:"firings,omitempty"`
	Derived          uint64 `json:"derived,omitempty"`
	Rederived        uint64 `json:"rederived,omitempty"`
	ShardRounds      uint64 `json:"shard_rounds,omitempty"`
	ShardFactsMerged uint64 `json:"shard_facts_merged,omitempty"`
	CowSnapshots     uint64 `json:"cow_snapshots,omitempty"`
	CowPromotions    uint64 `json:"cow_promotions,omitempty"`
	CowTuplesCopied  uint64 `json:"cow_tuples_copied,omitempty"`

	// Plans are the planner's chosen join orders with est-vs-act
	// cardinalities, one entry per distinct plan emitted.
	Plans []PlanInfo `json:"plans,omitempty"`

	// PerStage is the stage breakdown (capped at maxRecordStages;
	// StageWallNS keeps the full sum and StagesTruncated marks the
	// cap). PerShard is the per-shard-worker skew view.
	PerStage        []StageInfo `json:"per_stage,omitempty"`
	StageWallNS     int64       `json:"stage_wall_ns,omitempty"`
	StagesTruncated bool        `json:"stages_truncated,omitempty"`
	PerShard        []ShardInfo `json:"per_shard,omitempty"`

	// Error is the error message for non-ok outcomes.
	Error string `json:"error,omitempty"`
}

// FromSummary folds a stats summary into the record's evaluation
// fields. A nil summary is a no-op, so callers fold unconditionally.
func (r *Record) FromSummary(sum *stats.Summary) {
	if sum == nil {
		return
	}
	r.Engine = sum.Engine
	r.Stages = sum.Stages
	r.Firings = sum.Firings
	r.Derived = sum.Derived
	r.Rederived = sum.Rederived
	r.ShardRounds = sum.ShardRounds
	r.ShardFactsMerged = sum.ShardFactsMerged
	r.CowSnapshots = sum.CowSnapshots
	r.CowPromotions = sum.CowPromotions
	r.CowTuplesCopied = sum.CowTuplesCopied
	for _, st := range sum.PerStage {
		r.StageWallNS += st.WallNS
		if len(r.PerStage) < maxRecordStages {
			r.PerStage = append(r.PerStage, StageInfo{
				Stage:     st.Stage,
				WallNS:    st.WallNS,
				Derived:   st.Derived,
				Rederived: st.Rederived,
				Delta:     st.Delta,
			})
		} else {
			r.StagesTruncated = true
		}
	}
	if sum.StagesTruncated {
		r.StagesTruncated = true
	}
	for _, sh := range sum.PerShard {
		r.PerShard = append(r.PerShard, ShardInfo{
			Shard:  sh.Shard,
			Rounds: sh.Rounds,
			WallNS: sh.WallNS,
			Facts:  sh.Facts,
		})
	}
}

// maxPlanSpans bounds how many distinct plan spans one capture
// retains; programs have few rules, so the bound exists only to keep a
// pathological request from growing an unbounded slice.
const maxPlanSpans = 64

// PlanSink is a trace.Tracer that retains only the query planner's
// join-order spans (SpanPlan) and discards everything else. Attaching
// it to a request's collector is what makes flight capture cheap:
// plan spans are emitted once per distinct plan, not per stage or per
// rule firing. Safe for concurrent use.
type PlanSink struct {
	mu      sync.Mutex
	plans   []PlanInfo
	dropped int
}

// Emit implements trace.Tracer.
func (s *PlanSink) Emit(ev trace.Event) {
	if ev.Ev != trace.EvSpan || ev.Span != trace.SpanPlan {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.plans) >= maxPlanSpans {
		s.dropped++
		return
	}
	s.plans = append(s.plans, PlanInfo{Rule: ev.Rule, Join: ev.Name})
}

// Plans returns the captured join plans in emission order.
func (s *PlanSink) Plans() []PlanInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]PlanInfo(nil), s.plans...)
}
