// Package flight is the per-request flight recorder of the evaluation
// daemon: one structured profile per evaluation, always on, with
// bounded memory and bounded overhead.
//
// Aggregate surfaces (/metrics, /statsz) say how much work the daemon
// did; the flight recorder says which request was slow, which tenant
// caused it, and where inside the evaluation the time went — queue
// wait vs join plans vs copy-on-write promotion. The
// paper's framing makes one profile schema feasible across all eight
// engines: every member of the family is a stage-based fixpoint loop,
// so "per-stage wall time" and "per-rule join plan" mean the same
// thing whether the engine is positive Datalog or Datalog¬new.
//
// A record does not re-declare an evaluation: it embeds the run's
// stats.Summary, the same value -stats and the "stats" response field
// render, so a flight record cannot disagree with them about the same
// run. What the record adds is the request around it. The pieces:
//
//   - Record: the profile schema (JSON = the slow-query-log JSONL
//     schema, documented in docs/OBSERVABILITY.md).
//   - Phases: where the request's wall time went, boundary to boundary.
//   - Recorder: bounded recent-ring + top-K-slowest heap + slow-query
//     JSONL log with rate-limited slog warnings (recorder.go).
//   - Tenants: bounded-cardinality per-tenant accounting (tenants.go).
//   - W3C traceparent helpers (traceparent.go).
package flight

import (
	"time"

	"unchained/internal/stats"
)

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
	// StartUnixNS is the request arrival time (Unix nanoseconds).
	StartUnixNS int64 `json:"start_unix_ns,omitempty"`
	// Outcome is "ok", "shed", or the wire error code ("deadline",
	// "canceled", "eval_error", "queue_timeout", ...).
	Outcome string `json:"outcome"`
	// Status is the HTTP status the request was answered with (0 for
	// CLI records).
	Status int `json:"status,omitempty"`

	// The wall-time breakdown. Phases partitions the request from
	// arrival to the moment the record is filed; WallNS is its sum, and
	// QueueNS (the admission-queue wait) and EvalNS (the engine runs)
	// are the phases of that name. The response write comes after the
	// record is filed and is in none of them.
	QueueNS int64  `json:"queue_ns,omitempty"`
	EvalNS  int64  `json:"eval_ns,omitempty"`
	WallNS  int64  `json:"wall_ns"`
	Phases  Phases `json:"phases"`

	// Summary is the evaluation itself — engine, stage/firing/derived
	// totals, copy-on-write traffic, join plans, the per-stage
	// breakdown, stage_wall_ns — inlined in
	// the record's JSON (the record's own wall_ns shadows the
	// summary's). Nil for a request that never reached an engine; set
	// it with SetSummary, which applies the record's memory bound.
	*stats.Summary

	// Error is the error message for non-ok outcomes.
	Error string `json:"error,omitempty"`
}

// Phases is where a request's wall time went: one entry per boundary
// the request pipeline has, each holding the nanoseconds between the
// boundary before it and its own (internal/serve marks them; see the
// phase table in docs/OBSERVABILITY.md). A phase the request never
// reached, or that its endpoint does not have, is zero.
type Phases struct {
	DecodeNS   int64 `json:"decode_ns"`
	ResolveNS  int64 `json:"resolve_ns"`
	QueueNS    int64 `json:"queue_ns"`
	FactsNS    int64 `json:"facts_ns"`
	OptimizeNS int64 `json:"optimize_ns"`
	EvalNS     int64 `json:"eval_ns"`
	FormatNS   int64 `json:"format_ns"`
}

// Total is the sum of the phases: the wall time they partition.
func (p *Phases) Total() int64 {
	return p.DecodeNS + p.ResolveNS + p.QueueNS + p.FactsNS + p.OptimizeNS + p.EvalNS + p.FormatNS
}

// NewRecord starts the record of the request (or CLI run) id that
// arrived at endpoint at start. It is "ok" until its owner says
// otherwise.
func NewRecord(id, endpoint string, start time.Time) *Record {
	return &Record{ID: id, Endpoint: endpoint, StartUnixNS: start.UnixNano(), Outcome: "ok"}
}

// SetSummary makes sum the record's evaluation. The recorder retains
// records, so what it keeps of a summary is bounded: the first
// maxRecordStages stage entries (copied when that truncates, so no
// record pins a longer list) and no per-rule breakdown, whose length is
// the client's program's. A summary inside the bounds is kept as it is,
// not copied. A nil summary is a no-op, so callers set unconditionally.
func (r *Record) SetSummary(sum *stats.Summary) {
	if sum == nil {
		return
	}
	if len(sum.PerStage) > maxRecordStages || sum.PerRule != nil {
		kept := *sum
		kept.PerRule = nil
		if len(sum.PerStage) > maxRecordStages {
			kept.PerStage = append([]stats.StageStats(nil), sum.PerStage[:maxRecordStages]...)
			kept.StagesTruncated = true
		}
		sum = &kept
	}
	r.Summary = sum
}
