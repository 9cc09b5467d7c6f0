// Package trace is the structured evaluation-tracing layer of the
// repository: a zero-dependency span/event stream emitted by every
// engine (core, declarative, WFS, while, nondet, incr, magic, active)
// through the stats collector they already thread.
//
// The stream is hierarchical:
//
//	eval        one engine run (begin on Collector.Reset, end on the
//	            first Summary call)
//	stratum     one stratum of the stratified engine, or one kernel
//	            run over a group of the well-founded engine
//	stage       one application of the immediate consequence operator
//	            (one semi-naive round, one while iteration, ...)
//	rule        one rule's enumeration within a stage (core engines)
//
// eval/stratum/stage spans are emitted as balanced begin/end event
// pairs. Rule spans are the highest-volume kind, so they are emitted
// pre-closed as a single "span" event carrying the duration, and only
// when the rule fired at least once in the stage. Low-frequency
// typed point events (retractions, conflicts, inventions) ride along
// with their stage number.
//
// Sinks implement the one-method Tracer interface. The package ships
// two: Recorder, a bounded in-memory ring buffer (per-request capture
// in the daemon, -explain in the CLI), and JSONL, a streaming
// line-per-event writer (-trace in the CLI). A nil Tracer everywhere
// means tracing is off and costs one branch.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event kinds (the Ev field).
const (
	// EvBegin opens a span (eval, stratum, stage).
	EvBegin = "begin"
	// EvEnd closes the innermost open span of the same kind. Stage
	// ends carry the stage's counter slice and duration; eval ends
	// carry the run totals.
	EvEnd = "end"
	// EvSpan is a self-contained (pre-closed) span: rule work within
	// a stage, with its duration.
	EvSpan = "span"
	// EvPoint is a typed point event (Kind: retract/conflict/invent).
	EvPoint = "point"
)

// Span kinds (the Span field).
const (
	SpanEval    = "eval"
	SpanStratum = "stratum"
	SpanStage   = "stage"
	SpanRule    = "rule"
	// SpanAnalyze wraps a static-analysis run; its EvSpan children
	// carry the per-pass timings (Name: validate, depgraph, dialect,
	// termination).
	SpanAnalyze = "analyze"
	// SpanPlan is a pre-closed span carrying the query planner's
	// chosen join order for one rule (Rule: the head predicate, Name:
	// the join chain with estimated vs. actual cardinalities). Emitted
	// once per distinct plan, not per stage.
	SpanPlan = "plan"
)

// Point kinds (the Kind field).
const (
	KindRetract  = "retract"
	KindConflict = "conflict"
	KindInvent   = "invent"
)

// Event is one record of the span stream. Sinks stamp Seq and TNS;
// producers fill the semantic fields. The JSON rendering is the JSONL
// schema documented in docs/OBSERVABILITY.md.
type Event struct {
	// Seq is the sink-assigned 1-based sequence number.
	Seq uint64 `json:"seq"`
	// TNS is nanoseconds since the sink was created (monotonic).
	TNS int64 `json:"t_ns"`
	// Ev is the event kind: begin, end, span, point.
	Ev string `json:"ev"`
	// Span is the span kind for begin/end/span events.
	Span string `json:"span,omitempty"`
	// Kind is the point kind for point events.
	Kind string `json:"kind,omitempty"`
	// Engine names the engine (eval spans).
	Engine string `json:"engine,omitempty"`
	// Name labels a stratum span: "stratum" for a stratum (and a
	// well-founded group whose facts are all true or false), "gamma"
	// for one side of a well-founded group with unknown facts.
	Name string `json:"name,omitempty"`
	// Stratum is the 1-based stratum number / running gamma count.
	Stratum int `json:"stratum,omitempty"`
	// Stage is the 1-based stage number (monotonic per eval).
	Stage int `json:"stage,omitempty"`
	// Rule is the rule source text (rule spans).
	Rule string `json:"rule,omitempty"`
	// N is the point payload (facts retracted/invented; 1 per
	// conflict).
	N int64 `json:"n,omitempty"`
	// Firings/Derived/Rederived/Retractions/Conflicts/Invented are
	// the counter slice of a stage end (that stage's work) or eval
	// end (run totals); for rule spans, the rule's slice.
	Firings     uint64 `json:"firings,omitempty"`
	Derived     uint64 `json:"derived,omitempty"`
	Rederived   uint64 `json:"rederived,omitempty"`
	Retractions uint64 `json:"retractions,omitempty"`
	Conflicts   uint64 `json:"conflicts,omitempty"`
	Invented    uint64 `json:"invented,omitempty"`
	// Delta is the net instance change reported for a stage.
	Delta int64 `json:"delta,omitempty"`
	// DurNS is the span duration in nanoseconds (end/span events).
	DurNS int64 `json:"dur_ns,omitempty"`
	// Stages is the completed stage count (eval end).
	Stages int `json:"stages,omitempty"`
	// Confirm marks the synthetic close of a final no-change
	// confirmation pass (engines skip EndStage for it; the collector
	// closes it at Summary time so spans stay balanced). Confirm
	// stage ends are not counted in Stages.
	Confirm bool `json:"confirm,omitempty"`
}

// Tracer is a span-stream sink. Emit must be safe for the engine's
// goroutine only; sinks shipped by this package are internally
// locked, so one sink may serve concurrent evaluations.
type Tracer interface {
	Emit(Event)
}

// Multi fans one span stream out to several sinks; nil sinks are
// dropped. It returns nil when no sink remains and the sink itself
// when only one does, so the disabled path stays a nil check.
func Multi(ts ...Tracer) Tracer {
	var live []Tracer
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Tracer

func (m multi) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// DefaultRecorderEvents is the default Recorder capacity.
const DefaultRecorderEvents = 4096

// Recorder is a bounded in-memory sink: a ring buffer keeping the
// most recent events (oldest are dropped once the capacity is
// reached, counted by Dropped). It is safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	cap     int
	buf     []Event
	head    int // index of the oldest buffered event
	n       int // buffered event count
	seq     uint64
	start   time.Time
	dropped uint64
}

// NewRecorder returns a Recorder keeping the last capacity events
// (DefaultRecorderEvents when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderEvents
	}
	return &Recorder{
		cap:   capacity,
		buf:   make([]Event, 0, min(capacity, 1024)),
		start: time.Now(),
	}
}

// Emit implements Tracer: stamp, buffer.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ev.Seq = r.seq
	ev.TNS = time.Since(r.start).Nanoseconds()
	if r.n < r.cap {
		if len(r.buf) < r.cap && r.n == len(r.buf) {
			r.buf = append(r.buf, ev)
		} else {
			r.buf[(r.head+r.n)%r.cap] = ev
		}
		r.n++
		return
	}
	// Full: overwrite the oldest.
	r.buf[r.head] = ev
	r.head = (r.head + 1) % r.cap
	r.dropped++
}

// Events returns the buffered events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// Dropped reports how many events fell off the ring.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// JSONL is a streaming sink writing one JSON object per event to w as
// it is emitted — unbounded, for -trace file export. It is safe for
// concurrent use; the first write error is sticky (see Err) and
// silences later writes.
type JSONL struct {
	mu    sync.Mutex
	w     io.Writer
	seq   uint64
	start time.Time
	err   error
}

// NewJSONL returns a streaming JSONL sink over w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, start: time.Now()}
}

// Emit implements Tracer.
func (t *JSONL) Emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.seq++
	ev.Seq = t.seq
	ev.TNS = time.Since(t.start).Nanoseconds()
	b, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	if _, err := fmt.Fprintf(t.w, "%s\n", b); err != nil {
		t.err = err
	}
}

// Err reports the first write/marshal error, if any.
func (t *JSONL) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
