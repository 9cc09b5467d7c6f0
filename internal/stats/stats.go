// Package stats is the engine-wide evaluation-statistics layer: a
// lightweight instrumentation substrate threaded through every engine
// of the repository (core inflationary/noninflationary/invent,
// declarative naive/semi-naive/stratified/well-founded, while,
// nondet, incr, magic, active).
//
// The central type is Collector. A nil *Collector is fully valid and
// turns every method into a cheap nil-check no-op, so engines thread
// it unconditionally and pay nothing when statistics are disabled
// (zero allocations on the hot path). Counter methods use atomic
// operations, because Collector (the facade's StatsCollector) is
// documented as safe for concurrent counting; no engine of the
// repository counts into one collector from two goroutines.
//
// The paper's narrative is stage-by-stage (Examples 4.1, 4.3, 5.4;
// the flip-flop cycle of Section 4.2), so the collector's unit of
// aggregation is the stage: engines bracket each application of the
// immediate consequence operator with BeginStage/EndStage and the
// collector snapshots its cumulative counters to derive per-stage
// figures. Per-rule firing counts make stage/firing totals usable as
// an empirical complexity probe (in the spirit of Grohe–Schwandtner's
// stage-count results and of semiring-style derivation accounting).
package stats

import (
	"encoding/binary"
	"encoding/json"
	"sync/atomic"
	"time"

	"unchained/internal/trace"
	"unchained/internal/tuple"
)

// maxStageEntries bounds the per-stage detail list. Engines like the
// Datalog¬¬ binary counter run 2^k stages (Theorem 4.8); totals keep
// counting past the cap, only the per-stage breakdown is truncated
// (Summary.StagesTruncated reports it).
const maxStageEntries = 1024

// maxPlans bounds the join-plan list; programs have few rules, so the
// bound only keeps a pathological run from growing an unbounded slice.
const maxPlans = 64

// firstRoom is the room a run's stage and plan lists start with (and
// its plan text, at 64 bytes a plan), so that a short run's lists grow
// once or twice and not at every doubling from one entry.
const firstRoom = 8

// RuleStats is the per-rule breakdown of a Summary.
type RuleStats struct {
	// Rule is the rule's source text (or a symbolic name for engines
	// without a textual rule form, e.g. active-database rules).
	Rule string `json:"rule"`
	// Firings counts body instantiations that emitted head facts. An
	// instantiation that differs from an earlier one only in the
	// variables of an existential block (docs/PLANNER.md) is not
	// visited, so it counts no firing and no rederived fact.
	Firings uint64 `json:"firings"`
	// Derived counts emitted facts that were new at emission time.
	Derived uint64 `json:"derived"`
	// Rederived counts emitted facts filtered as already present.
	Rederived uint64 `json:"rederived"`
}

// StageStats is one stage (one application of the immediate
// consequence operator, one semi-naive round, one while-loop
// iteration, ...) of a Summary.
type StageStats struct {
	// Stage is the 1-based stage number.
	Stage int `json:"stage"`
	// Firings, Derived, Rederived, Retractions, Conflicts and
	// Invented are this stage's slice of the cumulative counters
	// documented on Summary.
	Firings     uint64 `json:"firings"`
	Derived     uint64 `json:"derived"`
	Rederived   uint64 `json:"rederived"`
	Retractions uint64 `json:"retractions,omitempty"`
	Conflicts   uint64 `json:"conflicts,omitempty"`
	Invented    uint64 `json:"invented,omitempty"`
	// Delta is the net instance change the engine reported for the
	// stage (facts actually inserted; may be negative for engines
	// with destructive updates, e.g. the while language).
	Delta int64 `json:"delta"`
	// WallNS is the stage's monotonic wall-clock time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
}

// PlanStats is one rule's planner-chosen join order, filed once per
// distinct plan (a rule is filed again when its estimates change).
type PlanStats struct {
	// Rule is the head-predicate label of the planned rule.
	Rule string `json:"rule"`
	// Join is the chosen join chain with estimated-vs-actual
	// cardinalities, e.g. "A#0 est=12 act=9 ⋈ B#1 est=36 act=3".
	Join string `json:"join"`
}

// Summary is the one record of an evaluation: the immutable outcome of
// a collection run, attached to engine results, rendered as JSON by the
// --stats CLI flag and embedded in the flight record of the run.
type Summary struct {
	// Engine names the engine that produced the summary.
	Engine string `json:"engine"`
	// Stages is the number of completed stages (EndStage calls). For
	// the deterministic forward-chaining engines it equals the
	// Result.Stages stage count (the final no-change confirmation
	// pass is not a stage).
	Stages int `json:"stages"`
	// Firings counts rule firings (body instantiations that emitted
	// head facts), including any final confirmation pass. The matcher
	// does not visit an instantiation that differs from an earlier one
	// only in the variables of an existential block (docs/PLANNER.md),
	// so such a one counts no firing and no rederived fact.
	Firings uint64 `json:"firings"`
	// Derived counts emitted facts that were new when emitted.
	Derived uint64 `json:"derived"`
	// Rederived counts emitted facts filtered as re-derivations.
	Rederived uint64 `json:"rederived"`
	// Retractions counts facts removed (Datalog¬¬ head negation,
	// nondet deletions, active-database delete actions).
	Retractions uint64 `json:"retractions"`
	// Conflicts counts simultaneous A/¬A inferences resolved by a
	// Datalog¬¬ conflict policy.
	Conflicts uint64 `json:"conflicts"`
	// Invented counts fresh values invented (Datalog¬new).
	Invented uint64 `json:"invented"`
	// IndexProbes and FullScans count relation matches answered by a
	// hash-index probe vs. a full scan (the Ctx.Scan ablation branch).
	IndexProbes uint64 `json:"index_probes"`
	FullScans   uint64 `json:"full_scans"`
	// WallNS is the total monotonic wall-clock time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// CowSnapshots, CowPromotions, CowTuplesCopied and
	// CowIndexesCarried expose the storage layer's copy-on-write
	// traffic for the run: instance snapshots taken, relations
	// promoted onto private copies by a post-snapshot write, tuples
	// physically copied by those promotions, and warm hash indexes
	// carried across instead of rebuilt (see docs/STORAGE.md).
	CowSnapshots      uint64 `json:"cow_snapshots,omitempty"`
	CowPromotions     uint64 `json:"cow_promotions,omitempty"`
	CowTuplesCopied   uint64 `json:"cow_tuples_copied,omitempty"`
	CowIndexesCarried uint64 `json:"cow_indexes_carried,omitempty"`
	// Plans are the planner's chosen join orders, in the order the run
	// chose them, capped at maxPlans.
	Plans []PlanStats `json:"plans,omitempty"`
	// PerStage is the stage breakdown, capped at maxStageEntries.
	PerStage []StageStats `json:"per_stage,omitempty"`
	// StageWallNS is the wall time of every completed stage, the ones
	// past the PerStage cap included.
	StageWallNS int64 `json:"stage_wall_ns,omitempty"`
	// StagesTruncated reports that PerStage hit the cap and later
	// stages are summarized only in the totals.
	StagesTruncated bool `json:"stages_truncated,omitempty"`
	// PerRule is the per-rule breakdown for engines that attribute
	// firings to rules.
	PerRule []RuleStats `json:"per_rule,omitempty"`
}

// JSON renders the summary as a single-line JSON object.
func (s *Summary) JSON() string {
	b, err := json.Marshal(s)
	if err != nil {
		return "{}" // unreachable: Summary has no unmarshalable fields
	}
	return string(b)
}

// ruleCounters is the per-rule accumulator (atomic, so Fired is safe
// for concurrent use whichever rule it names).
type ruleCounters struct {
	firings, derived, rederived atomic.Uint64
}

// Collector accumulates evaluation statistics. The zero value is
// ready to use; a nil *Collector is valid and records nothing.
//
// Counter methods (Fired, Retracted, Conflict, Invented, ProbeBatch)
// are safe for concurrent use. Stage bracketing (Reset, BeginStage,
// EndStage, Summary) and plan filing (PlanWanted, PlanText, PlanSpan)
// must stay on the engine's goroutine.
//
// A run costs the collector what it records, and no more: a stage and
// a filed plan are an append each, a rule's text is formatted only when
// a trace span or Summary.PerRule reads it, and Summary shares the
// stage and plan lists instead of copying them. The collector only
// appends to those lists and Reset drops them, so a Summary stays as it
// was when the collector runs on.
type Collector struct {
	engine string
	// ruleName formats rule i's text for the per-rule breakdown; names
	// memoizes it (made on first use, "": not formatted yet).
	ruleName func(i int) string
	names    []string
	rules    []ruleCounters

	firings     atomic.Uint64
	derived     atomic.Uint64
	rederived   atomic.Uint64
	retractions atomic.Uint64
	conflicts   atomic.Uint64
	invented    atomic.Uint64
	probes      atomic.Uint64
	scans       atomic.Uint64

	// plans are the join plans filed. planText holds their texts in
	// filing order, each behind its length (4 bytes, little-endian); a
	// plan's Join stays empty until Summary slices it out of one string
	// of them. The first joined plans have their Join, and their texts
	// end at planText[joinedAt].
	plans    []PlanStats
	planText []byte
	joined   int
	joinedAt int

	start      time.Time
	stageStart time.Time
	mark       counters
	stages     []StageStats
	stageCount int
	stageWall  int64 // over every completed stage, past the cap too
	truncated  bool

	// Tracing state: the collector doubles as the span-stream
	// producer, because it is the one component every engine already
	// brackets its stages through. All fields below are touched only
	// from the engine's goroutine (like stage bracketing).
	tracer     trace.Tracer
	evalOpen   bool // begin-eval emitted, end-eval not yet
	stageOpen  bool // begin-stage emitted, end-stage not yet
	phaseStart time.Time
	ruleStart  time.Time
	ruleMark   counters

	// cow receives the storage layer's copy-on-write counters; engines
	// attach it to their working instance via Instance.SnapshotWith(c.Cow()).
	cow tuple.Counters
}

// Cow returns the collector's copy-on-write counter sink, or nil on a
// nil collector (tuple.Counters methods are nil-safe, so the result
// can be attached to an Instance unconditionally).
func (c *Collector) Cow() *tuple.Counters {
	if c == nil {
		return nil
	}
	return &c.cow
}

// counters is a snapshot of the cumulative counters, used to compute
// per-stage slices by difference.
type counters struct {
	firings, derived, rederived, retractions, conflicts, invented uint64
}

// New returns an empty collector. Callers hand it to an engine via
// that engine's Options; the engine Resets it on entry and attaches
// Summary() to its result.
func New() *Collector { return &Collector{} }

// Enabled reports whether the collector records anything; it is the
// guard engines use before computing expensive method arguments.
func (c *Collector) Enabled() bool { return c != nil }

// SetTracer attaches a span-stream sink: from now on the collector
// mirrors its stage bracketing (and rule/phase/point calls) as
// trace.Events. Passing nil detaches. Must be called before the
// engine runs, from the engine's goroutine.
func (c *Collector) SetTracer(t trace.Tracer) {
	if c == nil {
		return
	}
	c.tracer = t
}

// currentStage is the stage number events emitted right now belong
// to: the open stage if one is open, else the last completed one.
func (c *Collector) currentStage() int {
	if c.stageOpen {
		return c.stageCount + 1
	}
	return c.stageCount
}

// closeEval balances any dangling spans and emits the end-eval
// event. confirm marks a dangling stage as the engines' final
// no-change confirmation pass (the normal Summary path); Reset uses
// confirm=false when closing a run abandoned on an error path.
func (c *Collector) closeEval(confirm bool) {
	if c.tracer == nil || !c.evalOpen {
		return
	}
	cur := c.snapshot()
	if c.stageOpen {
		c.tracer.Emit(trace.Event{
			Ev: trace.EvEnd, Span: trace.SpanStage,
			Stage:       c.stageCount + 1,
			Firings:     cur.firings - c.mark.firings,
			Derived:     cur.derived - c.mark.derived,
			Rederived:   cur.rederived - c.mark.rederived,
			Retractions: cur.retractions - c.mark.retractions,
			Conflicts:   cur.conflicts - c.mark.conflicts,
			Invented:    cur.invented - c.mark.invented,
			DurNS:       time.Since(c.stageStart).Nanoseconds(),
			Confirm:     confirm,
		})
		c.stageOpen = false
	}
	c.tracer.Emit(trace.Event{
		Ev: trace.EvEnd, Span: trace.SpanEval,
		Engine:      c.engine,
		Stages:      c.stageCount,
		Firings:     cur.firings,
		Derived:     cur.derived,
		Rederived:   cur.rederived,
		Retractions: cur.retractions,
		Conflicts:   cur.conflicts,
		Invented:    cur.invented,
		DurNS:       time.Since(c.start).Nanoseconds(),
	})
	c.evalOpen = false
}

// Reset clears all counters and names the engine about to run. rules
// > 0 enables the per-rule breakdown over that many rules (Fired's rule
// index refers to them), and name formats rule i's text the first time
// a trace span or Summary.PerRule reads it, once per rule and run.
// Reset drops the lists the last run's Summary shares, so the next run
// starts new ones. Called by top-level engine entry points, never by
// shared inner fixpoints.
func (c *Collector) Reset(engine string, rules int, name func(i int) string) {
	if c == nil {
		return
	}
	c.closeEval(false) // previous run abandoned without Summary
	c.engine = engine
	c.ruleName, c.names = name, nil
	c.rules = make([]ruleCounters, rules)
	c.firings.Store(0)
	c.derived.Store(0)
	c.rederived.Store(0)
	c.retractions.Store(0)
	c.conflicts.Store(0)
	c.invented.Store(0)
	c.probes.Store(0)
	c.scans.Store(0)
	c.plans, c.planText, c.joined, c.joinedAt = nil, nil, 0, 0
	c.stages = nil
	c.stageCount, c.stageWall = 0, 0
	c.truncated = false
	c.cow.Reset()
	c.start = time.Now()
	c.stageStart = c.start
	c.mark = counters{}
	if c.tracer != nil {
		c.evalOpen = true
		c.stageOpen = false
		c.tracer.Emit(trace.Event{Ev: trace.EvBegin, Span: trace.SpanEval, Engine: engine})
	}
}

func (c *Collector) snapshot() counters {
	return counters{
		firings:     c.firings.Load(),
		derived:     c.derived.Load(),
		rederived:   c.rederived.Load(),
		retractions: c.retractions.Load(),
		conflicts:   c.conflicts.Load(),
		invented:    c.invented.Load(),
	}
}

// BeginStage marks the start of a stage.
func (c *Collector) BeginStage() {
	if c == nil {
		return
	}
	c.stageStart = time.Now()
	c.mark = c.snapshot()
	if c.tracer != nil {
		c.stageOpen = true
		c.tracer.Emit(trace.Event{Ev: trace.EvBegin, Span: trace.SpanStage, Stage: c.stageCount + 1})
	}
}

// EndStage closes the stage opened by the last BeginStage, recording
// the engine-reported net instance change. Engines skip EndStage for
// the final no-change confirmation pass so that the stage count
// matches their Result's stage/round count; the confirmation pass's
// firings still land in the totals.
func (c *Collector) EndStage(delta int) {
	if c == nil {
		return
	}
	c.stageCount++
	wall := time.Since(c.stageStart).Nanoseconds()
	c.stageWall += wall
	if c.tracer == nil && len(c.stages) >= maxStageEntries {
		c.truncated = true
		return
	}
	cur := c.snapshot()
	st := StageStats{
		Stage:       c.stageCount,
		Firings:     cur.firings - c.mark.firings,
		Derived:     cur.derived - c.mark.derived,
		Rederived:   cur.rederived - c.mark.rederived,
		Retractions: cur.retractions - c.mark.retractions,
		Conflicts:   cur.conflicts - c.mark.conflicts,
		Invented:    cur.invented - c.mark.invented,
		Delta:       int64(delta),
		WallNS:      wall,
	}
	if c.tracer != nil {
		c.stageOpen = false
		c.tracer.Emit(trace.Event{
			Ev: trace.EvEnd, Span: trace.SpanStage,
			Stage:       st.Stage,
			Firings:     st.Firings,
			Derived:     st.Derived,
			Rederived:   st.Rederived,
			Retractions: st.Retractions,
			Conflicts:   st.Conflicts,
			Invented:    st.Invented,
			Delta:       st.Delta,
			DurNS:       st.WallNS,
		})
	}
	if len(c.stages) >= maxStageEntries {
		c.truncated = true
		return
	}
	if c.stages == nil {
		c.stages = make([]StageStats, 0, firstRoom)
	}
	c.stages = append(c.stages, st)
}

// name returns rule i's text, formatting it on first use.
func (c *Collector) name(i int) string {
	if c.names == nil {
		c.names = make([]string, len(c.rules))
	}
	if c.names[i] == "" {
		c.names[i] = c.ruleName(i)
	}
	return c.names[i]
}

// BeginRule marks the start of one rule's enumeration within the
// open stage; only meaningful when tracing with per-rule attribution
// (Reset with rules). Without a tracer it returns before reading the
// clock, as EndRule does. Engine goroutine only: the rule mark is one
// field, so two rules cannot be open at once.
func (c *Collector) BeginRule(rule int) {
	if c == nil || c.tracer == nil || rule < 0 || rule >= len(c.rules) {
		return
	}
	rc := &c.rules[rule]
	c.ruleStart = time.Now()
	c.ruleMark = counters{
		firings:   rc.firings.Load(),
		derived:   rc.derived.Load(),
		rederived: rc.rederived.Load(),
	}
}

// EndRule closes the BeginRule bracket, emitting a self-contained
// rule span — only when the rule fired at least once in the stage,
// bounding event volume on long runs.
func (c *Collector) EndRule(rule int) {
	if c == nil || c.tracer == nil || rule < 0 || rule >= len(c.rules) {
		return
	}
	rc := &c.rules[rule]
	f := rc.firings.Load() - c.ruleMark.firings
	if f == 0 {
		return
	}
	c.tracer.Emit(trace.Event{
		Ev: trace.EvSpan, Span: trace.SpanRule,
		Stage:     c.currentStage(),
		Rule:      c.name(rule),
		Firings:   f,
		Derived:   rc.derived.Load() - c.ruleMark.derived,
		Rederived: rc.rederived.Load() - c.ruleMark.rederived,
		DurNS:     time.Since(c.ruleStart).Nanoseconds(),
	})
}

// PlanWanted reports whether a plan filed now would be kept: the list
// has room, or a tracer is attached (the span stream is not bounded
// here). eval asks before it counts a plan's actual cardinalities or
// formats anything.
func (c *Collector) PlanWanted() bool {
	return c != nil && (c.tracer != nil || len(c.plans) < maxPlans)
}

// PlanText returns the collector's plan buffer for the text of the
// next plan to be appended to; PlanSpan files what was appended. eval
// writes a plan's text there, so the texts of a run share one buffer
// and Summary makes one string of them.
func (c *Collector) PlanText() []byte {
	if c == nil {
		return nil
	}
	if c.planText == nil {
		c.planText = make([]byte, 0, firstRoom*64)
	}
	return append(c.planText, 0, 0, 0, 0) // room for the text's length
}

// PlanSpan files the query planner's chosen join order for one rule
// (rule: the head predicate label; text: PlanText's buffer with the
// join chain, with estimated vs. actual cardinalities, appended) and
// mirrors it as a pre-closed span, the one place a plan's text is a
// string of its own. Like the rest of the tracing surface it is the
// engine goroutine's.
func (c *Collector) PlanSpan(rule string, text []byte) {
	if c == nil {
		return
	}
	at := len(c.planText) + 4
	join := text[at:]
	if len(c.plans) < maxPlans {
		binary.LittleEndian.PutUint32(text[at-4:], uint32(len(join)))
		if c.plans == nil {
			c.plans = make([]PlanStats, 0, firstRoom)
		}
		c.plans = append(c.plans, PlanStats{Rule: rule})
		c.planText = text
	}
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{
			Ev: trace.EvSpan, Span: trace.SpanPlan,
			Stage: c.currentStage(),
			Rule:  rule,
			Name:  string(join),
		})
	}
}

// BeginPhase opens a stratum-level span grouping the stages of one
// stratum ("stratum") or one side of a well-founded group with unknown
// facts ("gamma"). n is 1-based.
func (c *Collector) BeginPhase(name string, n int) {
	if c == nil || c.tracer == nil {
		return
	}
	c.phaseStart = time.Now()
	c.tracer.Emit(trace.Event{Ev: trace.EvBegin, Span: trace.SpanStratum, Name: name, Stratum: n})
}

// EndPhase closes the BeginPhase bracket.
func (c *Collector) EndPhase(name string, n int) {
	if c == nil || c.tracer == nil {
		return
	}
	c.tracer.Emit(trace.Event{
		Ev: trace.EvEnd, Span: trace.SpanStratum,
		Name: name, Stratum: n,
		DurNS: time.Since(c.phaseStart).Nanoseconds(),
	})
}

// Fired records firings rule firings that between them emitted derived
// new facts and rederived already-present ones. rule indexes into the
// Reset ruleNames (pass -1 for engines without per-rule attribution).
// Loops that fire many times per rule (eval.Fire) tally locally and
// flush through here once per rule enumeration, so the counters see a
// handful of atomic adds per batch and not per firing. Safe for
// concurrent use.
func (c *Collector) Fired(rule int, firings, derived, rederived uint64) {
	if c == nil || (firings == 0 && derived == 0 && rederived == 0) {
		return
	}
	c.firings.Add(firings)
	c.derived.Add(derived)
	c.rederived.Add(rederived)
	if rule >= 0 && rule < len(c.rules) {
		rc := &c.rules[rule]
		rc.firings.Add(firings)
		rc.derived.Add(derived)
		rc.rederived.Add(rederived)
	}
}

// Retracted records n facts removed from the instance. Called from
// the engine's goroutine only (no engine retracts concurrently), so
// it may emit a trace point.
func (c *Collector) Retracted(n int) {
	if c == nil || n == 0 {
		return
	}
	c.retractions.Add(uint64(n))
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{Ev: trace.EvPoint, Kind: trace.KindRetract, Stage: c.currentStage(), N: int64(n)})
	}
}

// Conflict records one simultaneous A/¬A inference resolved by a
// conflict policy. Engine goroutine only.
func (c *Collector) Conflict() {
	if c == nil {
		return
	}
	c.conflicts.Add(1)
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{Ev: trace.EvPoint, Kind: trace.KindConflict, Stage: c.currentStage(), N: 1})
	}
}

// Invented records n freshly invented values. Engine goroutine only.
func (c *Collector) Invented(n int) {
	if c == nil || n == 0 {
		return
	}
	c.invented.Add(uint64(n))
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{Ev: trace.EvPoint, Kind: trace.KindInvent, Stage: c.currentStage(), N: int64(n)})
	}
}

// ProbeBatch records probes index probes and scans full scans at
// once. Enumerate tallies them in its frame and flushes through here, so
// the counters cost one atomic add per rule enumeration instead of one
// per relation match. Safe for concurrent use.
func (c *Collector) ProbeBatch(probes, scans uint64) {
	if c == nil {
		return
	}
	if probes != 0 {
		c.probes.Add(probes)
	}
	if scans != 0 {
		c.scans.Add(scans)
	}
}

// Summary freezes the current counters into an immutable Summary.
// Returns nil on a nil collector, so engines can assign it to their
// Result unconditionally. PerStage and Plans share the collector's
// lists (see Collector), and the plans' Join texts are slices of one
// string.
func (c *Collector) Summary() *Summary {
	if c == nil {
		return nil
	}
	// Close the span stream: engines call Summary exactly once at the
	// end of a successful run. A still-open stage at this point is
	// the final no-change confirmation pass (engines skip EndStage
	// for it), closed here with Confirm so open/close stay balanced.
	c.closeEval(true)
	cur := c.snapshot()
	s := &Summary{
		Engine:          c.engine,
		Stages:          c.stageCount,
		Firings:         cur.firings,
		Derived:         cur.derived,
		Rederived:       cur.rederived,
		Retractions:     cur.retractions,
		Conflicts:       cur.conflicts,
		Invented:        cur.invented,
		IndexProbes:     c.probes.Load(),
		FullScans:       c.scans.Load(),
		WallNS:          time.Since(c.start).Nanoseconds(),
		PerStage:        c.stages[:len(c.stages):len(c.stages)],
		StageWallNS:     c.stageWall,
		StagesTruncated: c.truncated,
		Plans:           c.joinPlans(),
	}
	cw := c.cow.Load()
	s.CowSnapshots = cw.Snapshots
	s.CowPromotions = cw.Promotions
	s.CowTuplesCopied = cw.TuplesCopied
	s.CowIndexesCarried = cw.IndexesCarried
	for i := range c.rules {
		rc := &c.rules[i]
		if f := rc.firings.Load(); f > 0 {
			s.PerRule = append(s.PerRule, RuleStats{
				Rule:      c.name(i),
				Firings:   f,
				Derived:   rc.derived.Load(),
				Rederived: rc.rederived.Load(),
			})
		}
	}
	return s
}

// joinPlans sets the Join of every plan filed since the last Summary,
// slicing each out of one string of their texts, and returns the plan
// list.
func (c *Collector) joinPlans() []PlanStats {
	if c.joined < len(c.plans) {
		buf := c.planText[c.joinedAt:]
		text, at := string(buf), 0
		for i := c.joined; i < len(c.plans); i++ {
			n := int(binary.LittleEndian.Uint32(buf[at:]))
			c.plans[i].Join, at = text[at+4:at+4+n], at+4+n
		}
		c.joined, c.joinedAt = len(c.plans), len(c.planText)
	}
	return c.plans[:len(c.plans):len(c.plans)]
}
