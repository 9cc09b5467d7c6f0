// Package engine is the shared evaluation layer of the repository: one
// Options struct carried by every engine (core, declarative, while,
// nondet, incr, magic, and — mapped from its own options — active),
// and the one stage-loop driver they all run on.
//
//   - Configuration. Options gathers the cross-engine knobs — a
//     context.Context for deadline/cancellation, the stats collector,
//     the stage bound, the Datalog¬¬ conflict policy, and the
//     index-ablation Scan switch — so the engine packages alias it
//     (type Options = engine.Options). EvalCtx derives the matcher
//     environment from it.
//
//   - The stage loop. The paper's whole family is one procedure — fire
//     all rules against the current instance, apply the result, repeat
//     until nothing changes — varied only in what a stage does. Loop
//     (loop.go) is that procedure: it validates the options, polls the
//     context before every stage, brackets the stage in the collector,
//     counts it, shows it to Options.Trace and enforces the stage
//     bound. An engine supplies the step and assembles its result; it
//     never calls BeginStage, EndStage or polls the context itself
//     (`make verify` greps for that). When the context is done the
//     loop stops with a typed error (ErrCanceled or ErrDeadline)
//     wrapped with the completed stage count, and the engine returns
//     its partial progress alongside it. Inside a stage the matcher
//     polls: an engine on the delta kernel, and Datalog¬¬'s and
//     Datalog¬new's, hands its matcher context the context's Done
//     channel (eval.Ctx.Done), whose enumerations stop within 256
//     firings of its closing, and the step returns Cut's error without
//     applying the stage, so one long join does not outlive the
//     deadline either. This is what
//     makes the Turing-complete members of the family (Datalog¬¬,
//     Datalog¬new, the while language — Fig. 1 of the paper) safe to
//     evaluate in a long-lived service: a caller can always bound a
//     call with a deadline and get a clean, attributable failure
//     instead of a hung goroutine.
//
//   - The delta kernel. SemiNaive (seminaive.go) is the step of every
//     engine whose fixpoint only inserts — minimal model, strata, the
//     well-founded Γ, the inflationary stages: round one fires every
//     rule, every later round only the delta variants over last round's
//     new facts.
//
// A nil *Options is valid everywhere and means "all defaults, no
// context, no statistics".
package engine

import (
	"context"
	"errors"
	"fmt"

	"unchained/internal/ast"
	"unchained/internal/eval"
	"unchained/internal/stats"
	"unchained/internal/trace"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Sentinel errors.
var (
	// ErrCanceled reports that the evaluation's context was canceled
	// before or during a stage. Use errors.Is; the wrapped message
	// carries the number of completed stages.
	ErrCanceled = errors.New("engine: evaluation canceled")
	// ErrDeadline reports that the evaluation's context deadline
	// expired before or during a stage. Use errors.Is; the wrapped
	// message reads "deadline exceeded after N stages".
	ErrDeadline = errors.New("engine: deadline exceeded")
	// ErrInvalidOptions reports an Options field outside its domain
	// (any negative bound).
	ErrInvalidOptions = errors.New("engine: invalid options")
)

// ConflictPolicy selects how a Datalog¬¬ stage resolves the
// simultaneous inference of A and ¬A (Section 4.2 of the paper lists
// the four options; the paper adopts PreferPositive and notes the
// choice is not crucial).
type ConflictPolicy uint8

// The conflict policies.
const (
	// PreferPositive keeps A when both A and ¬A are inferred (the
	// paper's chosen semantics).
	PreferPositive ConflictPolicy = iota
	// PreferNegative removes A when both are inferred (option (i)).
	PreferNegative
	// NoOp leaves A as it was in the previous instance (option (ii)).
	NoOp
	// Inconsistent makes the result undefined: evaluation fails with
	// core.ErrInconsistent (option (iii)).
	Inconsistent
)

var conflictPolicyNames = [...]string{
	PreferPositive: "prefer-positive",
	PreferNegative: "prefer-negative",
	NoOp:           "no-op",
	Inconsistent:   "inconsistent",
}

func (c ConflictPolicy) String() string {
	if int(c) < len(conflictPolicyNames) {
		return conflictPolicyNames[c]
	}
	return fmt.Sprintf("ConflictPolicy(%d)", uint8(c))
}

// Options is the unified evaluation configuration. The zero value is
// the default configuration of every engine; fields irrelevant to an
// engine are ignored by it.
type Options struct {
	// Ctx, if non-nil, bounds the evaluation: engines poll it before
	// every stage (and their matchers during one, see Cut) and stop with
	// ErrCanceled/ErrDeadline (wrapped with the completed stage count)
	// when it is done. A nil Ctx means no
	// deadline and no cancellation, exactly as before the field
	// existed.
	Ctx context.Context

	// Scan disables hash-index probes (full-scan matching); used by
	// the index-ablation benchmark.
	Scan bool

	// LiteralOrder disables the cardinality-driven query planner:
	// rule bodies are joined in the seed's literal-order greedy
	// schedule. Kept for oracle comparisons and ablation; the planner
	// is on by default.
	LiteralOrder bool

	// Plans, if non-nil, shares planner-chosen join schedules across
	// evaluations (the daemon hangs one cache off each cached
	// program, so repeated requests skip re-planning). Safe for
	// concurrent use; nil keeps each evaluation's plans in its own
	// matcher context.
	Plans *eval.PlanCache

	// Policy is the Datalog¬¬ conflict policy (default
	// PreferPositive).
	Policy ConflictPolicy

	// MaxStages bounds the number of stages; 0 means the engine
	// default (unbounded for the engines guaranteed to terminate;
	// 1<<20 for Datalog¬¬; 4096 for Datalog¬new). It also bounds the
	// engines whose unit is not the stage: while-loop iterations and
	// the steps of a sampled nondeterministic run (default 1<<20 each).
	MaxStages int

	// MaxStates bounds exhaustive effect enumeration (distinct
	// instance states; default 1<<16). MaxStages deliberately does
	// not feed it: states are memory, not time.
	MaxStates int

	// Trace, if non-nil, is shown every counted stage of the
	// forward-chaining engines: the stage number (1-based) and the
	// facts newly inferred (inflationary, invent) or the full instance
	// state (noninflationary). It is called from exactly one place,
	// the stage-loop driver (Loop), and is what `datalog -stages`
	// prints instance sizes from — the span stream (Tracer) carries
	// counters, not tuples. The instance handed over is the engine's
	// live one (the noninflationary engine writes each stage into it in
	// place; the new facts are a view of the kernel's rows), valid only
	// during the call: a Trace that keeps it must keep a Snapshot of it.
	Trace func(stage int, state *tuple.Instance)

	// Stats, if non-nil, collects per-stage and per-rule evaluation
	// statistics; the summary is attached to the engine's result. A
	// nil collector adds no work and no allocations.
	Stats *stats.Collector

	// Tracer, if non-nil, receives the structured span stream (eval →
	// stratum → stage → rule spans plus retraction/conflict/invention
	// points) for the run. Emission rides on the stats collector:
	// Collector() wires the tracer into Stats, creating a private
	// collector when Stats is nil, so tracing works with or without
	// explicit statistics.
	Tracer trace.Tracer

	// autoStats is the memoized collector Collector() creates when
	// Tracer is set without Stats.
	autoStats *stats.Collector
}

// Validate rejects option values with no meaningful interpretation;
// 0 keeps meaning "use the default" for every bound.
func (o *Options) Validate() error {
	if o == nil {
		return nil
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"MaxStages", o.MaxStages},
		{"MaxStates", o.MaxStates},
	} {
		if f.v < 0 {
			return fmt.Errorf("%w: %s must be >= 0, got %d", ErrInvalidOptions, f.name, f.v)
		}
	}
	return nil
}

// Context returns the evaluation context, never nil.
func (o *Options) Context() context.Context {
	if o == nil || o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// interrupted polls the evaluation context. It returns nil while the
// context is live (or absent) and a typed, stage-stamped error —
// "engine: deadline exceeded after N stages" or "engine: evaluation
// canceled after N stages" — once it is done. Loop calls it before
// every stage; a stage the matcher stopped reports itself through Cut.
func (o *Options) interrupted(stages int) error {
	if o == nil || o.Ctx == nil {
		return nil
	}
	select {
	case <-o.Ctx.Done():
		base := ErrCanceled
		if errors.Is(o.Ctx.Err(), context.DeadlineExceeded) {
			base = ErrDeadline
		}
		return fmt.Errorf("%w after %d stages", base, stages)
	default:
		return nil
	}
}

// Cut reports that the evaluation's context stopped an enumeration of
// stage n under ctx (eval.Ctx.Done): the stage is incomplete, so the
// engine must not apply it, and Cut returns Loop's typed interruption
// stamped with the n-1 stages before it, for the step to return. Nil
// when every enumeration under ctx ran to its end.
func (o *Options) Cut(ctx *eval.Ctx, n int) error {
	if !ctx.Stopped() {
		return nil
	}
	return o.interrupted(n - 1)
}

// IsInterrupt reports whether err is a context interruption produced
// by Loop (canceled or deadline). Engines use it to decide
// whether partial progress should accompany the error.
func IsInterrupt(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline)
}

// Result is the outcome of a deterministic evaluation, whichever
// engine ran it (core, declarative and while alias it, as they do
// Options).
type Result struct {
	// Out is the final instance: the input plus everything derived (the
	// final state for Datalog¬¬ and while programs, the true facts for
	// the 2-valued well-founded reading).
	Out *tuple.Instance
	// Stages counts what the engine iterates: stages short of the final
	// no-change confirmation (Example 4.1), semi-naive rounds, Γ
	// applications, loop-body iterations.
	Stages int
	// Stats is the evaluation summary when Options carried a
	// collector; nil otherwise.
	Stats *stats.Summary
}

// Func is the signature every deterministic engine has: the facade's
// semantics table holds one per row.
type Func func(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error)

// Finish assembles what a run left behind: the instance and stage
// count with the summary, beside a context interruption as partial
// progress; any other failure yields no result.
func Finish(out *tuple.Instance, stages int, col *stats.Collector, err error) (*Result, error) {
	if err != nil && !IsInterrupt(err) {
		return nil, err
	}
	return &Result{Out: out, Stages: stages, Stats: col.Summary()}, err
}

// EvalCtx returns the matcher environment for the enumerations of a run
// over in: the scan switch, the planner switch and the plan cache come
// from the options, probes and plans are charged to col, and no body
// literal is pinned to a delta.
func (o *Options) EvalCtx(col *stats.Collector, in *tuple.Instance, adom []value.Value) *eval.Ctx {
	ctx := &eval.Ctx{In: in, Adom: adom, DeltaLit: -1, Stats: col}
	if o != nil {
		ctx.Scan, ctx.NoPlan, ctx.Plans = o.Scan, o.LiteralOrder, o.Plans
	}
	return ctx
}

// Collector returns the stats collector engines should record into:
// the configured Stats, wired to the Tracer when one is set, or a
// private collector created to carry the span stream when tracing is
// requested without explicit statistics. Nil when neither is set (a
// nil *stats.Collector is itself a valid no-op recorder).
func (o *Options) Collector() *stats.Collector {
	if o == nil {
		return nil
	}
	if o.Stats != nil {
		if o.Tracer != nil {
			o.Stats.SetTracer(o.Tracer)
		}
		return o.Stats
	}
	if o.Tracer != nil {
		if o.autoStats == nil {
			o.autoStats = stats.New()
			o.autoStats.SetTracer(o.Tracer)
		}
		return o.autoStats
	}
	return nil
}

// Conflict returns the configured conflict policy.
func (o *Options) Conflict() ConflictPolicy {
	if o == nil {
		return PreferPositive
	}
	return o.Policy
}

// StageLimit resolves the stage bound against the engine default.
func (o *Options) StageLimit(def int) int {
	if o == nil || o.MaxStages <= 0 {
		return def
	}
	return o.MaxStages
}

// StateLimit resolves the effect-enumeration bound.
func (o *Options) StateLimit(def int) int {
	if o == nil || o.MaxStates <= 0 {
		return def
	}
	return o.MaxStates
}
