// Package unchained is a Go implementation of the full family of
// Datalog languages surveyed in "Datalog Unchained" (Victor Vianu,
// PODS 2021): positive Datalog, stratified and well-founded Datalog¬,
// the forward-chaining (inflationary) Datalog¬, Datalog¬¬ with
// retractions, Datalog¬new with value invention, and the
// nondeterministic N-Datalog¬(¬) variants with ⊥ and ∀ extensions —
// plus the classical while/fixpoint languages, relational algebra and
// calculus they are compared against.
//
// The Session type is the high-level entry point:
//
//	s := unchained.NewSession()
//	prog, _ := s.Parse(`
//	    T(X,Y) :- G(X,Y).
//	    T(X,Y) :- G(X,Z), T(Z,Y).
//	`)
//	edb, _ := s.Facts(`G(a,b). G(b,c).`)
//	res, _ := s.EvalContext(ctx, prog, edb, unchained.Stratified)
//	fmt.Print(s.Format(res.Out))
//
// Evaluation takes functional options:
//
//	res, err := s.EvalContext(ctx, prog, edb, unchained.NonInflationary,
//	    unchained.WithStats(unchained.NewStatsCollector()),
//	    unchained.WithMaxStages(1000))
//
// A context deadline or cancellation interrupts every engine between
// stages with a typed error (ErrCanceled/ErrDeadline) and the partial
// result; see docs/API.md. Session is not safe for concurrent use,
// but Fork returns an independent copy sharing no mutable state, so N
// forks evaluate the same parsed programs in parallel.
//
// Each semantics of the paper is a Semantics value; nondeterministic
// programs run through Session.RunNondetContext (one sampled
// computation) and Session.EffectsContext (exhaustive eff(P) with
// poss/cert). The
// internal packages implement the machinery: internal/core holds the
// forward-chaining engines (the paper's contribution),
// internal/declarative the model-theoretic ones, internal/nondet the
// nondeterministic ones, and internal/while, internal/fo,
// internal/ra the classical baselines.
package unchained

import (
	"context"
	"fmt"

	"unchained/internal/analyze"
	"unchained/internal/ast"
	"unchained/internal/core"
	"unchained/internal/declarative"
	"unchained/internal/engine"
	"unchained/internal/eval"
	"unchained/internal/incr"
	"unchained/internal/magic"
	"unchained/internal/nondet"
	"unchained/internal/order"
	"unchained/internal/parser"
	"unchained/internal/stats"
	"unchained/internal/trace"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Re-exported core types, so simple uses need only this package.
type (
	// Program is a parsed program of any dialect in the family.
	Program = ast.Program
	// Atom is a query/fact atom (see Session.ParseAtom).
	Atom = ast.Atom
	// Instance is a database instance.
	Instance = tuple.Instance
	// Tuple is a constant tuple.
	Tuple = tuple.Tuple
	// Universe interns the constants of a session.
	Universe = value.Universe
	// Value is an interned constant.
	Value = value.Value
	// Dialect identifies a language of the family.
	Dialect = ast.Dialect
	// StatsCollector accumulates per-stage/per-rule evaluation
	// statistics (pass one via WithStats).
	StatsCollector = stats.Collector
	// StatsSummary is the immutable result of a collector.
	StatsSummary = stats.Summary
	// Tracer is a structured span-stream sink (pass one via
	// WithTracer); see docs/OBSERVABILITY.md for the event model.
	Tracer = trace.Tracer
	// TraceEvent is one record of the span stream.
	TraceEvent = trace.Event
	// TraceRecorder is the bounded in-memory Tracer.
	TraceRecorder = trace.Recorder
	// PlanCache shares planner-chosen join schedules across
	// evaluations (pass one via WithPlanCache); safe for concurrent
	// use.
	PlanCache = eval.PlanCache
	// PlanCacheStats is a point-in-time snapshot of a PlanCache
	// (hits, misses, resident entries).
	PlanCacheStats = eval.PlanCacheStats
)

// NewPlanCache returns an empty shared plan cache. Hang one off each
// long-lived program to let repeated evaluations reuse join plans;
// read hit/miss counters with its Stats method.
func NewPlanCache() *PlanCache { return eval.NewPlanCache() }

// NewTraceRecorder returns a TraceRecorder keeping the most recent
// capacity events (<= 0 selects the package default).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// Typed evaluation-interruption errors (match with errors.Is). Every
// engine polls its context before every stage, and the matcher of every
// deterministic semantics within one, and stops with one of these
// wrapped with the completed stage count.
var (
	ErrCanceled = engine.ErrCanceled
	ErrDeadline = engine.ErrDeadline
	// ErrInvalidOptions reports an evaluation option outside its
	// domain (a negative bound).
	ErrInvalidOptions = engine.ErrInvalidOptions
)

// NewStatsCollector returns an empty statistics collector.
func NewStatsCollector() *StatsCollector { return stats.New() }

// Semantics selects an evaluation semantics for Session.EvalContext,
// following the map of the paper: the declarative column (Section 3)
// and the forward-chaining column (Section 4).
type Semantics uint8

// The deterministic semantics.
const (
	// MinimalModel is positive Datalog's minimum-model semantics
	// (semi-naive evaluation; Section 3.1).
	MinimalModel Semantics = iota
	// Stratified is stratified Datalog¬ (Section 3.2).
	Stratified
	// WellFounded is the 2-valued reading (true facts) of the
	// well-founded semantics (Section 3.3). Use EvalWellFounded3Context
	// for the full 3-valued model.
	WellFounded
	// Inflationary is Datalog¬ with forward-chaining fixpoint
	// semantics (Section 4.1).
	Inflationary
	// NonInflationary is Datalog¬¬ with retractions (Section 4.2).
	NonInflationary
	// Invent is Datalog¬new with value invention (Section 4.3).
	Invent
	// SemiPositive is semi-positive Datalog¬: negation on extensional
	// relations only (Section 4.5, Theorem 4.7).
	SemiPositive
)

// semanticsTable is the single source of truth tying each Semantics
// to its canonical name, its accepted aliases, and its engine.
// Semantics.String, SemanticsByName and the dispatch of EvalContext and
// EvalOptions all derive from it, so a semantics can never gain a
// printable name without a parseable one or an engine without a name.
var semanticsTable = []struct {
	sem     Semantics
	name    string   // canonical spelling, returned by String
	aliases []string // additional spellings SemanticsByName accepts
	eval    engine.Func
}{
	{MinimalModel, "minimal-model", []string{"datalog"}, declarative.Eval},
	{Stratified, "stratified", nil, declarative.EvalStratified},
	{WellFounded, "well-founded", []string{"wellfounded"}, declarative.EvalWellFounded2},
	{Inflationary, "inflationary", nil, core.EvalInflationary},
	{NonInflationary, "noninflationary", []string{"datalog-neg-neg"}, core.EvalNonInflationary},
	{Invent, "invent", []string{"datalog-new"}, core.EvalInvent},
	{SemiPositive, "semi-positive", []string{"semipositive"}, declarative.EvalSemiPositive},
}

func (s Semantics) String() string {
	if s == SemanticsAuto {
		return "auto"
	}
	for _, e := range semanticsTable {
		if e.sem == s {
			return e.name
		}
	}
	return fmt.Sprintf("Semantics(%d)", uint8(s))
}

// SemanticsByName maps the CLI spellings (canonical names and
// aliases) to Semantics values. It is derived from the same table as
// Semantics.String, so every printable semantics parses back.
var SemanticsByName = func() map[string]Semantics {
	m := make(map[string]Semantics)
	for _, e := range semanticsTable {
		m[e.name] = e.sem
		for _, a := range e.aliases {
			m[a] = e.sem
		}
	}
	m["auto"] = SemanticsAuto
	return m
}()

// SemanticsNames returns the canonical semantics names in definition
// order (for CLI usage strings and API discovery), ending with the
// dispatching "auto" pseudo-semantics.
func SemanticsNames() []string {
	names := make([]string, len(semanticsTable), len(semanticsTable)+1)
	for i, e := range semanticsTable {
		names[i] = e.name
	}
	return append(names, "auto")
}

// evalConfig is the target functional options apply to: the unified
// engine options plus facade-level knobs (the nondet seed and the
// optimizer level/roots).
type evalConfig struct {
	opt      engine.Options
	seed     int64
	optimize OptLevel
	optRoots []string
}

// Opt is a functional evaluation option for the Context methods.
type Opt func(*evalConfig)

// WithStats attaches a statistics collector; the evaluation summary
// is available on the result (and, for partial evaluations, alongside
// the typed interruption error).
func WithStats(c *StatsCollector) Opt { return func(cfg *evalConfig) { cfg.opt.Stats = c } }

// WithMaxStages bounds the number of stages (or iterations/steps for
// the engines whose unit differs); 0 means the engine default.
func WithMaxStages(n int) Opt { return func(cfg *evalConfig) { cfg.opt.MaxStages = n } }

// Parallel was the shard-parallel configuration of WithParallel.
//
// Deprecated: every delta round is serial; Shards is ignored.
type Parallel struct{ Shards int }

// WithParallel does nothing: evaluation has no shard-parallel rounds.
//
// Deprecated: every delta round is serial; drop the option.
func WithParallel(Parallel) Opt { return func(*evalConfig) {} }

// WithSeed fixes the RNG seed of sampled nondeterministic runs.
func WithSeed(seed int64) Opt { return func(cfg *evalConfig) { cfg.seed = seed } }

// WithScan disables hash-index probes (the index-ablation switch).
func WithScan() Opt { return func(cfg *evalConfig) { cfg.opt.Scan = true } }

// WithLiteralOrder disables the cardinality-driven query planner:
// rule bodies are joined in the textual literal-order greedy schedule
// the engines used before the planner existed. Kept for oracle
// comparisons and planner ablation.
func WithLiteralOrder() Opt { return func(cfg *evalConfig) { cfg.opt.LiteralOrder = true } }

// WithPlanCache shares planner-chosen join schedules across
// evaluations through c (see NewPlanCache). Without it each compiled
// rule keeps a private single-entry memo.
func WithPlanCache(c *PlanCache) Opt { return func(cfg *evalConfig) { cfg.opt.Plans = c } }

// WithTracer streams structured evaluation spans (eval → stratum →
// stage → rule) and typed events to t. Repeated/combined uses fan
// out to every sink.
func WithTracer(t Tracer) Opt {
	return func(cfg *evalConfig) { cfg.opt.Tracer = trace.Multi(cfg.opt.Tracer, t) }
}

func buildConfig(ctx context.Context, opts []Opt) *evalConfig {
	cfg := &evalConfig{}
	for _, o := range opts {
		o(cfg)
	}
	cfg.opt.Ctx = ctx
	return cfg
}

// EvalResult is the outcome of EvalContext: the final (or, under a
// typed interruption error, partial) instance, the number of stages
// or rounds completed, and the statistics summary when a collector
// was attached. It is the one result type of every deterministic
// engine (engine.Result).
type EvalResult = engine.Result

// Session ties a universe to parsing and evaluation. A Session is
// not safe for concurrent use; use Fork to evaluate concurrently.
type Session struct {
	// U is the session's value universe. All programs and instances
	// of one session share it.
	U *Universe
}

// NewSession returns a fresh session.
func NewSession() *Session { return &Session{U: value.New()} }

// Fork returns an independent copy of the session. Values — and
// therefore parsed programs and instances — created before the fork
// remain valid in both, so N forks can evaluate the same parsed
// program concurrently (each goroutine uses its own fork).
//
// Forking is O(1): the universe is copied copy-on-write (shared
// interning tables, promoted on the first new constant either side
// interns), and instances are already copy-on-write at the storage
// layer (see docs/STORAGE.md). Calling Fork concurrently from several
// goroutines is safe; the per-request fork in internal/serve does so.
func (s *Session) Fork() *Session { return &Session{U: s.U.Clone()} }

// Parse parses a program in the family's concrete syntax.
func (s *Session) Parse(src string) (*Program, error) { return parser.Parse(src, s.U) }

// MustParse parses a trusted program source, panicking on error.
func (s *Session) MustParse(src string) *Program { return parser.MustParse(src, s.U) }

// ParseAtom parses a single atom (for Query goals).
func (s *Session) ParseAtom(src string) (Atom, error) { return parser.ParseAtom(src, s.U) }

// Facts parses ground facts into a fresh instance.
func (s *Session) Facts(src string) (*Instance, error) { return parser.ParseFacts(src, s.U) }

// MustFacts parses trusted ground facts, panicking on error.
func (s *Session) MustFacts(src string) *Instance { return parser.MustParseFacts(src, s.U) }

// Format renders an instance deterministically.
func (s *Session) Format(in *Instance) string { return in.String(s.U) }

// Sym interns (or looks up) a symbol constant.
func (s *Session) Sym(name string) Value { return s.U.Sym(name) }

// EvalContext evaluates a deterministic program under the chosen
// semantics, bounded by the context: a deadline or cancellation
// interrupts the engine with ErrDeadline/ErrCanceled (wrapped with the
// completed stage count) and the partial result, between stages or
// inside one (whose facts are then not applied).
// For WellFounded the result instance holds the true facts; use
// EvalWellFounded3Context for the 3-valued model.
func (s *Session) EvalContext(ctx context.Context, p *Program, in *Instance, sem Semantics, opts ...Opt) (*EvalResult, error) {
	cfg := buildConfig(ctx, opts)
	if sem == SemanticsAuto {
		var err error
		if sem, err = AutoSemantics(analyze.Analyze(p, &analyze.Options{Tracer: cfg.opt.Tracer})); err != nil {
			return nil, err
		}
	}
	return s.EvalOptions(s.optimizeEval(p, in, sem, cfg), in, sem, &cfg.opt)
}

// EvalOptions is the table lookup under EvalContext: it runs the
// engine of sem on p as given (no optimizer, no auto) with engine
// options the caller built itself, which is what cmd/datalog does from
// its flags. opt may be nil.
func (s *Session) EvalOptions(p *Program, in *Instance, sem Semantics, opt *engine.Options) (*EvalResult, error) {
	for _, e := range semanticsTable {
		if e.sem == sem {
			return e.eval(p, in, s.U, opt)
		}
	}
	return nil, fmt.Errorf("unchained: unknown semantics %v", sem)
}

// WFS is the 3-valued well-founded model (Section 3.3).
type WFS = declarative.WFSResult

// EvalWellFounded3Context computes the full 3-valued well-founded
// model under a context bound.
func (s *Session) EvalWellFounded3Context(ctx context.Context, p *Program, in *Instance, opts ...Opt) (*WFS, error) {
	cfg := buildConfig(ctx, opts)
	return declarative.EvalWellFounded(p, in, s.U, &cfg.opt)
}

// RunNondetContext performs one sampled nondeterministic computation
// under dialect d, reproducible in the seed (WithSeed), bounded by
// the context.
func (s *Session) RunNondetContext(ctx context.Context, p *Program, d Dialect, in *Instance, opts ...Opt) (*nondet.Result, error) {
	cfg := buildConfig(ctx, opts)
	return nondet.Run(p, d, in, s.U, cfg.seed, &cfg.opt)
}

// EffectsContext exhaustively computes eff(P) on small inputs
// (Definition 5.2), enabling poss/cert (Definition 5.10), bounded by
// the context (polled between explored states).
func (s *Session) EffectsContext(ctx context.Context, p *Program, d Dialect, in *Instance, opts ...Opt) (*nondet.EffectSet, error) {
	cfg := buildConfig(ctx, opts)
	return nondet.Effects(p, d, in, s.U, &cfg.opt)
}

// WithOrder returns a copy of the instance extended with Succ, First
// and Last over its active domain (the ordered-database setting of
// Theorem 4.7).
func (s *Session) WithOrder(in *Instance) *Instance {
	return order.WithOrder(in, s.U)
}

// Dialects re-exported for RunNondetContext/EffectsContext and
// Program.Validate.
const (
	DialectDatalog        = ast.DialectDatalog
	DialectDatalogNeg     = ast.DialectDatalogNeg
	DialectDatalogNegNeg  = ast.DialectDatalogNegNeg
	DialectDatalogNew     = ast.DialectDatalogNew
	DialectNDatalogNeg    = ast.DialectNDatalogNeg
	DialectNDatalogNegNeg = ast.DialectNDatalogNegNeg
	DialectNDatalogBot    = ast.DialectNDatalogBot
	DialectNDatalogAll    = ast.DialectNDatalogAll
	DialectNDatalogNew    = ast.DialectNDatalogNew
)

// EvalProvenanceContext runs the inflationary semantics with
// derivation tracking under a context bound and returns the fixpoint
// plus a Provenance for Why queries (see core.Provenance.Render for
// pretty derivation trees).
func (s *Session) EvalProvenanceContext(ctx context.Context, p *Program, in *Instance, opts ...Opt) (*Instance, *core.Provenance, error) {
	cfg := buildConfig(ctx, opts)
	res, prov, err := core.EvalInflationaryProv(p, in, s.U, &cfg.opt)
	if err != nil {
		return nil, nil, err
	}
	return res.Out, prov, nil
}

// MaterializeContext evaluates a program (positive Datalog or
// stratified Datalog¬) and returns an incrementally maintained view:
// every layer deletes by Backward/Forward, only the facts that lost
// their last proof, and inserts semi-naively, with stratified negation
// supported across layers. View.Apply takes one assert/retract batch and returns the
// exact net delta of the whole view. Maintenance operations inherit
// the context bound. Programs whose negation ranges over the active
// domain rather than a relation are rejected — they cannot be
// maintained differentially (see docs/STORE.md).
func (s *Session) MaterializeContext(ctx context.Context, p *Program, in *Instance, opts ...Opt) (*incr.View, error) {
	cfg := buildConfig(ctx, opts)
	// A maintained view can receive future deltas on any predicate,
	// so rewrites resting on no-input-facts assumptions (underivable
	// elimination, inlining) are uncheckable here: NoAssume restricts
	// the pipeline to instance-independent rewrites, which transfer
	// through the maintained == from-scratch invariant.
	if cfg.optimize > OptNone {
		res := s.OptimizeFor(p, Stratified, &OptOptions{Level: cfg.optimize, NoAssume: true})
		if res.Changed {
			p = res.Program
		}
	}
	return incr.Materialize(p, in, s.U, &cfg.opt)
}

// QueryContext answers a single query atom goal-directedly via the
// magic-sets rewriting (positive Datalog only) under a context bound.
// Constant arguments of the query are the bound positions. It returns
// the matching tuples and the evaluation summary (nil unless WithStats
// was passed; on interruption the summary carries the partial
// progress).
func (s *Session) QueryContext(ctx context.Context, p *Program, query Atom, in *Instance, opts ...Opt) (*tuple.Relation, *StatsSummary, error) {
	cfg := buildConfig(ctx, opts)
	// The caller observes only the query predicate, so it is the
	// reachability root for the optimizer.
	if cfg.optimize > OptNone {
		cfg.optRoots = []string{query.Pred}
		p = s.optimizeEval(p, in, MinimalModel, cfg)
	}
	return magic.AnswerStats(p, query, in, s.U, &cfg.opt)
}
