// Package serve implements the long-lived HTTP/JSON evaluation
// daemon (cmd/unchained-serve): a service boundary over the Session
// facade that parses, caches, and evaluates programs concurrently.
//
// The design leans on three properties built into the engine layer:
//
//   - every engine polls its context between stages, and the matcher
//     inside one, so a per-request deadline (timeout_ms) or a dropped
//     client connection interrupts
//     even the Turing-complete members of the family (Datalog¬¬,
//     Datalog¬new, while) with a typed error and partial statistics;
//   - Universe handles are dense indices, so a program parsed once is
//     valid against any clone of its universe — the parse cache holds
//     an immutable (program, session) pair and each request evaluates
//     against a Fork;
//   - evaluation options are one struct threaded through the facade's
//     functional options, so per-request knobs (max_stages, optimize,
//     stats) need no engine-specific plumbing.
//
// The daemon is multi-tenant: a bounded admission gate (see
// admission.go) caps concurrent evaluations, queues excess requests
// fairly across programs, and sheds load with 429/503 + Retry-After
// once the queue is full or the wait budget is spent.
//
// Endpoints: POST /v1/eval, POST /v1/query (magic-sets), POST
// /v1/analyze (the static program analyzer), POST /v1/facts (batches
// against durable named databases) and POST /v1/subscribe (standing
// queries streaming incrementally maintained deltas — see
// store_api.go and docs/STORE.md), GET /v1/status (build identity +
// effective limits), GET /healthz, GET /statsz, GET /metrics. Every
// POST endpoint shares the ErrorInfo error envelope (stable "code"
// values); see docs/API.md.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"unchained"
	"unchained/internal/flight"
)

// Config tunes the server; the zero value is a usable default.
type Config struct {
	// CacheSize is the LRU parse-cache capacity (default 128).
	CacheSize int
	// DefaultTimeout bounds requests that set no timeout_ms (default
	// 30s; 0 keeps the default, use a negative value for unbounded).
	DefaultTimeout time.Duration
	// MaxTimeout clamps the per-request timeout_ms (default 5m).
	MaxTimeout time.Duration
	// MaxInFlight bounds concurrently evaluating requests (default 64;
	// negative disables admission control). Requests beyond it queue.
	MaxInFlight int
	// QueueDepth bounds the total admission queue across tenants
	// (default 128). Arrivals beyond it are shed with 429.
	QueueDepth int
	// QueueWait bounds how long one request may sit in the admission
	// queue (default 1s). Expiry is reported as 503.
	QueueWait time.Duration
	// Logger, if non-nil, receives one structured record per request
	// (id, method, path, status, duration).
	Logger *slog.Logger

	// SlowQuery marks requests at/over this wall time as slow queries:
	// they are written to SlowQueryLog (when set) and warned about at a
	// rate-limited cadence through Logger. Zero disables slow-query
	// handling; the flight recorder itself is always on.
	SlowQuery time.Duration
	// SlowQueryLog receives slow requests as JSONL flight records.
	SlowQueryLog io.Writer
	// FlightRing and FlightTopK bound the flight recorder's memory
	// (defaults flight.DefaultRingSize / flight.DefaultTopK).
	FlightRing int
	FlightTopK int
	// MaxTenants bounds per-tenant metric cardinality: the first
	// MaxTenants distinct program digests get their own label, the
	// rest share the "other" bucket (default flight.DefaultMaxTenants).
	MaxTenants int

	// DataDir, when set, makes the named databases behind /v1/facts and
	// /v1/subscribe durable: each database is a write-ahead-logged
	// store under <DataDir>/<name> that survives daemon restarts. Empty
	// keeps databases in memory.
	DataDir string
	// SubBuffer bounds how many committed batches one subscription may
	// buffer while its client drains (default 64). A subscriber that
	// falls further behind is terminated with "subscription_overflow"
	// rather than ever blocking the commit path.
	SubBuffer int
	// MaxDBs bounds the number of open named databases (default 64).
	MaxDBs int
}

// DefaultConfig is the configuration New runs with when every field of
// its Config is left zero.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.SubBuffer <= 0 {
		c.SubBuffer = 64
	}
	if c.MaxDBs <= 0 {
		c.MaxDBs = 64
	}
	return c
}

// Server is the HTTP evaluation service. Create one with New; it is
// safe for concurrent use.
type Server struct {
	cfg   Config
	cache *progCache
	mux   *http.ServeMux
	start time.Time
	// gate is the admission controller: a bounded in-flight semaphore
	// with per-tenant (program-digest) fair queuing. nil-safe; disabled
	// when cfg.MaxInFlight is negative.
	gate *gate
	// dbs is the named-database registry behind /v1/facts and
	// /v1/subscribe: in-memory stores, or WAL-backed ones under
	// cfg.DataDir (see store_api.go).
	dbs *dbRegistry

	// series is the table of counters and gauges /statsz and /metrics
	// render (see newSeries); routes are the paths the mux serves, for
	// /v1/status.
	series []series
	routes []string

	// Monotonic service counters, read by series.
	requests       atomic.Uint64
	evalsOK        atomic.Uint64
	evalErrs       atomic.Uint64
	timeouts       atomic.Uint64
	cancels        atomic.Uint64
	badReqs        atomic.Uint64
	inFlight       atomic.Int64
	stagesRun      atomic.Uint64
	timeoutClamped atomic.Uint64
	analyzes       atomic.Uint64
	analyzeErrs    atomic.Uint64
	// Static-optimizer traffic: counted once per memoized variant
	// computation (not per request served from the memo), so the totals
	// measure rewrite work done, mirroring the cache-miss counters.
	optPasses       atomic.Uint64
	optRewrites     atomic.Uint64
	optRulesRemoved atomic.Uint64
	// Storage-layer copy-on-write traffic, summed from the per-request
	// stats summaries.
	cowSnapshots  atomic.Uint64
	cowPromotions atomic.Uint64
	cowTuples     atomic.Uint64
	// Store and subscription traffic (see store_api.go). Batches and
	// fact counts reflect net effect as reported by the store; active
	// subscriptions is a level, the rest are monotonic.
	storeBatches   atomic.Uint64
	storeAsserted  atomic.Uint64
	storeRetracted atomic.Uint64
	subsStarted    atomic.Uint64
	subsDeltas     atomic.Uint64
	subsFacts      atomic.Uint64
	subsOverflows  atomic.Uint64
	subsActive     atomic.Int64

	// Observability surface: request/eval latency histograms,
	// per-semantics eval counters (map built once in New, so lock-free
	// reads), structured request logging.
	reqLat    *latHist
	evalLat   *latHist
	semCounts map[string]*atomic.Uint64
	log       *slog.Logger

	// Flight-recorder surface: the always-on per-request profile store
	// and bounded per-tenant accounting.
	flight  *flight.Recorder
	tenants *flight.Tenants
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:       cfg.withDefaults(),
		cache:     newProgCache(cfg.withDefaults().CacheSize),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		reqLat:    newLatHist(),
		evalLat:   newLatHist(),
		semCounts: map[string]*atomic.Uint64{},
		log:       cfg.Logger,
	}
	if s.cfg.MaxInFlight > 0 {
		s.gate = newGate(s.cfg.MaxInFlight, s.cfg.QueueDepth, s.cfg.QueueWait)
	}
	s.dbs = newDBRegistry(s.cfg.DataDir, s.cfg.MaxDBs)
	s.flight = flight.NewRecorder(flight.Options{
		RingSize:      s.cfg.FlightRing,
		TopK:          s.cfg.FlightTopK,
		SlowThreshold: s.cfg.SlowQuery,
		SlowLog:       s.cfg.SlowQueryLog,
		Logger:        s.cfg.Logger,
	})
	s.tenants = flight.NewTenants(s.cfg.MaxTenants)
	for _, name := range unchained.SemanticsNames() {
		s.semCounts[name] = &atomic.Uint64{}
	}
	s.semCounts["query"] = &atomic.Uint64{}
	s.series = s.newSeries()
	s.post("/v1/eval", func() request { return new(evalRequest) })
	s.post("/v1/query", func() request { return new(queryRequest) })
	s.post("/v1/analyze", func() request { return new(analyzeRequest) })
	s.post("/v1/facts", func() request { return new(factsRequest) })
	s.post("/v1/subscribe", func() request { return new(subscribeRequest) })
	s.handle("/v1/status", s.handleStatus)
	s.handle("/healthz", s.handleHealthz)
	s.handle("/statsz", s.handleStatsz)
	s.handle("/metrics", s.handleMetrics)
	s.handle("/debug/flight", s.handleFlightRecent)
	s.handle("/debug/flight/slowest", s.handleFlightSlowest)
	return s
}

// handle serves path on the mux and lists it in /v1/status.
func (s *Server) handle(path string, h http.HandlerFunc) {
	s.routes = append(s.routes, path)
	s.mux.HandleFunc(path, h)
}

// MetricsHandler exposes just the Prometheus endpoint, for serving on
// a separate ops listener alongside net/http/pprof. Requests through
// it bypass the request counter/logger wrapper.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.handleMetrics)
}

// statusWriter captures the response status for logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so event streaming
// (/v1/subscribe) works through the logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// reqInfo is the per-request identity, established once in ServeHTTP
// and threaded to handlers through the request context: the W3C trace
// id (which doubles as the request id everywhere — X-Request-Id, slog,
// flight records, error envelopes), the daemon's own span id, the
// inbound parent span id when the client sent a traceparent, and the
// arrival time.
type reqInfo struct {
	ID           string
	SpanID       string
	ParentSpanID string
	Start        time.Time
}

// reqInfoKey is the context key for reqInfo.
type reqInfoKey struct{}

// ServeHTTP implements http.Handler: counts, establishes the request
// identity (adopting an inbound W3C traceparent or minting a fresh
// trace id), times the request into the latency histogram, and logs
// one structured record when a logger is configured.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	ri := &reqInfo{SpanID: flight.NewSpanID(), Start: time.Now()}
	if tid, parent, ok := flight.ParseTraceparent(r.Header.Get("traceparent")); ok {
		ri.ID, ri.ParentSpanID = tid, parent
	} else {
		ri.ID = flight.NewTraceID()
	}
	w.Header().Set("X-Request-Id", ri.ID)
	w.Header().Set("Traceparent", flight.FormatTraceparent(ri.ID, ri.SpanID))
	r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri))
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	dur := time.Since(ri.Start)
	s.reqLat.observe(dur)
	if s.log != nil {
		s.log.Info("request",
			"trace_id", ri.ID,
			"span_id", ri.SpanID,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", float64(dur.Nanoseconds())/1e6,
		)
	}
}

// Stable wire error codes: the "code" field of the error envelope.
// Clients should branch on these, never on the message text. New codes
// may be added; existing codes never change meaning.
const (
	CodeBadRequest     = "bad_request" // malformed body or method
	CodeParse          = "parse_error" // program/facts/query did not parse
	CodeUnknownSem     = "unknown_semantics"
	CodeInvalidOptions = "invalid_options"       // optimize not 0 or 2, "shards" named, ...
	CodeEval           = "eval_error"            // evaluation failed
	CodeDeadline       = "deadline"              // timeout_ms or server deadline hit
	CodeCanceled       = "canceled"              // client went away
	CodeOverloaded     = "overloaded"            // admission queue full (429)
	CodeQueueTimeout   = "queue_timeout"         // queued past the wait budget (503)
	CodeAnalyze        = "analyze_error"         // program is inadmissible
	CodeStore          = "store_error"           // durable store open/apply failed
	CodeSubOverflow    = "subscription_overflow" // subscriber fell too far behind
)

// ErrorInfo is the error envelope shared by every endpoint: a stable
// machine-readable Code, a human-readable Message, and optional
// Details (e.g. the list of known semantics, or retry hints).
type ErrorInfo struct {
	// Code is a stable error code (the Code* constants).
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

// errInfo builds the envelope for a code.
func errInfo(code, msg string) *ErrorInfo {
	return &ErrorInfo{Code: code, Message: msg}
}

// Envelope is the request envelope shared by every /v1 POST body.
// Endpoint-specific requests embed it, so the wire shape stays flat
// and identical to the pre-envelope schema.
type Envelope struct {
	// Program is the program source (any dialect of the family).
	Program string `json:"program"`
	// Facts is the EDB as ground facts (ignored by /v1/analyze).
	Facts string `json:"facts,omitempty"`
	// TimeoutMS bounds the evaluation; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Shards is the removed data-parallel shard count. Every delta round
	// is serial: a request that names it, with any value, is rejected
	// with code "invalid_options".
	Shards json.RawMessage `json:"shards,omitempty"`
	// Stats requests the evaluation statistics summary.
	Stats bool `json:"stats,omitempty"`
	// Optimize turns the static rewrites on (2, the CLI's -O2; see
	// docs/OPTIMIZER.md) or off (0). The rewritten program is memoized
	// on the program's parse-cache entry, so repeated requests pay
	// nothing. When a rewrite assumed an intensional relation carries
	// no input facts and the request's facts violate that, the daemon
	// falls back to the program as written. Any other value is rejected
	// with code "invalid_options".
	Optimize int `json:"optimize,omitempty"`
}

// EvalRequest is the body of POST /v1/eval.
type EvalRequest struct {
	Envelope
	// Semantics is a name accepted by SemanticsByName (default
	// "minimal-model").
	Semantics string `json:"semantics"`
	// MaxStages bounds stages/iterations/steps; 0 is the engine
	// default.
	MaxStages int `json:"max_stages"`
	// Trace requests a per-request capture of the structured span
	// stream (bounded to the most recent events), returned in the
	// response's "trace" field.
	Trace bool `json:"trace"`
}

// EvalResponse is the body of POST /v1/eval responses. On a typed
// interruption (deadline/cancel) OK is false, Error is set, and
// Stages/Stats still report the partial progress.
type EvalResponse struct {
	OK        bool                    `json:"ok"`
	Semantics string                  `json:"semantics,omitempty"`
	Output    string                  `json:"output,omitempty"`
	Stages    int                     `json:"stages,omitempty"`
	Stats     *unchained.StatsSummary `json:"stats,omitempty"`
	// Trace is the captured span stream (request field "trace": true);
	// TraceDropped counts events that fell off the bounded ring.
	Trace        []unchained.TraceEvent `json:"trace,omitempty"`
	TraceDropped uint64                 `json:"trace_dropped,omitempty"`
	Error        *ErrorInfo             `json:"error,omitempty"`
}

// QueryRequest is the body of POST /v1/query: a goal-directed
// (magic-sets) query against a positive Datalog program.
type QueryRequest struct {
	Envelope
	// Query is the goal atom, e.g. "T(a,X)"; constant arguments are
	// the bound positions.
	Query string `json:"query"`
}

// QueryResponse is the body of POST /v1/query responses.
type QueryResponse struct {
	OK     bool                    `json:"ok"`
	Tuples []string                `json:"tuples,omitempty"`
	Count  int                     `json:"count"`
	Stats  *unchained.StatsSummary `json:"stats,omitempty"`
	Error  *ErrorInfo              `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

// noShards rejects an envelope that names the removed "shards" field,
// so that a client relying on it learns that it is gone.
func (env *Envelope) noShards() *ErrorInfo {
	if env.Shards == nil {
		return nil
	}
	return errInfo(CodeInvalidOptions, "shards is not supported: every delta round is serial")
}

// countOpt folds one freshly computed optimization variant into the
// service totals (passed to cacheEntry.optimized as its onCompute
// hook, so memo hits cost nothing).
func (s *Server) countOpt(res *unchained.OptimizeResult) {
	s.optPasses.Add(uint64(res.Passes))
	s.optRewrites.Add(uint64(len(res.Rewrites)))
	s.optRulesRemoved.Add(uint64(res.RulesRemoved))
}

// countSemantics attributes one evaluation attempt to its semantics
// ("query" for magic-sets queries).
func (s *Server) countSemantics(name string) {
	if c, ok := s.semCounts[name]; ok {
		c.Add(1)
	}
}

// resolveProgram is the resolve step of the endpoints that evaluate a
// program: the envelope's optimizer switch and timeout, and the
// parse-cache entry whose digest is the tenant.
func (s *Server) resolveProgram(c *call, env *Envelope, semantics string) *ErrorInfo {
	if fail := env.noShards(); fail != nil {
		return fail
	}
	if env.Optimize != 0 && env.Optimize != 2 {
		fail := errInfo(CodeInvalidOptions, fmt.Sprintf("optimize (%d) must be 0 or 2", env.Optimize))
		fail.Details = map[string]any{"optimize": env.Optimize}
		return fail
	}
	entry, err := s.cache.get(env.Program)
	if err != nil {
		return errInfo(CodeParse, err.Error())
	}
	c.entry, c.timeoutMS = entry, env.TimeoutMS
	c.rec.Semantics, c.rec.Tenant = semantics, entry.key
	return nil
}

// variant substitutes the memoized rewrite of the cached program when
// its emptiness assumptions hold against this request's facts, and
// falls back to the program as written otherwise (or at level 0).
func (s *Server) variant(c *call, level int, noInline bool, in *unchained.Instance) *unchained.Program {
	if level == 0 {
		return c.entry.prog
	}
	if ores := c.entry.optimized(noInline, s.countOpt); ores != nil && unchained.OptAssumptionsHold(ores, in) {
		return ores.Program
	}
	return c.entry.prog
}

// evalRequest is /v1/eval's part of the pipeline.
type evalRequest struct {
	EvalRequest
	resp EvalResponse
	sem  unchained.Semantics
}

func (q *evalRequest) reply(fail *ErrorInfo) any { q.resp.Error = fail; return &q.resp }

func (q *evalRequest) resolve(s *Server, c *call) *ErrorInfo {
	name := q.Semantics
	if name == "" {
		name = "minimal-model"
	}
	var ok bool
	if q.sem, ok = unchained.SemanticsByName[name]; !ok {
		fail := errInfo(CodeUnknownSem,
			fmt.Sprintf("unknown semantics %q (one of %v)", name, unchained.SemanticsNames()))
		fail.Details = map[string]any{"semantics": unchained.SemanticsNames()}
		return fail
	}
	return s.resolveProgram(c, &q.Envelope, q.sem.String())
}

func (q *evalRequest) run(s *Server, c *call) *ErrorInfo {
	// The fork gives this request a private universe: the cached parse
	// stays valid (dense handles survive cloning) and concurrent
	// requests never contend.
	sess := c.entry.base.Fork()
	in, err := sess.Facts(q.Facts)
	if err != nil {
		return errInfo(CodeParse, err.Error())
	}
	c.begin(&c.rec.Phases.OptimizeNS)
	opts := append(c.opts, unchained.WithMaxStages(q.MaxStages))
	var rec *unchained.TraceRecorder
	if q.Trace {
		rec = unchained.NewTraceRecorder(0)
		opts = append(opts, unchained.WithTracer(rec))
	}
	// "auto" is the semantics the program's analysis recommends. The
	// entry memoizes the report, so only the first such request for a
	// program analyzes it, under its admission slot like /v1/analyze;
	// the request stays "auto" where it is counted and recorded.
	q.resp.Semantics = c.rec.Semantics
	sem := q.sem
	if sem == unchained.SemanticsAuto {
		if sem, err = unchained.AutoSemantics(c.entry.report()); err != nil {
			return evalFailure(err)
		}
	}
	prog := s.variant(c, q.Optimize, !unchained.OptInlineSafe(sem, q.MaxStages), in)

	s.engineStart(c)
	res, err := sess.EvalContext(c.ctx, prog, in, sem, opts...)
	s.engineDone(c)

	if res != nil {
		q.resp.Stages = res.Stages
		c.rec.SetSummary(res.Stats)
		// Gate on the request flag: the flight recorder attaches a
		// collector to every request, so res.Stats is populated even
		// when the client did not ask for "stats".
		if q.Stats {
			q.resp.Stats = res.Stats
		}
	}
	if rec != nil {
		q.resp.Trace = rec.Events()
		q.resp.TraceDropped = rec.Dropped()
	}
	if err != nil {
		return evalFailure(err)
	}
	s.evalsOK.Add(1)
	q.resp.OK = true
	q.resp.Output = sess.Format(res.Out)
	return nil
}

// queryRequest is /v1/query's part of the pipeline.
type queryRequest struct {
	QueryRequest
	resp QueryResponse
}

func (q *queryRequest) reply(fail *ErrorInfo) any { q.resp.Error = fail; return &q.resp }

func (q *queryRequest) resolve(s *Server, c *call) *ErrorInfo {
	return s.resolveProgram(c, &q.Envelope, "query")
}

func (q *queryRequest) run(s *Server, c *call) *ErrorInfo {
	sess := c.entry.base.Fork() // as on /v1/eval
	in, err := sess.Facts(q.Facts)
	var goal unchained.Atom
	if err == nil {
		goal, err = sess.ParseAtom(q.Query)
	}
	if err != nil {
		return errInfo(CodeParse, err.Error())
	}
	c.begin(&c.rec.Phases.OptimizeNS)
	// Magic-sets queries run over minimal-model semantics (timing-safe,
	// no stage bound), so the full memoized variant applies.
	prog := s.variant(c, q.Optimize, false, in)

	s.engineStart(c)
	rel, summary, err := sess.QueryContext(c.ctx, prog, goal, in, c.opts...)
	s.engineDone(c)

	c.rec.SetSummary(summary)
	if q.Stats { // as on /v1/eval: the collector is always attached
		q.resp.Stats = summary
	}
	if err != nil {
		return evalFailure(err)
	}
	s.evalsOK.Add(1)
	q.resp.OK = true
	for _, t := range rel.SortedTuples(sess.U) {
		q.resp.Tuples = append(q.resp.Tuples, goal.Pred+t.String(sess.U))
	}
	q.resp.Count = len(q.resp.Tuples)
	return nil
}

// AnalyzeRequest is the body of POST /v1/analyze: static analysis of
// a program, no facts and no evaluation. Only the envelope's Program
// field is consulted; the evaluation knobs are ignored.
type AnalyzeRequest struct {
	Envelope
}

// AnalyzeResponse is the body of POST /v1/analyze responses. OK is
// false when the report carries error-severity diagnostics (the
// program is inadmissible); the report is still returned so clients
// see every finding.
type AnalyzeResponse struct {
	OK     bool                      `json:"ok"`
	Report *unchained.AnalysisReport `json:"report,omitempty"`
	Error  *ErrorInfo                `json:"error,omitempty"`
}

// analyzeRequest is /v1/analyze's part of the pipeline.
type analyzeRequest struct {
	AnalyzeRequest
	resp AnalyzeResponse
}

func (q *analyzeRequest) reply(fail *ErrorInfo) any { q.resp.Error = fail; return &q.resp }

func (q *analyzeRequest) resolve(s *Server, c *call) *ErrorInfo {
	// Only the program and the timeout are consulted; the evaluation
	// knobs are ignored, so they are not validated either. The removed
	// "shards" is rejected here as on every endpoint.
	if fail := q.noShards(); fail != nil {
		return fail
	}
	entry, err := s.cache.get(q.Program)
	if err != nil {
		return errInfo(CodeParse, err.Error())
	}
	c.entry, c.timeoutMS = entry, q.TimeoutMS
	c.rec.Semantics, c.rec.Tenant = "analyze", entry.key
	return nil
}

func (q *analyzeRequest) run(s *Server, c *call) *ErrorInfo {
	// The front end's analysis is filed with its rewrites.
	c.begin(&c.rec.Phases.OptimizeNS)
	s.analyzes.Add(1)
	q.resp.Report = c.entry.report()
	if q.resp.Report.Diags.HasErrors() {
		// Inadmissible programs are analysis successes but evaluation
		// non-starters; count them distinctly so dashboards can tell
		// "clients lint broken programs" from daemon trouble.
		s.analyzeErrs.Add(1)
		return errInfo(CodeAnalyze, q.resp.Report.Diags.Err().Error())
	}
	q.resp.OK = true
	return nil
}

// Limits is the /v1/status view of the server's effective knobs:
// everything a client needs to know to shape requests (ceilings,
// defaults, admission capacity).
type Limits struct {
	MaxInFlight      int   `json:"max_in_flight"`
	QueueDepth       int   `json:"queue_depth"`
	QueueWaitMS      int64 `json:"queue_wait_ms"`
	DefaultTimeoutMS int64 `json:"default_timeout_ms"`
	MaxTimeoutMS     int64 `json:"max_timeout_ms"`
	MaxBodyBytes     int64 `json:"max_body_bytes"`
	CacheSize        int   `json:"cache_size"`
}

// FlightLimits is the /v1/status view of the flight recorder: its
// memory bounds, the slow-query threshold, the tenant-cardinality
// bound, and the monotonic record counters.
type FlightLimits struct {
	RingSize    int    `json:"ring_size"`
	TopK        int    `json:"top_k"`
	SlowQueryMS int64  `json:"slow_query_ms"`
	MaxTenants  int    `json:"max_tenants"`
	Records     uint64 `json:"records"`
	SlowQueries uint64 `json:"slow_queries"`
}

// StatusResponse is the body of GET /v1/status: build identity, the
// supported semantics, and the effective limits. Unlike /statsz it
// carries configuration, not counters — poll /statsz or /metrics for
// traffic.
type StatusResponse struct {
	Service   string   `json:"service"`
	GoVersion string   `json:"go_version"`
	Revision  string   `json:"revision,omitempty"`
	UptimeMS  int64    `json:"uptime_ms"`
	Semantics []string `json:"semantics"`
	Endpoints []string `json:"endpoints"`
	Limits    Limits   `json:"limits"`
	// Flight describes the flight recorder (bounds + record counts);
	// browse records at /debug/flight and /debug/flight/slowest.
	Flight FlightLimits `json:"flight"`
	// Tenants is the per-tenant resource table, busiest first, bounded
	// at Flight.MaxTenants named buckets plus "other".
	Tenants []flight.TenantStats `json:"tenants,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rev := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				rev = kv.Value
			}
		}
	}
	ringSize, topK, slowThresh := s.flight.Bounds()
	total, slowTotal := s.flight.Totals()
	writeJSON(w, http.StatusOK, StatusResponse{
		Service:   "unchained-serve",
		GoVersion: runtime.Version(),
		Revision:  rev,
		UptimeMS:  time.Since(s.start).Milliseconds(),
		Semantics: unchained.SemanticsNames(),
		Endpoints: s.routes,
		Flight: FlightLimits{
			RingSize:    ringSize,
			TopK:        topK,
			SlowQueryMS: slowThresh.Milliseconds(),
			MaxTenants:  s.tenants.Bound(),
			Records:     total,
			SlowQueries: slowTotal,
		},
		Tenants: s.tenants.Snapshot(),
		Limits: Limits{
			MaxInFlight:      s.cfg.MaxInFlight,
			QueueDepth:       s.cfg.QueueDepth,
			QueueWaitMS:      s.cfg.QueueWait.Milliseconds(),
			DefaultTimeoutMS: s.cfg.DefaultTimeout.Milliseconds(),
			MaxTimeoutMS:     s.cfg.MaxTimeout.Milliseconds(),
			MaxBodyBytes:     maxBodyBytes,
			CacheSize:        s.cfg.CacheSize,
		},
	})
}

// Healthz is the body of GET /healthz.
type Healthz struct {
	Status   string `json:"status"`
	UptimeMS int64  `json:"uptime_ms"`
	InFlight int64  `json:"in_flight"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Healthz{
		Status:   "ok",
		UptimeMS: time.Since(s.start).Milliseconds(),
		InFlight: s.inFlight.Load(),
	})
}
