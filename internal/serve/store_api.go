// Durable named databases and standing-query subscriptions: the
// service boundary over internal/store (pluggable durable EDBs) and
// internal/incr (maintained views).
//
// POST /v1/facts applies one batch of asserts/retracts to a named
// database; with Config.DataDir set each database is a write-ahead-
// logged store under <DataDir>/<name> that survives daemon restarts.
// POST /v1/subscribe evaluates a program against the database once
// and then streams the net delta of every committed batch as
// Server-Sent Events, maintained incrementally (Backward/Forward
// deletion, then semi-naive insertion) rather than recomputed.
//
// Concurrency: a store's value universe is shared by every
// subscription on that database, and interning is not concurrent-safe,
// so each database handle carries one mutex serializing all
// universe-touching work — parsing (interning), batch application, and
// per-subscription view maintenance/formatting. Store watchers only do
// a non-blocking channel send, so commits never block on slow
// subscribers; a subscriber that falls more than Config.SubBuffer
// batches behind is terminated with code "subscription_overflow".
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"unchained"
	"unchained/internal/incr"
	"unchained/internal/store"
)

// dbName constrains database names to path-safe identifiers: they
// become directory names under DataDir.
var dbName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// dbHandle is one open database: the store plus the mutex serializing
// every operation that touches its universe.
type dbHandle struct {
	name string
	mu   sync.Mutex
	st   store.Store
	// sess is the parsing/formatting facade over the store's universe;
	// use only under mu.
	sess *unchained.Session
}

// dbRegistry lazily opens named databases: in-memory stores without a
// data directory, WAL stores under <dir>/<name> with one. Handles stay
// open for the daemon's lifetime (closeAll at shutdown), so the
// aggregate WAL counters reported by /metrics stay monotonic.
type dbRegistry struct {
	dir string
	max int
	mu  sync.Mutex
	m   map[string]*dbHandle
}

func newDBRegistry(dir string, max int) *dbRegistry {
	return &dbRegistry{dir: dir, max: max, m: map[string]*dbHandle{}}
}

func (r *dbRegistry) get(name string) (*dbHandle, *ErrorInfo) {
	if !dbName.MatchString(name) {
		return nil, errInfo(CodeBadRequest, fmt.Sprintf("invalid db name %q (want %s)", name, dbName))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.m[name]; ok {
		return h, nil
	}
	if len(r.m) >= r.max {
		return nil, errInfo(CodeStore, fmt.Sprintf("too many open databases (max %d)", r.max))
	}
	var st store.Store
	var err error
	if r.dir == "" {
		st = store.NewMem()
	} else {
		st, err = store.Open(filepath.Join(r.dir, name), store.Options{})
	}
	if err != nil {
		return nil, errInfo(CodeStore, err.Error())
	}
	h := &dbHandle{name: name, st: st, sess: &unchained.Session{U: st.Universe()}}
	r.m[name] = h
	return h, nil
}

// storeTotals aggregates the point-in-time store statistics across
// open databases for /statsz and /metrics.
type storeTotals struct {
	DBs            int
	WALRecords     uint64
	WALBytes       int64
	WALTruncations uint64
	WALCompactions uint64
}

func (r *dbRegistry) totals() storeTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := storeTotals{DBs: len(r.m)}
	for _, h := range r.m {
		w, ok := h.st.(*store.WAL)
		if !ok {
			continue
		}
		zs := w.Stats()
		t.WALRecords += uint64(zs.Records)
		t.WALBytes += zs.LogBytes
		t.WALTruncations += uint64(zs.Truncations)
		t.WALCompactions += uint64(zs.Compactions)
	}
	return t
}

func (r *dbRegistry) closeAll() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, h := range r.m {
		h.mu.Lock()
		if err := h.st.Close(); err != nil && first == nil {
			first = err
		}
		h.mu.Unlock()
	}
	r.m = map[string]*dbHandle{}
	return first
}

// Close releases the server's durable resources (open database
// stores). Active subscriptions observe the closed store and end.
func (s *Server) Close() error { return s.dbs.closeAll() }

// FactsRequest is the body of POST /v1/facts: one batch of ground
// facts to assert and retract against a named database. Asserts apply
// before retracts; a fact both asserted and retracted ends up absent.
type FactsRequest struct {
	// DB names the database ([A-Za-z0-9][A-Za-z0-9_.-]{0,63}); it is
	// created on first use.
	DB string `json:"db"`
	// Assert and Retract are ground facts in the usual syntax
	// ("G(a,b). G(b,c)."). Either may be empty.
	Assert  string `json:"assert,omitempty"`
	Retract string `json:"retract,omitempty"`
}

// FactsResponse is the body of POST /v1/facts responses.
type FactsResponse struct {
	OK bool   `json:"ok"`
	DB string `json:"db,omitempty"`
	// Seq is the database's sequence number after the batch; batches
	// with no net effect leave it (and the durable log) untouched.
	Seq uint64 `json:"seq"`
	// Asserted and Retracted count the facts that took net effect.
	Asserted  int        `json:"asserted"`
	Retracted int        `json:"retracted"`
	Error     *ErrorInfo `json:"error,omitempty"`
}

// facts parses ground facts into store facts; call under h.mu.
func (h *dbHandle) facts(src string) ([]store.Fact, error) {
	if src == "" {
		return nil, nil
	}
	in, err := h.sess.Facts(src)
	if err != nil {
		return nil, err
	}
	var out []store.Fact
	for _, name := range in.Names() {
		for _, t := range in.Relation(name).SortedTuples(h.sess.U) {
			out = append(out, store.Fact{Pred: name, Tuple: t})
		}
	}
	return out, nil
}

// factsRequest is /v1/facts' part of the pipeline.
type factsRequest struct {
	FactsRequest
	resp FactsResponse
}

func (q *factsRequest) reply(fail *ErrorInfo) any { q.resp.Error = fail; return &q.resp }

func (q *factsRequest) resolve(s *Server, c *call) (fail *ErrorInfo) {
	if c.db, fail = s.dbs.get(q.DB); fail == nil {
		c.rec.Semantics, c.rec.Tenant = "store", "db:"+q.DB
	}
	return fail
}

func (q *factsRequest) run(s *Server, c *call) *ErrorInfo {
	s.engineStart(c)
	defer s.engineDone(c)
	h := c.db
	h.mu.Lock()
	defer h.mu.Unlock()
	var batch store.Batch
	var err error
	if batch.Assert, err = h.facts(q.Assert); err == nil {
		batch.Retract, err = h.facts(q.Retract)
	}
	if err != nil {
		return errInfo(CodeParse, err.Error())
	}
	q.resp.DB = q.DB
	ap, err := h.st.Apply(batch)
	if err != nil {
		return errInfo(CodeStore, err.Error())
	}
	s.storeBatches.Add(1)
	s.storeAsserted.Add(uint64(len(ap.Asserted)))
	s.storeRetracted.Add(uint64(len(ap.Retracted)))
	q.resp.OK = true
	q.resp.Seq = h.st.Seq()
	q.resp.Asserted = len(ap.Asserted)
	q.resp.Retracted = len(ap.Retracted)
	return nil
}

// SubscribeRequest is the body of POST /v1/subscribe: a standing
// query over a named database.
type SubscribeRequest struct {
	// DB names the database (created on first use).
	DB string `json:"db"`
	// Program is the standing query (positive Datalog or stratified
	// Datalog¬). Empty subscribes to the raw EDB.
	Program string `json:"program,omitempty"`
	// Predicates optionally restricts the streamed facts to these
	// predicates; empty streams everything (EDB and derived).
	Predicates []string `json:"predicates,omitempty"`
	// TimeoutMS optionally bounds the subscription's lifetime; 0 means
	// until the client disconnects (the server default timeout does NOT
	// apply — subscriptions are long-lived by design).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SubscribeEvent is the data payload of the SSE events on
// /v1/subscribe: "snapshot" carries Facts (the full view at Seq),
// "delta" carries Added/Removed (the net view change of one committed
// batch), "error" carries the usual error envelope instead.
type SubscribeEvent struct {
	Seq     uint64   `json:"seq"`
	Facts   []string `json:"facts,omitempty"`
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
}

// sseWrite emits one Server-Sent Event and flushes it to the client.
func sseWrite(w http.ResponseWriter, f http.Flusher, event string, data any) error {
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
		return err
	}
	f.Flush()
	return nil
}

// factStrings renders an instance's facts (optionally filtered to a
// predicate set) in the canonical sorted form.
func factStrings(u *unchained.Universe, in *unchained.Instance, filter map[string]bool) []string {
	out := []string{}
	for _, name := range in.Names() {
		if filter != nil && !filter[name] {
			continue
		}
		for _, t := range in.Relation(name).SortedTuples(u) {
			out = append(out, name+t.String(u))
		}
	}
	sort.Strings(out)
	return out
}

// incrFacts converts store facts to view-maintenance facts.
func incrFacts(fs []store.Fact) []incr.Fact {
	out := make([]incr.Fact, len(fs))
	for i, f := range fs {
		out[i] = incr.Fact{Pred: f.Pred, Tuple: f.Tuple}
	}
	return out
}

// subscribeRequest is /v1/subscribe's part of the pipeline, and the
// standing query's live state.
type subscribeRequest struct {
	SubscribeRequest
	filter   map[string]bool
	view     *incr.View
	updates  chan store.Applied
	overflow chan struct{}
}

// reply is only reached before the stream starts, with the bare error
// envelope; once streaming, the pipeline sends the failure as an event.
func (q *subscribeRequest) reply(fail *ErrorInfo) any { return EvalResponse{Error: fail} }

func (q *subscribeRequest) resolve(s *Server, c *call) (fail *ErrorInfo) {
	if c.db, fail = s.dbs.get(q.DB); fail == nil {
		// The subscription holds its admission slot for its whole
		// lifetime: standing queries do evaluation work on every
		// committed batch, so they count against MaxInFlight like any
		// evaluation. The lifetime runs until disconnect, bounded by
		// timeout_ms only when given: the server's default evaluation
		// timeout deliberately does not apply.
		c.timeoutMS, c.standing = q.TimeoutMS, true
		c.rec.Semantics, c.rec.Tenant = "subscribe", sourceKey(q.Program)
	}
	return fail
}

// open materializes the view and registers the watcher under the
// handle mutex: applies are serialized by the same mutex, so no batch
// can commit between the snapshot and the watch registration — the
// stream is gapless from the snapshot's Seq onward.
func (q *subscribeRequest) open(s *Server, c *call) (snapshot SubscribeEvent, unwatch func(), fail *ErrorInfo) {
	h := c.db
	s.engineStart(c)
	defer s.engineDone(c)
	h.mu.Lock()
	defer h.mu.Unlock()
	prog, err := h.sess.Parse(q.Program)
	if err != nil {
		return snapshot, nil, errInfo(CodeParse, err.Error())
	}
	if q.view, err = h.sess.MaterializeContext(c.ctx, prog, h.st.Snapshot()); err != nil {
		return snapshot, nil, evalFailure(err)
	}
	// Config.SubBuffer is how far a subscriber may fall behind.
	q.updates = make(chan store.Applied, s.cfg.SubBuffer)
	q.overflow = make(chan struct{})
	var once sync.Once
	unwatch = h.st.Watch(func(ap store.Applied) {
		select {
		case q.updates <- ap:
		default:
			// Commit path must never block on a slow subscriber: drop
			// the stream, not the writer.
			once.Do(func() { close(q.overflow) })
		}
	})
	return SubscribeEvent{Seq: h.st.Seq(), Facts: factStrings(h.sess.U, q.view.Instance(), q.filter)}, unwatch, nil
}

// maintain brings the view over one committed batch and renders the
// net delta.
func (q *subscribeRequest) maintain(s *Server, c *call, ap store.Applied) (SubscribeEvent, error) {
	h := c.db
	s.engineStart(c)
	defer s.engineDone(c)
	h.mu.Lock()
	defer h.mu.Unlock()
	delta, err := q.view.Apply(incrFacts(ap.Asserted), incrFacts(ap.Retracted))
	if err != nil {
		return SubscribeEvent{}, err
	}
	return SubscribeEvent{
		Seq:     ap.Seq,
		Added:   factStrings(h.sess.U, delta.Added, q.filter),
		Removed: factStrings(h.sess.U, delta.Removed, q.filter),
	}, nil
}

func (q *subscribeRequest) run(s *Server, c *call) *ErrorInfo {
	if len(q.Predicates) > 0 {
		q.filter = map[string]bool{}
		for _, p := range q.Predicates {
			q.filter[p] = true
		}
	}
	snapshot, unwatch, fail := q.open(s, c)
	if fail != nil {
		return fail
	}
	defer unwatch()
	s.subsStarted.Add(1)
	s.subsActive.Add(1)
	defer s.subsActive.Add(-1)

	// ServeHTTP's writer always flushes (statusWriter.Flush).
	c.stream = c.w.(http.Flusher)
	c.w.Header().Set("Content-Type", "text/event-stream")
	c.w.Header().Set("Cache-Control", "no-cache")
	c.w.WriteHeader(http.StatusOK)
	if err := sseWrite(c.w, c.stream, "snapshot", snapshot); err != nil {
		return errInfo(CodeCanceled, err.Error())
	}
	for {
		select {
		case <-c.ctx.Done():
			if c.ctx.Err() == context.DeadlineExceeded {
				return errInfo(CodeDeadline, "subscription timeout reached")
			}
			return errInfo(CodeCanceled, c.ctx.Err().Error())
		case <-q.overflow:
			s.subsOverflows.Add(1)
			return errInfo(CodeSubOverflow,
				fmt.Sprintf("subscriber fell more than %d batches behind; resubscribe for a fresh snapshot", s.cfg.SubBuffer))
		case ap := <-q.updates:
			ev, err := q.maintain(s, c, ap)
			if err != nil {
				return evalFailure(err)
			}
			if len(ev.Added) == 0 && len(ev.Removed) == 0 {
				continue // net-invisible under the predicate filter; stay quiet
			}
			if err := sseWrite(c.w, c.stream, "delta", ev); err != nil {
				return errInfo(CodeCanceled, err.Error())
			}
			s.subsDeltas.Add(1)
			s.subsFacts.Add(uint64(len(ev.Added) + len(ev.Removed)))
		}
	}
}
