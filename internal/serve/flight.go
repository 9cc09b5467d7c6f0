// Flight-recorder integration: the per-request profile capture the
// pipeline attaches to every admitted call, the /debug/flight
// endpoints, and the request-id tagging of error envelopes. The
// capture rides the same stats collector and trace span stream the
// engines already feed, so flight records agree with -stats, /statsz
// and /metrics by construction.
package serve

import (
	"net/http"
	"strconv"
	"time"

	"unchained"
	"unchained/internal/flight"
)

// tagError stamps the request id into the error envelope's details,
// so the id the client saw in X-Request-Id is also in the body (the
// one place that survives copy-paste into a bug report). Returns info
// for chaining.
func (s *Server) tagError(ri *reqInfo, info *ErrorInfo) *ErrorInfo {
	if info.Details == nil {
		info.Details = map[string]any{}
	}
	info.Details["request_id"] = ri.ID
	return info
}

// newCapture builds an admitted call's eval options: the resolved
// parallelism, a stats collector (always; this is what makes the
// recorder's numbers exist), the plan sink as tracer, and the
// program's shared plan cache. The spare capacity is for what the
// bodies append.
func (s *Server) newCapture(c *call) {
	c.plans = &flight.PlanSink{}
	c.opts = append(make([]unchained.Opt, 0, 8),
		unchained.WithParallel(c.par),
		unchained.WithStats(unchained.NewStatsCollector()),
		unchained.WithTracer(c.plans),
	)
	if c.entry != nil {
		c.opts = append(c.opts, unchained.WithPlanCache(c.entry.plans))
	}
}

// finish files the flight record of a call that reached the gate:
// outcome and HTTP status, the queue/eval/wall breakdown, the stats
// summary's per-stage and per-shard slices, and the captured join
// plans. It also folds the summary into the service totals and charges
// the tenant's accounting bucket.
func (s *Server) finish(c *call, status int, fail *ErrorInfo) {
	rec := &flight.Record{
		ID:           c.ri.ID,
		SpanID:       c.ri.SpanID,
		ParentSpanID: c.ri.ParentSpanID,
		Tenant:       c.tenant,
		Endpoint:     c.endpoint,
		Semantics:    c.semantics,
		StartUnixNS:  c.ri.Start.UnixNano(),
		Outcome:      "ok",
		Status:       status,
		Shards:       c.par.Shards,
		QueueNS:      c.queueWait.Nanoseconds(),
		EvalNS:       c.evalDur.Nanoseconds(),
		WallNS:       time.Since(c.ri.Start).Nanoseconds(),
	}
	if fail != nil {
		rec.Outcome, rec.Error = fail.Code, fail.Message
	}
	if c.plans != nil { // nil for a request the gate turned away
		rec.Plans = c.plans.Plans()
	}
	rec.FromSummary(c.sum)
	s.countCow(c.sum)
	s.flight.Observe(rec)
	if rec.Outcome == CodeOverloaded || rec.Outcome == CodeQueueTimeout {
		s.tenants.ObserveShed(c.tenant)
	} else {
		// A client that gave up queued was not shed by the daemon.
		s.tenants.Observe(c.tenant, rec.EvalNS, rec.Derived)
	}
}

// flightPage is the JSON body of the /debug/flight endpoints.
type flightPage struct {
	// Count is len(Records).
	Count int `json:"count"`
	// Total and Slow are the recorder's monotonic counters (records
	// observed, records at/over the slow-query threshold).
	Total uint64 `json:"total"`
	Slow  uint64 `json:"slow"`
	// Records is the page: recent (newest first) or slowest (slowest
	// first).
	Records []*flight.Record `json:"records"`
}

// parseLimit reads an optional ?limit= query parameter.
func parseLimit(r *http.Request, def int) int {
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// handleFlightRecent serves GET /debug/flight: the in-memory ring of
// the most recent flight records, newest first (?limit=N trims).
func (s *Server) handleFlightRecent(w http.ResponseWriter, r *http.Request) {
	recs := s.flight.Recent()
	if lim := parseLimit(r, len(recs)); lim < len(recs) {
		recs = recs[:lim]
	}
	total, slow := s.flight.Totals()
	writeJSON(w, http.StatusOK, flightPage{Count: len(recs), Total: total, Slow: slow, Records: recs})
}

// handleFlightSlowest serves GET /debug/flight/slowest: the top-K
// slowest requests since the daemon started, slowest first.
func (s *Server) handleFlightSlowest(w http.ResponseWriter, r *http.Request) {
	recs := s.flight.Slowest()
	if lim := parseLimit(r, len(recs)); lim < len(recs) {
		recs = recs[:lim]
	}
	total, slow := s.flight.Totals()
	writeJSON(w, http.StatusOK, flightPage{Count: len(recs), Total: total, Slow: slow, Records: recs})
}
