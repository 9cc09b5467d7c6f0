// Flight-recorder integration: the per-request profile capture the
// pipeline attaches to every admitted call, the /debug/flight
// endpoints, and the request-id tagging of error envelopes. The
// capture is the stats collector the engines already feed and the
// record embeds its summary, so flight records agree with -stats,
// /statsz and /metrics by construction.
package serve

import (
	"net/http"
	"strconv"

	"unchained"
	"unchained/internal/flight"
)

// tagError stamps the request id into the error envelope's details,
// so the id the client saw in X-Request-Id is also in the body (the
// one place that survives copy-paste into a bug report). Returns info
// for chaining.
func tagError(id string, info *ErrorInfo) *ErrorInfo {
	if info.Details == nil {
		info.Details = map[string]any{}
	}
	info.Details["request_id"] = id
	return info
}

// newCapture builds an admitted call's eval options: a stats collector
// (always; this is what makes the recorder's numbers exist) and the
// program's shared plan cache. No tracer: a request that does not ask
// for its trace runs without one. The spare capacity is for what the
// bodies append.
func (s *Server) newCapture(c *call) {
	c.opts = append(make([]unchained.Opt, 0, 8), unchained.WithStats(unchained.NewStatsCollector()))
	if c.entry != nil {
		c.opts = append(c.opts, unchained.WithPlanCache(c.entry.plans))
	}
}

// finish files the flight record of a call that reached the gate: it
// stamps outcome and HTTP status, closes the phase clock (the record's
// wall time is the phases' sum, its queue and eval times the phases of
// that name), folds the record's summary into the service totals and
// charges the tenant's accounting bucket. It runs before the response
// is written, so a client holding its response can read its record;
// the write itself is in unchained_request_duration_seconds only.
func (s *Server) finish(c *call, status int, fail *ErrorInfo) {
	rec := c.rec
	rec.Status = status
	if fail != nil {
		rec.Outcome, rec.Error = fail.Code, fail.Message
	}
	c.begin(c.phase)
	rec.QueueNS, rec.EvalNS, rec.WallNS = rec.Phases.QueueNS, rec.Phases.EvalNS, rec.Phases.Total()
	var derived uint64
	if sum := rec.Summary; sum != nil {
		derived = sum.Derived
		s.stagesRun.Add(uint64(sum.Stages))
		s.cowSnapshots.Add(sum.CowSnapshots)
		s.cowPromotions.Add(sum.CowPromotions)
		s.cowTuples.Add(sum.CowTuplesCopied)
	}
	s.flight.Observe(rec)
	if rec.Outcome == CodeOverloaded || rec.Outcome == CodeQueueTimeout {
		s.tenants.ObserveShed(rec.Tenant)
	} else {
		// A client that gave up queued was not shed by the daemon.
		s.tenants.Observe(rec.Tenant, rec.EvalNS, derived)
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
