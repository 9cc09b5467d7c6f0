// The request pipeline: the one path every /v1 POST endpoint takes.
//
//	POST check → decode → resolve → admit → context → capture → run
//	           → classify and count → record → write
//
// An endpoint contributes a request type with three methods (resolve,
// run, reply); the body bound, the admission slot, the deadline, the
// flight capture and record, the phase clock, the code → (HTTP status,
// counter) table and the error envelope happen here, once. Datalog¬new
// is Turing-complete, so "every request passes the same gate, deadline
// and recorder" has to hold by construction.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"unchained"
	"unchained/internal/flight"
)

// request is one endpoint's part of the pipeline. The value embeds the
// wire request (it is what the body decodes into) and carries what
// resolve found and the response run fills.
type request interface {
	// resolve validates the decoded body and names, on c.rec, the
	// semantics and the tenant the request is admitted and accounted
	// under. It sets the tenant last: a call with a tenant has reached
	// the gate.
	resolve(s *Server, c *call) *ErrorInfo
	// run does the endpoint's own work, holding an admission slot:
	// c.ctx carries the deadline, c.opts attach the flight capture,
	// engineStart/engineDone bracket each engine run, and a run that
	// produced a stats summary hands it to c.rec.
	run(s *Server, c *call) *ErrorInfo
	// reply returns the response body, carrying fail when the request
	// failed; the progress run recorded stays attached.
	reply(fail *ErrorInfo) any
}

// call is one request on its way down the pipeline, carrying the
// flight record it will file.
type call struct {
	w http.ResponseWriter
	// rec is filled as the call goes: identity here, tenant and
	// semantics by resolve, the summary by run, outcome and the closed
	// phases by finish.
	rec *flight.Record

	// The phase clock: phase points at the entry of rec.Phases now
	// running, since is when it began (see begin).
	phase *int64
	since time.Time

	// Set by resolve: the parse-cache entry or named database the
	// request works on. Standing requests take no default deadline.
	entry     *cacheEntry
	db        *dbHandle
	timeoutMS int64
	standing  bool

	// Set by the pipeline once the request is admitted.
	ctx  context.Context
	opts []unchained.Opt

	// Set by run: stream is non-nil once run has answered 200 and
	// switched to Server-Sent Events: a failure from then on is the
	// stream's last event, not a JSON body.
	stream http.Flusher
}

// begin puts a boundary here: it closes the running phase and starts
// phase p. Every nanosecond between the request's arrival and the last
// boundary is charged to exactly one phase, so the phases sum to the
// record's wall time by construction.
func (c *call) begin(p *int64) {
	now := time.Now()
	*c.phase += now.Sub(c.since).Nanoseconds()
	c.phase, c.since = p, now
}

// post routes path through the pipeline.
func (s *Server) post(path string, newRequest func() request) {
	s.handle(path, func(w http.ResponseWriter, r *http.Request) {
		s.serve(w, r, path, newRequest())
	})
}

// serve takes one request down the pipeline. Whichever phase fails,
// the failure is counted, recorded and written here and nowhere else.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, endpoint string, req request) {
	ri := r.Context().Value(reqInfoKey{}).(*reqInfo)
	c := &call{w: w, rec: flight.NewRecord(ri.ID, endpoint, ri.Start), since: ri.Start}
	c.rec.SpanID, c.rec.ParentSpanID = ri.SpanID, ri.ParentSpanID
	c.phase = &c.rec.Phases.DecodeNS
	fail := s.enter(c, r, req)
	if fail == nil {
		// The slot is held until the response is written; a standing
		// query keeps it for its whole lifetime.
		defer s.gate.release()
		var cancel context.CancelFunc
		c.ctx, cancel = s.requestContext(r, c.timeoutMS, c.standing)
		defer cancel()
		s.newCapture(c)
		s.countSemantics(c.rec.Semantics)
		fail = req.run(s, c)
	}
	status := http.StatusOK
	if fail != nil {
		status = s.settle(c, r, tagError(c.rec.ID, fail))
	}
	if c.stream != nil {
		status = http.StatusOK // what the client was answered with
	}
	if c.rec.Tenant != "" {
		s.finish(c, status, fail)
	}
	switch {
	case c.stream == nil:
		writeJSON(w, status, req.reply(fail))
	case fail != nil:
		// Best effort: a stream usually ends because the client left.
		_ = sseWrite(w, c.stream, "error", fail)
	}
}

// maxBodyBytes bounds request bodies. Programs are text, not bulk
// data; 8 MiB is far beyond any reasonable request and bounds memory
// per connection.
const maxBodyBytes = 8 << 20

// enter is the pipeline up to a held admission slot: the method check,
// the bounded JSON decode, the endpoint's resolve step and the gate.
func (s *Server) enter(c *call, r *http.Request, req request) *ErrorInfo {
	if r.Method != http.MethodPost {
		return errInfo(CodeBadRequest, "POST required")
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, req)
	}
	if err != nil {
		return errInfo(CodeBadRequest, err.Error())
	}
	c.begin(&c.rec.Phases.ResolveNS)
	if fail := req.resolve(s, c); fail != nil {
		return fail
	}
	c.begin(&c.rec.Phases.QueueNS)
	err = s.gate.acquire(r.Context(), c.rec.Tenant)
	switch {
	case err == nil:
		// What an admitted request does first is get its input in place.
		c.begin(&c.rec.Phases.FactsNS)
		return nil
	case errors.Is(err, errShed):
		return errInfo(CodeOverloaded, "admission queue full; retry later")
	case errors.Is(err, errQueueWait):
		return errInfo(CodeQueueTimeout, "queued past the admission wait budget; retry later")
	}
	return errInfo(CodeCanceled, err.Error()) // the client went away while queued
}

// requestContext derives the evaluation context: the request context
// (so a dropped connection cancels the evaluation) bounded by the
// effective timeout. A standing request has no default timeout, only
// the one it asks for.
func (s *Server) requestContext(r *http.Request, timeoutMS int64, standing bool) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if standing {
		d = 0
	}
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		if timeoutMS > 0 {
			s.timeoutClamped.Add(1)
		}
		d = s.cfg.MaxTimeout
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// engineStart and engineDone bracket each engine run inside a body:
// the in_flight gauge, the eval-latency histogram and the record's
// eval phase (summed over the request's runs) are taken here, off the
// same two clock reads. What follows a run is the rendering of its
// result, so engineDone begins the format phase.
func (s *Server) engineStart(c *call) {
	s.inFlight.Add(1)
	c.begin(&c.rec.Phases.EvalNS)
}

func (s *Server) engineDone(c *call) {
	start := c.since
	c.begin(&c.rec.Phases.FormatNS)
	s.inFlight.Add(-1)
	s.evalLat.observe(c.since.Sub(start))
}

// evalFailure maps an engine error to its stable code.
func evalFailure(err error) *ErrorInfo {
	code := CodeEval
	switch {
	case errors.Is(err, unchained.ErrDeadline):
		code = CodeDeadline
	case errors.Is(err, unchained.ErrCanceled):
		code = CodeCanceled
	case errors.Is(err, unchained.ErrInvalidOptions):
		code = CodeInvalidOptions
	}
	return errInfo(code, err.Error())
}

// settle maps a failure's code to the HTTP status it is answered with
// and bumps the one service counter that owns the outcome.
func (s *Server) settle(c *call, r *http.Request, fail *ErrorInfo) int {
	switch fail.Code {
	case CodeDeadline, CodeCanceled:
		if fail.Code == CodeDeadline {
			s.timeouts.Add(1)
		} else {
			s.cancels.Add(1)
		}
		return http.StatusRequestTimeout
	case CodeOverloaded, CodeQueueTimeout: // counted by the gate: shed, queue_timeouts
		c.w.Header().Set("Retry-After", "1")
		fail.Details["retry_after_s"] = 1
		if fail.Code == CodeOverloaded {
			return http.StatusTooManyRequests
		}
		return http.StatusServiceUnavailable
	case CodeEval, CodeStore, CodeSubOverflow:
		s.evalErrs.Add(1)
		if c.rec.Tenant == "" { // the daemon could not open the database; the request was fine
			return http.StatusInternalServerError
		}
		return http.StatusUnprocessableEntity
	}
	// What is left is the client's doing: a malformed or invalid
	// request, or (analyze_error) a program no dialect admits.
	s.badReqs.Add(1)
	switch {
	case r.Method != http.MethodPost:
		return http.StatusMethodNotAllowed
	case fail.Code == CodeAnalyze:
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}
