package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unchained/internal/flight"
	"unchained/internal/queries"
)

// endpoints are the five /v1 POST routes, each with a request it
// answers 200 to. Every contract below is checked on all of them: the
// pipeline is one function, and this table is what keeps it that way.
var endpoints = []struct {
	path string
	body any
}{
	{"/v1/eval", EvalRequest{Envelope: Envelope{Program: tcProgram, Facts: "G(a,b)."}}},
	{"/v1/query", QueryRequest{Envelope: Envelope{Program: tcProgram, Facts: "G(a,b)."}, Query: "T(a,X)"}},
	{"/v1/analyze", AnalyzeRequest{Envelope: Envelope{Program: winProgram}}},
	{"/v1/facts", FactsRequest{DB: "contract", Assert: "G(a,b)."}},
	{"/v1/subscribe", SubscribeRequest{DB: "contract", Program: tcProgram}},
}

// send issues one request with a raw body under ctx.
func send(ctx context.Context, method, url string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp, raw, err
}

// wantEnvelope checks an error response: the status, the stable code,
// and the request id in the body matching the X-Request-Id header. The
// payload is either a JSON body or the last event of a stream.
func wantEnvelope(t *testing.T, resp *http.Response, body []byte, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, status, body)
	}
	var info *ErrorInfo
	if i := bytes.LastIndex(body, []byte("event: error\ndata: ")); i >= 0 {
		info = new(ErrorInfo)
		if err := json.Unmarshal(body[i+len("event: error\ndata: "):], info); err != nil {
			t.Fatalf("error event %q: %v", body[i:], err)
		}
	} else {
		var out struct {
			OK    bool       `json:"ok"`
			Error *ErrorInfo `json:"error"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("body %q: %v", body, err)
		}
		if out.OK {
			t.Fatalf("ok:true beside an error: %s", body)
		}
		info = out.Error
	}
	if info == nil || info.Code != code {
		t.Fatalf("envelope %+v, want code %q: %s", info, code, body)
	}
	rid := resp.Header.Get("X-Request-Id")
	if rid == "" || info.Details["request_id"] != rid {
		t.Fatalf("details.request_id = %v, header %q", info.Details["request_id"], rid)
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%d without Retry-After", status)
		}
	}
}

// wantRecord waits for the flight record of request id, checks which
// endpoint filed it and how the request ended, and that its phases are
// its wall time: they sum to wall_ns exactly, and queue_ns and eval_ns
// are the phases of that name.
func wantRecord(t *testing.T, svc *Server, id, endpoint, outcome string) (found *flight.Record) {
	t.Helper()
	waitFor(t, func() bool {
		for _, rec := range svc.flight.Recent() {
			if rec.ID == id {
				found = rec
			}
		}
		return found != nil
	})
	if found.Endpoint != endpoint || found.Outcome != outcome {
		t.Fatalf("record %s: %s %q, want %s %q", id, found.Endpoint, found.Outcome, endpoint, outcome)
	}
	if ph := found.Phases; ph.Total() != found.WallNS || ph.QueueNS != found.QueueNS || ph.EvalNS != found.EvalNS ||
		ph.DecodeNS <= 0 || ph.ResolveNS <= 0 || ph.QueueNS < 0 {
		t.Errorf("record %s: phases %+v beside wall_ns %d queue_ns %d eval_ns %d", id, ph, found.WallNS, found.QueueNS, found.EvalNS)
	}
	return found
}

// TestPipelineContract runs every /v1 POST endpoint through what the
// pipeline promises regardless of endpoint: the error envelope for a
// wrong method, a malformed or oversized body, a full queue, an
// exhausted queue wait and a client that leaves while queued, with
// the request id in every error body, and a flight record whose id is
// the X-Request-Id header for every request that reached the gate.
func TestPipelineContract(t *testing.T) {
	for _, ep := range endpoints {
		ep := ep
		t.Run(ep.path, func(t *testing.T) {
			svc := New(Config{MaxInFlight: 1, QueueDepth: 1, QueueWait: 250 * time.Millisecond})
			ts := httptest.NewServer(svc)
			defer ts.Close()
			url := ts.URL + ep.path
			valid, err := json.Marshal(ep.body)
			if err != nil {
				t.Fatal(err)
			}
			bg := context.Background()

			// Before the gate: no flight record, one bad_requests each.
			resp, body, err := send(bg, http.MethodGet, url, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantEnvelope(t, resp, body, http.StatusMethodNotAllowed, CodeBadRequest)
			resp, body, _ = send(bg, http.MethodPost, url, []byte(`{"program":`))
			wantEnvelope(t, resp, body, http.StatusBadRequest, CodeBadRequest)
			huge := append([]byte(`{"program":"`), bytes.Repeat([]byte("a"), maxBodyBytes)...)
			resp, body, _ = send(bg, http.MethodPost, url, append(huge, `"}`...))
			wantEnvelope(t, resp, body, http.StatusBadRequest, CodeBadRequest)
			if z := svc.statsz(); z["bad_requests"] != 3 || z["flight_records"] != 0 {
				t.Fatalf("after three rejected bodies: bad_requests=%d flight_records=%d", z["bad_requests"], z["flight_records"])
			}

			// A request that is served leaves a record under its id.
			okCtx, okCancel := context.WithCancel(bg)
			req, _ := http.NewRequestWithContext(okCtx, http.MethodPost, url, bytes.NewReader(valid))
			okResp, err := http.DefaultClient.Do(req)
			if err != nil || okResp.StatusCode != http.StatusOK {
				t.Fatalf("valid request: %v %+v", err, okResp)
			}
			okCancel() // ends the subscription; the others have answered
			okResp.Body.Close()
			outcome := "ok"
			if ep.path == "/v1/subscribe" {
				outcome = CodeCanceled
			}
			wantRecord(t, svc, okResp.Header.Get("X-Request-Id"), ep.path, outcome)
			waitFor(t, func() bool { return svc.gate.inFlight() == 0 })

			// Saturate: a non-terminating eval holds the only slot.
			holdCtx, release := context.WithCancel(bg)
			defer release()
			held := make(chan struct{})
			go func() {
				defer close(held)
				hold, _ := json.Marshal(EvalRequest{
					Envelope:  Envelope{Program: queries.Counter(30), TimeoutMS: 30000},
					Semantics: "noninflationary",
				})
				send(holdCtx, http.MethodPost, ts.URL+"/v1/eval", hold)
			}()
			waitFor(t, func() bool { return svc.gate.inFlight() == 1 })

			// A client that leaves while queued is recorded as canceled,
			// not shed, and gives the one queue place back: the next
			// request below queues in it.
			// The count starts from what came before: a subscription
			// already ended canceled above.
			before := svc.statsz()
			goneCtx, leave := context.WithCancel(bg)
			gone := make(chan error, 1)
			go func() {
				_, _, err := send(goneCtx, http.MethodPost, url, valid)
				gone <- err
			}()
			waitFor(t, func() bool { return svc.gate.queuedTot.Load() == 1 })
			leave()
			if err := <-gone; err == nil {
				t.Fatal("canceled request got an answer")
			}
			waitFor(t, func() bool {
				z := svc.statsz()
				return z["canceled"] == before["canceled"]+1 && z["flight_records"] == before["flight_records"]+1
			})
			if rec := svc.flight.Recent()[0]; rec.Endpoint != ep.path || rec.Outcome != CodeCanceled {
				t.Fatalf("newest record %s %q, want %s canceled", rec.Endpoint, rec.Outcome, ep.path)
			}

			// One request queues and runs out of wait budget (503) ...
			type answer struct {
				resp *http.Response
				body []byte
			}
			queued := make(chan answer, 1)
			go func() {
				resp, body, _ := send(bg, http.MethodPost, url, valid)
				queued <- answer{resp, body}
			}()
			waitFor(t, func() bool { return svc.gate.queuedTot.Load() == 2 })
			// ... and while it waits the queue is full: the next is shed (429).
			resp, body, _ = send(bg, http.MethodPost, url, valid)
			wantEnvelope(t, resp, body, http.StatusTooManyRequests, CodeOverloaded)
			wantRecord(t, svc, resp.Header.Get("X-Request-Id"), ep.path, CodeOverloaded)
			q := <-queued
			wantEnvelope(t, q.resp, q.body, http.StatusServiceUnavailable, CodeQueueTimeout)
			wantRecord(t, svc, q.resp.Header.Get("X-Request-Id"), ep.path, CodeQueueTimeout)

			release()
			<-held
			waitFor(t, func() bool { return svc.gate.inFlight() == 0 })
			z := svc.statsz()
			if z["shed"] != 1 || z["queue_timeouts"] != 1 || z["queued"] != 2 || z["queue_depth"] != 0 {
				t.Fatalf("admission counters: shed=%d queue_timeouts=%d queued=%d depth=%d",
					z["shed"], z["queue_timeouts"], z["queued"], z["queue_depth"])
			}
		})
	}
}

// TestPipelineAccounting fails one request in each phase of each
// endpoint. Whatever the phase, exactly one outcome counter moves; and
// every request that got past admission files exactly one flight
// record and one tenant observation, and adds to stages_run the stages
// its record says an engine ran, whichever endpoint ran it.
func TestPipelineAccounting(t *testing.T) {
	svc := New(Config{MaxDBs: 1})
	// The expireAfterPlan rows run under a deadline that their own first
	// stage sets off (afterPlanning), not the clock: however slow the
	// work before it, the deadline cannot expire before a stage has run.
	var expireAfterPlan atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if expireAfterPlan.Swap(false) {
			r = r.WithContext(afterPlanning(r.Context(), svc))
		}
		svc.ServeHTTP(w, r)
	}))
	defer ts.Close()
	postFacts(t, ts.URL, FactsRequest{DB: "acct", Assert: "G(a,b)."})

	const unmaintainable = "CT(X,Y) :- !T(X,Y).\nT(X,Y) :- G(X,Y)."
	prog := Envelope{Program: tcProgram}
	for _, c := range []struct {
		name            string
		path            string
		body            any
		status          int
		code            string
		recorded        bool // past the gate
		staged          bool // an engine ran stages before the failure
		expireAfterPlan bool // its deadline expires at its first plan-cache lookup (afterPlanning)
	}{
		{"eval/semantics", "/v1/eval", EvalRequest{Envelope: prog, Semantics: "nope"}, 400, CodeUnknownSem, false, false, false},
		{"eval/options", "/v1/eval", EvalRequest{Envelope: Envelope{Program: tcProgram, Shards: json.RawMessage("0")}}, 400, CodeInvalidOptions, false, false, false},
		{"eval/program", "/v1/eval", EvalRequest{Envelope: Envelope{Program: "P(X :-"}}, 400, CodeParse, false, false, false},
		{"eval/facts", "/v1/eval", EvalRequest{Envelope: Envelope{Program: tcProgram, Facts: "G(a"}}, 400, CodeParse, true, false, false},
		{"eval/engine", "/v1/eval", EvalRequest{Envelope: Envelope{Program: winProgram}, Semantics: "stratified"}, 422, CodeEval, true, false, false},
		{"eval/deadline", "/v1/eval", EvalRequest{Envelope: Envelope{Program: queries.Counter(30)}, Semantics: "noninflationary"}, 408, CodeDeadline, true, true, true},
		{"query/program", "/v1/query", QueryRequest{Envelope: Envelope{Program: "P(X :-"}, Query: "P(a)"}, 400, CodeParse, false, false, false},
		{"query/facts", "/v1/query", QueryRequest{Envelope: Envelope{Program: tcProgram, Facts: "G(a"}, Query: "T(a,X)"}, 400, CodeParse, true, false, false},
		{"query/goal", "/v1/query", QueryRequest{Envelope: prog, Query: "T(a,"}, 400, CodeParse, true, false, false},
		{"query/engine", "/v1/query", QueryRequest{Envelope: Envelope{Program: winProgram}, Query: "Win(a)"}, 422, CodeEval, true, false, false},
		{"query/deadline", "/v1/query", QueryRequest{Envelope: Envelope{Program: tcProgram, Facts: chainFacts(1500)}, Query: "T(n0,X)"}, 408, CodeDeadline, true, true, true},
		{"analyze/program", "/v1/analyze", AnalyzeRequest{Envelope: Envelope{Program: "P(X :-"}}, 400, CodeParse, false, false, false},
		{"analyze/inadmissible", "/v1/analyze", AnalyzeRequest{Envelope: Envelope{Program: "!P(X) :- Q(Y)."}}, 422, CodeAnalyze, true, false, false},
		{"facts/name", "/v1/facts", FactsRequest{DB: "no/slash"}, 400, CodeBadRequest, false, false, false},
		{"facts/open", "/v1/facts", FactsRequest{DB: "one-too-many"}, 500, CodeStore, false, false, false},
		{"facts/parse", "/v1/facts", FactsRequest{DB: "acct", Assert: "G(a"}, 400, CodeParse, true, false, false},
		{"facts/apply", "/v1/facts", FactsRequest{DB: "acct", Assert: "G(a)."}, 422, CodeStore, true, false, false},
		{"subscribe/name", "/v1/subscribe", SubscribeRequest{DB: "no/slash"}, 400, CodeBadRequest, false, false, false},
		{"subscribe/program", "/v1/subscribe", SubscribeRequest{DB: "acct", Program: "P(X :-"}, 400, CodeParse, true, false, false},
		{"subscribe/unmaintainable", "/v1/subscribe", SubscribeRequest{DB: "acct", Program: unmaintainable}, 422, CodeEval, true, false, false},
		// Mid-stream: the 200 is out, the failure is the last event.
		{"subscribe/deadline", "/v1/subscribe", SubscribeRequest{DB: "acct", Program: tcProgram, TimeoutMS: 30}, 200, CodeDeadline, true, false, false},
	} {
		before, tenantsBefore := svc.statsz(), tenantRequests(svc)
		expireAfterPlan.Store(c.expireAfterPlan)
		resp, body := post(t, ts.URL+c.path, c.body)
		t.Run(c.name, func(t *testing.T) {
			wantEnvelope(t, resp, body, c.status, c.code)
			after := svc.statsz()
			counted := func(z map[string]int64) int64 {
				return z["bad_requests"] + z["eval_errors"] + z["timeouts"] + z["canceled"]
			}
			if d := counted(after) - counted(before); d != 1 {
				t.Errorf("outcome counters moved by %d, want 1 (before %+v after %+v)", d, before, after)
			}
			want, stages := uint64(0), int64(0)
			if c.recorded {
				want = 1
				if rec := wantRecord(t, svc, resp.Header.Get("X-Request-Id"), c.path, c.code); rec.Summary != nil {
					stages = int64(rec.Stages)
				}
			}
			if d := after["stages_run"] - before["stages_run"]; d != stages || c.staged != (d > 0) {
				t.Errorf("stages_run moved by %d, the record says %d stages (staged: %v)", d, stages, c.staged)
			}
			if d := after["flight_records"] - before["flight_records"]; d != int64(want) {
				t.Errorf("flight_records moved by %d, want %d", d, want)
			}
			if d := tenantRequests(svc) - tenantsBefore; d != want {
				t.Errorf("tenant observations moved by %d, want %d", d, want)
			}
		})
	}
	if z := svc.statsz(); z["evals_ok"] != 0 || z["in_flight"] != 0 {
		t.Errorf("after failures only: evals_ok=%d in_flight=%d", z["evals_ok"], z["in_flight"])
	}
}

// afterPlanning returns a context that expires, as a deadline does,
// once svc's plan caches have been consulted. The planner consults them
// only inside a stage (see Rule.planFor), so an evaluation under this
// context has begun its first stage by then; the engine notices at the
// next stage boundary. The watch ends with the request (parent done).
func afterPlanning(parent context.Context, svc *Server) context.Context {
	ctx := &plannedDeadline{Context: parent, done: make(chan struct{})}
	lookups := func() uint64 { c := svc.cache.stats(); return c.planHits + c.planMisses }
	before := lookups()
	go func() {
		for lookups() == before {
			select {
			case <-parent.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
		close(ctx.done)
	}()
	return ctx
}

type plannedDeadline struct {
	context.Context
	done chan struct{}
}

func (d *plannedDeadline) Done() <-chan struct{} { return d.done }

func (d *plannedDeadline) Err() error {
	select {
	case <-d.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

func tenantRequests(svc *Server) (n uint64) {
	for _, ten := range svc.tenants.Snapshot() {
		n += ten.Requests
	}
	return n
}

// TestSubscribeErrorsBeforeTheStreamAreJSON pins that the pre-stream
// failures in the table above answer as plain JSON, not as a stream.
func TestSubscribeErrorsBeforeTheStreamAreJSON(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/subscribe", SubscribeRequest{DB: "ok", Program: "P(X :-"})
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" || strings.Contains(string(body), "event:") {
		t.Fatalf("content type %q body %s", ct, body)
	}
}
