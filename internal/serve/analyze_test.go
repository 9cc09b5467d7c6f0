package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"unchained/internal/analyze"
	"unchained/internal/gen"
)

const winProgram = `Win(X) :- Moves(X,Y), !Win(Y).`

// TestAnalyzeEndpoint checks the happy path: classification, the
// stratification witness, and positioned diagnostics over the wire.
func TestAnalyzeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Envelope: Envelope{Program: winProgram}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || out.Report == nil {
		t.Fatalf("unexpected response: %s", body)
	}
	rep := out.Report
	if rep.Semantics != "well-founded" || rep.Stratifiable {
		t.Fatalf("report: %+v", rep)
	}
	found := false
	for _, d := range rep.Diags {
		if d.Code == analyze.CodeNotStratifiable && d.Pos.Line == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("W001 with position missing: %s", body)
	}
}

// TestAnalyzeEndpointErrors: an inadmissible program returns 422 with
// the report still attached, and the analyze counters move.
func TestAnalyzeEndpointErrors(t *testing.T) {
	srv, ts := newInstrumentedServer(t)
	resp, body := post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Envelope: Envelope{Program: "!P(X) :- Q(Y)."}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.OK || out.Report == nil || out.Error == nil || out.Error.Code != CodeAnalyze {
		t.Fatalf("unexpected response: %s", body)
	}
	if !strings.Contains(out.Error.Message, "no dialect of the family admits") {
		t.Fatalf("error message: %q", out.Error.Message)
	}
	z := srv.statsz()
	if z["analyzes"] != 1 || z["analyze_errors"] != 1 {
		t.Fatalf("counters: %+v", z)
	}

	// Parse failures are bad requests, not analyze errors.
	resp, _ = post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Envelope: Envelope{Program: "P(X :-"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d for parse failure", resp.StatusCode)
	}
	if z := srv.statsz(); z["analyzes"] != 1 {
		t.Fatalf("parse failure counted as analysis: %+v", z)
	}
}

// TestAnalyzeReportCached: the second request for the same source hits
// the parse cache and reuses the memoized report.
func TestAnalyzeReportCached(t *testing.T) {
	srv, ts := newInstrumentedServer(t)
	post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Envelope: Envelope{Program: winProgram}})
	post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Envelope: Envelope{Program: winProgram}})
	if c := srv.cache.stats(); c.hits != 1 || c.misses != 1 {
		t.Fatalf("cache hits=%d misses=%d, want 1/1", c.hits, c.misses)
	}
	entry, err := srv.cache.get(winProgram)
	if err != nil {
		t.Fatal(err)
	}
	if entry.report() != entry.report() {
		t.Fatal("report not memoized")
	}
	if z := srv.statsz(); z["analyzes"] != 2 || z["analyze_errors"] != 0 {
		t.Fatalf("counters: %+v", z)
	}
}

// TestAutoEvalAnalyzesOnce: an "auto" request resolves its semantics
// from the report the parse-cache entry memoizes, then runs like a
// request that named that semantics (memoized optimizer variant
// included). No request analyzes the program for itself, so none traces
// an analyze span; both are answered, recorded and counted as "auto",
// and a failed resolution keeps its code and status.
func TestAutoEvalAnalyzesOnce(t *testing.T) {
	srv, ts := newInstrumentedServer(t)
	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.URL+"/v1/eval", EvalRequest{
			Envelope:  Envelope{Program: winProgram, Facts: `Moves(a,b). Moves(b,c).`, Stats: true, Optimize: 2},
			Semantics: "auto", Trace: true,
		})
		var out EvalResponse
		if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, %v: %s", resp.StatusCode, err, body)
		}
		if !out.OK || out.Semantics != "auto" || out.Stats.Engine != "wellfounded" || !strings.Contains(out.Output, "Win(b).") {
			t.Fatalf("request %d: %s", i, body)
		}
		if len(out.Trace) == 0 {
			t.Fatalf("request %d: no trace", i)
		}
		for _, ev := range out.Trace {
			if ev.Span == "analyze" {
				t.Fatalf("request %d analyzed the cached program for itself: %+v", i, ev)
			}
		}
	}
	if n := srv.semCounts["auto"].Load(); n != 2 {
		t.Fatalf("evals_by_semantics{auto} = %d, want 2", n)
	}
	if recs := srv.flight.Recent(); len(recs) != 2 || recs[0].Semantics != "auto" {
		t.Fatalf("flight records: %+v", recs)
	}

	resp, body := post(t, ts.URL+"/v1/eval", EvalRequest{
		Envelope: Envelope{Program: `Some, Chosen(X) :- P(X), !Some.`}, Semantics: "auto",
	})
	var out EvalResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || out.Error == nil || out.Error.Code != CodeEval ||
		out.Semantics != "auto" || !strings.Contains(out.Error.Message, "nondeterministic engine") {
		t.Fatalf("auto on a nondeterministic program: status %d: %s", resp.StatusCode, body)
	}
}

// TestAnalyzeMetricsExposition: the analyze counters appear on
// /metrics under the unchained_analyze_* names.
func TestAnalyzeMetricsExposition(t *testing.T) {
	_, ts := newInstrumentedServer(t)
	post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Envelope: Envelope{Program: winProgram}})
	post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Envelope: Envelope{Program: "!P(X) :- Q(Y)."}})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"unchained_analyze_total 2", "unchained_analyze_errors_total 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestAnalyzeLargeProgramBounded: /v1/analyze takes bodies up to 8 MiB
// outside the admission gate, so the analyzer's cost has to stay
// linear in the program. A 20 000-rule program (the wide shape: a copy
// chain plus dead rules) comes back well inside a 10 s client timeout
// with every rule-dependent diagnostic — a quadratic front end needs
// minutes for it — and asking again for the same text is answered
// from the memoized report.
func TestAnalyzeLargeProgramBounded(t *testing.T) {
	const depth, dead = 4999, 15000 // depth+1+dead = 20 000 rules
	srv, ts := newInstrumentedServer(t)
	body, err := json.Marshal(AnalyzeRequest{Envelope: Envelope{Program: gen.Wide(depth, dead)}})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 2; i++ {
		resp, err := client.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: %v", i+1, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, %v: %.200s", i+1, resp.StatusCode, err, raw)
		}
		var out AnalyzeResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		// I001, one I002 (not Datalog: a dead rule negates Sel), I003
		// for Out and every fourth dead rule, I005 for the chain and
		// the negation-free half of the dead rules.
		want := 2 + (1 + dead/4) + (depth + dead/2)
		if !out.OK || out.Report == nil {
			t.Fatalf("request %d: %.200s", i+1, raw)
		}
		if got := len(out.Report.Diags); got != want {
			t.Fatalf("request %d: %d diagnostics, want %d", i+1, got, want)
		}
	}
	if c := srv.cache.stats(); c.hits != 1 || c.misses != 1 {
		t.Fatalf("cache hits=%d misses=%d, want 1/1: the second request re-parsed", c.hits, c.misses)
	}
	if z := srv.statsz(); z["analyzes"] != 2 || z["analyze_errors"] != 0 {
		t.Fatalf("counters: %+v", z)
	}
}
