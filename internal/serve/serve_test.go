package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"unchained/internal/queries"
)

const tcProgram = `
	T(X,Y) :- G(X,Y).
	T(X,Y) :- G(X,Z), T(Z,Y).
`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(Config{}))
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestEvalEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: tcProgram, Facts: `G(a,b). G(b,c).`, Stats: true}, Semantics: "minimal-model"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out EvalResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || !strings.Contains(out.Output, "T(a,c)") {
		t.Fatalf("unexpected response: %+v", out)
	}
	if out.Stats == nil || out.Stats.Engine != "minimal-model" {
		t.Fatalf("stats missing: %+v", out.Stats)
	}
}

// TestEvalTimeoutReturnsTypedErrorAndPartialStats is the acceptance
// scenario: a non-terminating Datalog¬¬ program (the 30-bit counter,
// 2^30 stages) with timeout_ms must come back within the deadline
// with a typed error and partial-progress statistics.
func TestEvalTimeoutReturnsTypedErrorAndPartialStats(t *testing.T) {
	ts := newTestServer(t)
	start := time.Now()
	resp, body := post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: queries.Counter(30), TimeoutMS: 100, Stats: true}, Semantics: "noninflationary"})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("response took %v, deadline not enforced", elapsed)
	}
	var out EvalResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.OK || out.Error == nil || out.Error.Code != CodeDeadline {
		t.Fatalf("want deadline error, got %+v", out)
	}
	if !strings.Contains(out.Error.Message, "deadline exceeded after") {
		t.Fatalf("message = %q", out.Error.Message)
	}
	if out.Stages == 0 || out.Stats == nil || out.Stats.Stages == 0 {
		t.Fatalf("partial stats missing: stages=%d stats=%+v", out.Stages, out.Stats)
	}
}

// TestConcurrentEvals fires 8 concurrent terminating requests over
// the same cached program (plus the shared parse cache) — run under
// -race this is the tentpole's concurrency acceptance test.
func TestConcurrentEvals(t *testing.T) {
	ts := newTestServer(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: tcProgram, Facts: fmt.Sprintf(`G(a,b). G(b,c). G(c,d%d).`, i), Stats: true}, Semantics: "minimal-model"})
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var out EvalResponse
			if err := json.Unmarshal(body, &out); err != nil {
				errs[i] = err
				return
			}
			want := fmt.Sprintf("T(a,d%d)", i)
			if !out.OK || !strings.Contains(out.Output, want) {
				errs[i] = fmt.Errorf("missing %s in %q", want, out.Output)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/query", QueryRequest{Envelope: Envelope{Program: tcProgram, Facts: `G(a,b). G(b,c). G(x,y).`, Stats: true}, Query: `T(a,X)`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || out.Count != 2 {
		t.Fatalf("want 2 answers, got %+v", out)
	}
	joined := strings.Join(out.Tuples, " ")
	if !strings.Contains(joined, "T(a,b)") || !strings.Contains(joined, "T(a,c)") {
		t.Fatalf("tuples = %v", out.Tuples)
	}
	if strings.Contains(joined, "T(x,y)") {
		t.Fatalf("magic-sets must not derive irrelevant facts: %v", out.Tuples)
	}
	if out.Stats == nil || out.Stats.Engine != "magic" {
		t.Fatalf("stats = %+v", out.Stats)
	}
}

// TestQueryOptimizeNeverTurnsAnAnswerIntoAnError: Q is underivable, so
// at optimize 2 the goal's relation has no rule left; the answer stays
// empty.
func TestQueryOptimizeNeverTurnsAnAnswerIntoAnError(t *testing.T) {
	ts := newTestServer(t)
	for _, level := range []int{0, 2} {
		resp, body := post(t, ts.URL+"/v1/query", QueryRequest{
			Envelope: Envelope{Program: "P(X) :- Q(X).\nQ(X) :- Q(X), E(X).\nR(X) :- E(X).\n", Facts: `E(a). E(b).`, Optimize: level},
			Query:    `P(a)`,
		})
		if want := `{"ok":true,"count":0}` + "\n"; resp.StatusCode != http.StatusOK || string(body) != want {
			t.Fatalf("optimize %d: status %d: %s", level, resp.StatusCode, body)
		}
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}

	// One OK eval and one parse failure, then check the counters.
	post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: tcProgram, Facts: `G(a,b).`}})
	post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: `syntax error here`}})

	st := statsz(t, ts.URL)
	if st["evals_ok"] < 1 || st["bad_requests"] < 1 || st["requests"] < 3 {
		t.Fatalf("statsz = %+v", st)
	}
}

// TestParseCache checks LRU behavior: repeated programs hit, distinct
// programs miss, and capacity bounds the resident set.
func TestParseCache(t *testing.T) {
	c := newProgCache(2)
	p1 := `A(X) :- B(X).`
	p2 := `C(X) :- D(X).`
	p3 := `E(X) :- F(X).`
	e1, err := c.get(p1)
	if err != nil {
		t.Fatal(err)
	}
	if e2, _ := c.get(p1); e2 != e1 {
		t.Fatal("same source must hit the same entry")
	}
	if _, err := c.get(p2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.get(p3); err != nil { // evicts p1
		t.Fatal(err)
	}
	if e4, _ := c.get(p1); e4 == e1 {
		t.Fatal("evicted entry must be re-parsed")
	}
	st := c.stats()
	if st.size != 2 {
		t.Fatalf("size = %d, want capacity 2", st.size)
	}
	if st.hits != 1 || st.misses != 4 {
		t.Fatalf("hits=%d misses=%d", st.hits, st.misses)
	}
	if st.evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (p1 then p2 aged out)", st.evictions)
	}
	if _, err := c.get(`not a program (`); err == nil {
		t.Fatal("parse error must surface")
	}
}

// TestEvalOptimize checks the daemon-side optimizer: an optimize:2
// request returns byte-identical output to optimize:0, the rewrite
// counters move exactly once per memoized variant, and input facts on
// an assumed-empty relation fall back to the program as written.
func TestEvalOptimize(t *testing.T) {
	ts := newTestServer(t)
	// mid is inlinable; dead reads an underivable predicate.
	prog := tcProgram + `
		Mid(X) :- T(X,X).
		Dead(X) :- Ghost(X).
		Ghost(X) :- Ghost(X).
	`
	facts := `G(a,b). G(b,a).`
	eval := func(level int, facts string) EvalResponse {
		t.Helper()
		resp, body := post(t, ts.URL+"/v1/eval", EvalRequest{
			Envelope:  Envelope{Program: prog, Facts: facts, Optimize: level},
			Semantics: "stratified",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out EvalResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := eval(0, facts)
	optimized := eval(2, facts)
	if plain.Output != optimized.Output {
		t.Fatalf("optimize must not change output:\n-O0: %q\n-O2: %q", plain.Output, optimized.Output)
	}
	// A second optimized request must reuse the memoized variant.
	eval(2, facts)
	st := statsz(t, ts.URL)
	if st["opt_passes"] == 0 || st["opt_rewrites"] == 0 || st["opt_rules_removed"] == 0 {
		t.Fatalf("optimizer counters did not move: %+v", st)
	}
	firstRemoved := st["opt_rules_removed"]

	// Facts on the assumed-empty Ghost relation force the fallback —
	// and the fallback's output must still match the unoptimized run.
	violating := facts + ` Ghost(q).`
	if got, want := eval(2, violating).Output, eval(0, violating).Output; got != want {
		t.Fatalf("fallback output differs:\n-O2: %q\n-O0: %q", got, want)
	}
	st = statsz(t, ts.URL)
	if st["opt_rules_removed"] != firstRemoved {
		t.Fatalf("memoized variant recomputed: %d -> %d", firstRemoved, st["opt_rules_removed"])
	}
}

// TestOptimizeRejectsBadLevel: optimize is 0 or 2; anything else is
// invalid_options, on /v1/eval and /v1/query alike.
func TestOptimizeRejectsBadLevel(t *testing.T) {
	ts := newTestServer(t)
	for _, level := range []int{-1, 1, 3} {
		env := Envelope{Program: tcProgram, Optimize: level}
		for path, req := range map[string]any{
			"/v1/eval":  EvalRequest{Envelope: env},
			"/v1/query": QueryRequest{Envelope: env, Query: "T(a,Y)"},
		} {
			resp, body := post(t, ts.URL+path, req)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), CodeInvalidOptions) ||
				!strings.Contains(string(body), "must be 0 or 2") {
				t.Errorf("%s optimize %d: status %d: %s", path, level, resp.StatusCode, body)
			}
		}
	}
}

func TestBadSemantics(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: tcProgram}, Semantics: "no-such-semantics"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "minimal-model") {
		t.Fatalf("error should list the valid names: %s", body)
	}
}

// TestRetiredWorkersFieldIsIgnored: the "workers" request field, its
// clamp counter and its two /v1/status limits are gone. A client that
// still sends the field gets the answer it always got (rule-level
// workers never changed a byte of output), and nothing counts it.
// TestMetricsNameInventory pins that every other family is still there.
func TestRetiredWorkersFieldIsIgnored(t *testing.T) {
	ts := newTestServer(t)
	req := map[string]any{"program": tcProgram, "facts": "G(a,b). G(b,c).", "semantics": "inflationary"}
	resp, plain := post(t, ts.URL+"/v1/eval", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("without workers: %d: %s", resp.StatusCode, plain)
	}
	req["workers"] = 4
	resp, body := post(t, ts.URL+"/v1/eval", req)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, plain) {
		t.Fatalf("with workers: %d: %s\nwithout: %s", resp.StatusCode, body, plain)
	}
	if _, metrics := get(t, ts.URL+"/metrics"); bytes.Contains(metrics, []byte("unchained_workers_clamped_total")) {
		t.Error("/metrics still lists unchained_workers_clamped_total")
	}
	if _, status := get(t, ts.URL+"/v1/status"); bytes.Contains(status, []byte("_workers")) {
		t.Errorf("/v1/status still reports worker limits: %s", status)
	}
}
