package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"unchained/internal/queries"
)

func newTestLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, nil))
}

// newInstrumentedServer exposes the *Server alongside its listener so
// tests can cross-check internal counters against the HTTP surfaces.
func newInstrumentedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestTimeoutIncrementsFailureCounterOnce: a 408 deadline must count
// as exactly one timeout and zero eval errors — the satellite's
// double-counting guard.
func TestTimeoutIncrementsFailureCounterOnce(t *testing.T) {
	srv, ts := newInstrumentedServer(t)
	resp, body := post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: queries.Counter(30), TimeoutMS: 100}, Semantics: "noninflationary"})
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	z := srv.statsz()
	if z["timeouts"] != 1 {
		t.Errorf("timeouts = %d, want exactly 1", z["timeouts"])
	}
	if z["eval_errors"] != 0 {
		t.Errorf("eval_errors = %d, want 0 (timeout must not double-count)", z["eval_errors"])
	}
	if z["canceled"] != 0 {
		t.Errorf("canceled = %d, want 0", z["canceled"])
	}
}

// parseMetrics reads the un-labeled series from a Prometheus text
// exposition into name -> value.
func parseMetrics(t *testing.T, body string) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed metrics line %q", line)
		}
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		out[name] = uint64(n)
	}
	return out
}

// TestStatszAndMetricsAgree: every row of the series table that has
// both a /statsz key and a /metrics family reads the same on both. The
// requests counter is the one principled exception: the /metrics GET
// itself increments it, so it reads exactly one higher. The rows
// without a key (the timeout clamp counter) are on /metrics only.
func TestStatszAndMetricsAgree(t *testing.T) {
	srv, ts := newInstrumentedServer(t)
	// Generate traffic on every counter class: one success (asking for
	// more time than the ceiling allows), one parse failure, one
	// timeout.
	post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: tcProgram, Facts: `G(a,b).`, TimeoutMS: 1 << 40}, Semantics: "minimal-model"})
	post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: `not a program (`}})
	post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: queries.Counter(30), TimeoutMS: 50}, Semantics: "noninflationary"})

	z := statsz(t, ts.URL)
	_, body := get(t, ts.URL+"/metrics")
	m := parseMetrics(t, string(body))

	both := 0
	for _, r := range srv.series {
		got, ok := m[r.family]
		switch {
		case r.family == "":
		case !ok:
			t.Errorf("metric %s missing from /metrics", r.family)
		case r.key != "":
			both++
			want := z[r.key]
			if r.key == "requests" {
				want++ // the /metrics GET itself
			}
			if got != uint64(want) {
				t.Errorf("%s = %d in /metrics, %s = %d in /statsz", r.family, got, r.key, z[r.key])
			}
		}
	}
	if both != 43 {
		t.Errorf("%d rows are on both surfaces, want 43", both)
	}
	if z["evals_ok"] != 1 || z["bad_requests"] != 1 || z["timeouts"] != 1 {
		t.Errorf("traffic not attributed: ok=%d bad=%d timeout=%d, want 1/1/1", z["evals_ok"], z["bad_requests"], z["timeouts"])
	}
	if m["unchained_timeouts_clamped_total"] != 1 {
		t.Errorf("timeout clamp not counted: %d, want 1", m["unchained_timeouts_clamped_total"])
	}
}

// TestMetricsExposition checks the acceptance criterion directly: the
// body is valid Prometheus text exposition with counters and at least
// one histogram.
func TestMetricsExposition(t *testing.T) {
	_, ts := newInstrumentedServer(t)
	post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: tcProgram, Facts: `G(a,b).`}, Semantics: "stratified"})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	body := sb.String()
	for _, want := range []string{
		"# TYPE unchained_requests_total counter",
		"# TYPE unchained_in_flight gauge",
		"# TYPE unchained_request_duration_seconds histogram",
		"unchained_request_duration_seconds_bucket{le=\"+Inf\"}",
		"unchained_eval_duration_seconds_bucket{le=\"0.001\"}",
		"unchained_request_duration_seconds_sum",
		"unchained_request_duration_seconds_count",
		`unchained_evals_by_semantics_total{semantics="stratified"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Bucket counts must be cumulative: +Inf equals _count.
	var infV, countV string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "unchained_request_duration_seconds_bucket{le=\"+Inf\"} ") {
			infV = strings.Fields(line)[1]
		}
		if strings.HasPrefix(line, "unchained_request_duration_seconds_count ") {
			countV = strings.Fields(line)[1]
		}
	}
	if infV == "" || infV != countV {
		t.Errorf("+Inf bucket %q != _count %q", infV, countV)
	}
}

// TestEvalTraceCapture: "trace": true returns the span stream in the
// response, and — because tracing rides an auto-created collector —
// must NOT leak a stats block the request didn't ask for.
func TestEvalTraceCapture(t *testing.T) {
	_, ts := newInstrumentedServer(t)
	resp, body := post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: tcProgram, Facts: `G(a,b). G(b,c).`}, Semantics: "minimal-model", Trace: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out EvalResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || len(out.Trace) == 0 {
		t.Fatalf("no trace captured: %+v", out)
	}
	first := out.Trace[0]
	if first.Ev != "begin" || first.Span != "eval" {
		t.Errorf("first event %+v, want begin eval", first)
	}
	last := out.Trace[len(out.Trace)-1]
	if last.Ev != "end" || last.Span != "eval" || last.Stages == 0 {
		t.Errorf("last event %+v, want end eval with stage total", last)
	}
	if out.Stats != nil {
		t.Errorf("stats leaked without \"stats\": true: %+v", out.Stats)
	}
	if out.TraceDropped != 0 {
		t.Errorf("trace dropped %d events on a tiny program", out.TraceDropped)
	}
}

// TestRequestIDHeader: every response carries a request ID (a W3C
// trace id), echoes a Traceparent header, and the logger (when
// configured) records the id.
func TestRequestIDHeader(t *testing.T) {
	var logBuf strings.Builder
	srv := New(Config{Logger: newTestLogger(&logBuf)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-Id")
	if len(rid) != 32 || strings.Trim(rid, "0123456789abcdef") != "" {
		t.Fatalf("X-Request-Id = %q, want 32-hex trace id", rid)
	}
	if tp := resp.Header.Get("Traceparent"); !strings.Contains(tp, rid) {
		t.Fatalf("Traceparent %q does not carry trace id %q", tp, rid)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, rid) || !strings.Contains(logged, "/healthz") {
		t.Errorf("log record missing id/path: %q", logged)
	}
}

// TestTraceparentAdoption: an inbound W3C traceparent header is
// adopted — its trace id becomes the request id and the response
// Traceparent continues the same trace with a fresh span id.
func TestTraceparentAdoption(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const inTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const inSpan = "00f067aa0ba902b7"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+inTrace+"-"+inSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-Id"); rid != inTrace {
		t.Fatalf("X-Request-Id = %q, want adopted trace id %q", rid, inTrace)
	}
	tp := resp.Header.Get("Traceparent")
	if !strings.HasPrefix(tp, "00-"+inTrace+"-") {
		t.Fatalf("Traceparent %q does not continue trace %q", tp, inTrace)
	}
	if strings.Contains(tp, inSpan) {
		t.Fatalf("Traceparent %q reuses the caller's span id", tp)
	}
}
