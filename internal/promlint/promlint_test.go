package promlint

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"unchained/internal/queries"
	"unchained/internal/serve"
)

func lint(t *testing.T, text string, opts Options) []Problem {
	t.Helper()
	probs, err := Lint(strings.NewReader(text), opts)
	if err != nil {
		t.Fatal(err)
	}
	return probs
}

func TestCleanExposition(t *testing.T) {
	const text = `# HELP foo_total Things counted.
# TYPE foo_total counter
foo_total 3
# HELP bar_seconds Latency.
# TYPE bar_seconds histogram
bar_seconds_bucket{le="0.1"} 1
bar_seconds_bucket{le="+Inf"} 2
bar_seconds_sum 0.5
bar_seconds_count 2
# HELP baz Depth.
# TYPE baz gauge
baz{shard="0"} 1
baz{shard="1"} 4
`
	if probs := lint(t, text, Options{}); len(probs) != 0 {
		t.Fatalf("clean exposition flagged: %v", probs)
	}
}

func TestDetectsProblems(t *testing.T) {
	for _, c := range []struct {
		name string
		text string
		want string
	}{
		{"duplicate series", "# HELP a_total x\n# TYPE a_total counter\na_total{t=\"x\"} 1\na_total{t=\"x\"} 2\n", "duplicate series"},
		{"missing help", "# TYPE a_total counter\na_total 1\n", "no HELP"},
		{"missing type", "# HELP a_total x\na_total 1\n", "no TYPE"},
		{"orphan sample", "a_total 1\n", "without preceding HELP/TYPE"},
		{"counter suffix", "# HELP a x\n# TYPE a counter\na 1\n", "should end in _total"},
		{"duplicate help", "# HELP a_total x\n# HELP a_total y\n# TYPE a_total counter\na_total 1\n", "duplicate HELP"},
		{"duplicate type", "# HELP a_total x\n# TYPE a_total counter\n# TYPE a_total counter\na_total 1\n", "duplicate TYPE"},
		{"unknown type", "# HELP a_total x\n# TYPE a_total widget\na_total 1\n", "unknown metric type"},
		{"bad label name", "# HELP a_total x\n# TYPE a_total counter\na_total{0bad=\"v\"} 1\n", "invalid label name"},
		{"missing inf bucket", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "missing +Inf"},
		{"missing value", "# HELP a_total x\n# TYPE a_total counter\na_total\n", "malformed sample"},
	} {
		probs := lint(t, c.text, Options{})
		found := false
		for _, p := range probs {
			if strings.Contains(p.String(), c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: problems %v do not mention %q", c.name, probs, c.want)
		}
	}
}

func TestLabelCardinalityBound(t *testing.T) {
	var b strings.Builder
	b.WriteString("# HELP a_total x\n# TYPE a_total counter\n")
	for i := 0; i < 10; i++ {
		b.WriteString("a_total{t=\"v")
		b.WriteByte(byte('0' + i))
		b.WriteString("\"} 1\n")
	}
	probs := lint(t, b.String(), Options{MaxSeriesPerFamily: 4})
	found := false
	for _, p := range probs {
		if strings.Contains(p.Msg, "exceeds 4 series") {
			found = true
		}
	}
	if !found {
		t.Fatalf("cardinality leak not flagged: %v", probs)
	}
}

// TestLiveExpositionClean is the CI gate on the exposition:
// the daemon's own /metrics output, with traffic on every family
// (an evaluation, a deadline-bounded non-terminating one, and a
// store batch so the unchained_store_* families carry samples too),
// must lint clean.
func TestLiveExpositionClean(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, traffic := range []struct {
		path string
		req  any
		want int
	}{
		{"/v1/eval", serve.EvalRequest{Envelope: serve.Envelope{Program: "T(X,Y) :- G(X,Y).\nT(X,Y) :- G(X,Z), T(Z,Y).", Facts: "G(a,b). G(b,c)."}}, http.StatusOK},
		{"/v1/eval", serve.EvalRequest{Envelope: serve.Envelope{Program: queries.Counter(30), TimeoutMS: 50}, Semantics: "noninflationary"}, http.StatusRequestTimeout},
		{"/v1/facts", serve.FactsRequest{DB: "lint", Assert: "G(a,b)."}, http.StatusOK},
	} {
		body, err := json.Marshal(traffic.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+traffic.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != traffic.want {
			t.Fatalf("%s: status %d, want %d", traffic.path, resp.StatusCode, traffic.want)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	probs, err := Lint(mresp.Body, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 0 {
		t.Fatalf("live /metrics exposition has lint problems:\n%v", probs)
	}
}
