package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"unchained"
	"unchained/internal/flight"
	"unchained/internal/gen"
)

// lockedBuffer serializes writes so the test can hand it to the
// recorder's slow-query log and read it back safely.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// chainFacts renders G(n0,n1). G(n1,n2). ... — a path graph whose
// transitive closure is big enough to outlive a small deadline.
func chainFacts(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "G(n%d,n%d). ", i, i+1)
	}
	return b.String()
}

// TestFlightDeadlineExceeded: an evaluation that exceeds its deadline
// must produce a flight record that (a) carries the same id as
// X-Request-Id and the error envelope's details.request_id, (b) appears
// in /debug/flight/slowest and the slow-query log, and (c) breaks the
// request wall time down into queue wait and per-stage components that
// are mutually consistent.
func TestFlightDeadlineExceeded(t *testing.T) {
	slowLog := &lockedBuffer{}
	srv := New(Config{SlowQuery: time.Millisecond, SlowQueryLog: slowLog})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := EvalRequest{Envelope: Envelope{
		Program:   tcProgram,
		Facts:     chainFacts(1500),
		TimeoutMS: 50,
	}}
	resp, body := post(t, ts.URL+"/v1/eval", req)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 deadline: %s", resp.StatusCode, body)
	}
	rid := resp.Header.Get("X-Request-Id")
	if len(rid) != 32 {
		t.Fatalf("X-Request-Id = %q, want 32-hex trace id", rid)
	}
	var out EvalResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Error == nil || out.Error.Code != CodeDeadline {
		t.Fatalf("envelope = %+v, want code %q", out.Error, CodeDeadline)
	}
	if got := out.Error.Details["request_id"]; got != rid {
		t.Fatalf("details.request_id = %v, want header id %q", got, rid)
	}

	// The record must be in the top-K slowest with the same id.
	sresp, sbody := get(t, ts.URL+"/debug/flight/slowest")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("slowest: %d", sresp.StatusCode)
	}
	var page flightPage
	if err := json.Unmarshal(sbody, &page); err != nil {
		t.Fatal(err)
	}
	var rec *flight.Record
	for _, r := range page.Records {
		if r.ID == rid {
			rec = r
		}
	}
	if rec == nil {
		t.Fatalf("no record with id %q in /debug/flight/slowest: %s", rid, sbody)
	}

	if rec.Outcome != CodeDeadline || rec.Status != http.StatusRequestTimeout {
		t.Fatalf("outcome %q status %d, want deadline/408", rec.Outcome, rec.Status)
	}
	if rec.Error == "" || rec.Tenant == "" || rec.Engine == "" {
		t.Fatalf("record incomplete: %+v", rec)
	}
	// Wall-time breakdown consistency: the phases partition the wall
	// exactly, queue wait and engine time are the phases of that name,
	// and the engine ran. What is left (decode, resolve, facts,
	// optimize, format) is bounded by being the other phases; how large
	// it is next to queue+eval depends on the box, not on the code.
	ph := rec.Phases
	if ph.Total() != rec.WallNS {
		t.Fatalf("phases %+v sum to %dns, want wall %dns", ph, ph.Total(), rec.WallNS)
	}
	if ph.QueueNS != rec.QueueNS || ph.EvalNS != rec.EvalNS {
		t.Fatalf("queue %d / eval %d, want the phases' %d / %d", rec.QueueNS, rec.EvalNS, ph.QueueNS, ph.EvalNS)
	}
	for _, ns := range []int64{ph.DecodeNS, ph.ResolveNS, ph.QueueNS, ph.FactsNS, ph.OptimizeNS, ph.EvalNS, ph.FormatNS} {
		if ns < 0 {
			t.Fatalf("negative phase in %+v", ph)
		}
	}
	if rec.EvalNS <= 0 {
		t.Fatalf("eval %dns: the engine did not run", rec.EvalNS)
	}
	if rec.StageWallNS <= 0 || rec.StageWallNS > rec.WallNS {
		t.Fatalf("stage wall %dns not within wall %dns", rec.StageWallNS, rec.WallNS)
	}
	if len(rec.PerStage) == 0 {
		t.Fatal("record has no per-stage breakdown")
	}
	// The planner's chosen join orders ride along, est-vs-act included.
	if len(rec.Plans) == 0 {
		t.Fatal("record carries no join plans")
	}
	sawCard := false
	for _, p := range rec.Plans {
		if p.Rule == "" || p.Join == "" {
			t.Fatalf("empty plan entry: %+v", rec.Plans)
		}
		if strings.Contains(p.Join, "est=") && strings.Contains(p.Join, "act=") {
			sawCard = true
		}
	}
	if !sawCard {
		t.Fatalf("no plan carries est-vs-act cardinalities: %+v", rec.Plans)
	}

	// Same record, same id, in the recent ring and the slow-query log.
	rresp, rbody := get(t, ts.URL+"/debug/flight?limit=5")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("recent: %d", rresp.StatusCode)
	}
	var recent flightPage
	if err := json.Unmarshal(rbody, &recent); err != nil {
		t.Fatal(err)
	}
	if len(recent.Records) == 0 || recent.Records[0].ID != rid {
		t.Fatalf("newest ring record is not %q: %s", rid, rbody)
	}
	var logged flight.Record
	line := strings.TrimSpace(slowLog.String())
	if err := json.Unmarshal([]byte(line), &logged); err != nil {
		t.Fatalf("slow-query log line is not a Record: %v: %q", err, line)
	}
	if logged.ID != rid || logged.Outcome != CodeDeadline {
		t.Fatalf("slow log carries %q/%q, want %q/deadline", logged.ID, logged.Outcome, rid)
	}
	if _, slow := srv.flight.Totals(); slow != 1 {
		t.Fatalf("slow-query total = %d, want 1", slow)
	}
}

// TestDeadlineInsideAStage sends a request whose first stage is one
// join of 40^6 valuations over a complete K, minutes of work, with a
// 200 ms timeout (every variable of the join reaches the head or a later
// literal, so no existential cut shortens it): the matcher's poll stops
// the stage, the answer is 408 deadline well before the join could
// finish, and the admission slot is given back — no evaluation in flight
// and none holding the gate.
func TestDeadlineInsideAStage(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var facts strings.Builder
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			fmt.Fprintf(&facts, "K(c%d,c%d). ", i, j)
		}
	}
	req := EvalRequest{Envelope: Envelope{
		Program:   "P(A,F) :- K(A,B), K(B,C), K(C,D), K(D,E), K(E,F).",
		Facts:     facts.String(),
		TimeoutMS: 200,
	}}
	start := time.Now()
	resp, body := post(t, ts.URL+"/v1/eval", req)
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("the deadline stopped the stage after %v", elapsed)
	}
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 deadline: %s", resp.StatusCode, body)
	}
	waitFor(t, func() bool { return srv.gate.inFlight() == 0 })
	if z := statsz(t, ts.URL); z["in_flight"] != 0 || z["admitted"] != 1 {
		t.Fatalf("/statsz in_flight %d admitted %d, want 0 and 1", z["in_flight"], z["admitted"])
	}
}

// TestFlightStatusAndTenants: /v1/status advertises the recorder's
// bounds and the per-tenant table; /statsz carries the flight totals;
// a shed request is charged to its tenant.
func TestFlightStatusAndTenants(t *testing.T) {
	srv := New(Config{SlowQuery: 10 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := post(t, ts.URL+"/v1/eval", EvalRequest{
		Envelope: Envelope{Program: tcProgram, Facts: "G(a,b). G(b,c)."},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval: %d: %s", resp.StatusCode, body)
	}

	stresp, stbody := get(t, ts.URL+"/v1/status")
	if stresp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", stresp.StatusCode)
	}
	var st StatusResponse
	if err := json.Unmarshal(stbody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Flight.RingSize != flight.DefaultRingSize || st.Flight.TopK != flight.DefaultTopK {
		t.Fatalf("flight bounds: %+v", st.Flight)
	}
	if st.Flight.SlowQueryMS != 10_000 || st.Flight.MaxTenants != flight.DefaultMaxTenants {
		t.Fatalf("flight limits: %+v", st.Flight)
	}
	if st.Flight.Records != 1 {
		t.Fatalf("flight records = %d, want 1", st.Flight.Records)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Requests != 1 || st.Tenants[0].Derived == 0 {
		t.Fatalf("tenant table: %+v", st.Tenants)
	}
	found := 0
	for _, e := range st.Endpoints {
		if strings.HasPrefix(e, "/debug/flight") {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("endpoint list missing /debug/flight routes: %v", st.Endpoints)
	}

	if z := statsz(t, ts.URL); z["flight_records"] != 1 || z["slow_queries"] != 0 {
		t.Fatalf("statsz flight counters: %+v", z)
	}
}

// TestCaptureAllocations pins what the always-on capture costs a
// request in allocations, on the shape the benchmark's serve-eval
// workload sends (TC over a random graph of 60 nodes and 120 edges; 17
// rounds on this one): the evaluation with exactly the options
// newCapture attaches, against the same evaluation with the program's
// plan cache alone — the cache is a saving the capture must not be
// credited with (a replan was 44 allocations when this pin compared
// with a bare run, which hid 117 of the collector's cost; it is 4 now).
// The cached run allocates 383 times and the collector adds 72 to that:
// a planTrace per enumeration and the 17 join-plan descriptions, one
// buffer each since they are written with strconv and not fmt (the
// capture added 173, 198 under the race detector, which turns fmt's
// buffer pool off). The pin is on the difference, which the race
// detector now leaves as it is.
func TestCaptureAllocations(t *testing.T) {
	svc := New(Config{})
	entry, err := svc.cache.get(tcProgram)
	if err != nil {
		t.Fatal(err)
	}
	in := gen.Random(entry.base.U, "G", 60, 120, 7)
	c := &call{entry: entry, rec: &flight.Record{}}
	var res *unchained.EvalResult
	run := func(opts ...unchained.Opt) {
		res, err = entry.base.EvalContext(context.Background(), entry.prog, in, unchained.MinimalModel, opts...)
	}
	cached := testing.AllocsPerRun(10, func() { run(unchained.WithPlanCache(entry.plans)) })
	captured := testing.AllocsPerRun(10, func() {
		svc.newCapture(c)
		run(c.opts...)
	})
	if err != nil || res.Stages != 17 || len(res.Stats.Plans) == 0 {
		t.Fatalf("the shape changed: %v, %d stages, summary %+v", err, res.Stages, res.Stats)
	}
	if captured-cached > 72 {
		t.Errorf("the capture adds %.0f allocations to an evaluation's %.0f; it added 72 when this was pinned", captured-cached, cached)
	}
}

// TestFlightShedChargedToTenant: an admission rejection still files a
// flight record (with the queue wait it burned) and charges the
// tenant's shed counter.
func TestFlightShedChargedToTenant(t *testing.T) {
	svc := New(Config{MaxInFlight: 1, QueueWait: 50 * time.Millisecond})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	svc.gate.mu.Lock()
	svc.gate.running = 1 // occupy the single slot directly
	svc.gate.mu.Unlock()
	defer svc.gate.release()

	resp, _ := post(t, ts.URL+"/v1/eval", EvalRequest{
		Envelope: Envelope{Program: "P(X) :- Q(X).", Facts: "Q(a)."},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 queue timeout", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-Id")

	recs := svc.flight.Recent()
	if len(recs) != 1 || recs[0].ID != rid || recs[0].Outcome != CodeQueueTimeout {
		t.Fatalf("rejection flight record: %+v", recs)
	}
	if recs[0].QueueNS < (40 * time.Millisecond).Nanoseconds() {
		t.Fatalf("rejection record queue wait = %dns, want >= budget", recs[0].QueueNS)
	}
	snap := svc.tenants.Snapshot()
	if len(snap) != 1 || snap[0].Shed != 1 || snap[0].Requests != 1 {
		t.Fatalf("tenant shed accounting: %+v", snap)
	}
}

// TestStatszKeyInventory pins the /statsz key set, as
// TestMetricsNameInventory pins the /metrics families: bench/serve.go
// and dashboards decode these keys by name.
func TestStatszKeyInventory(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	want := strings.Fields(`uptime_ms requests evals_ok eval_errors timeouts canceled bad_requests
		in_flight stages_run analyzes analyze_errors opt_passes opt_rewrites opt_rules_removed
		admitted queued shed queue_timeouts queue_depth
		cow_snapshots cow_promotions cow_tuples_copied cache_hits cache_misses cache_evictions
		cache_size plan_cache_hits plan_cache_misses plan_cache_size flight_records slow_queries
		store_batches store_facts_asserted store_facts_retracted store_dbs store_wal_records
		store_wal_bytes store_wal_truncations store_wal_compactions subscriptions_started
		subscriptions_active subscription_deltas subscription_facts subscription_overflows`)
	var got []string
	for k := range statsz(t, ts.URL) {
		got = append(got, k)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("/statsz keys drifted:\n got: %v\nwant: %v", got, want)
	}
}

// TestMetricsNameInventory is the golden test for the Prometheus
// exposition: the exact set of unchained_* family names, their types,
// and the label keys in use. Adding, renaming, or dropping a series is
// a deliberate act — update the inventory here and the dashboard docs
// together.
func TestMetricsNameInventory(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Drive one eval so optional label keys (semantics, tenant)
	// appear in samples.
	if resp, body := post(t, ts.URL+"/v1/eval", EvalRequest{
		Envelope: Envelope{Program: tcProgram, Facts: "G(a,b). G(b,c)."},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("eval: %d: %s", resp.StatusCode, body)
	}

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}

	want := map[string]string{
		"unchained_requests_total":                 "counter",
		"unchained_evals_ok_total":                 "counter",
		"unchained_eval_errors_total":              "counter",
		"unchained_timeouts_total":                 "counter",
		"unchained_canceled_total":                 "counter",
		"unchained_bad_requests_total":             "counter",
		"unchained_stages_run_total":               "counter",
		"unchained_analyze_total":                  "counter",
		"unchained_analyze_errors_total":           "counter",
		"unchained_opt_passes_total":               "counter",
		"unchained_opt_rewrites_total":             "counter",
		"unchained_opt_rules_removed_total":        "counter",
		"unchained_parse_cache_hits_total":         "counter",
		"unchained_parse_cache_misses_total":       "counter",
		"unchained_parse_cache_evictions_total":    "counter",
		"unchained_plan_cache_hits_total":          "counter",
		"unchained_plan_cache_misses_total":        "counter",
		"unchained_timeouts_clamped_total":         "counter",
		"unchained_admission_admitted_total":       "counter",
		"unchained_admission_queued_total":         "counter",
		"unchained_admission_shed_total":           "counter",
		"unchained_admission_queue_timeouts_total": "counter",
		"unchained_cow_snapshots_total":            "counter",
		"unchained_cow_promotions_total":           "counter",
		"unchained_cow_tuples_copied_total":        "counter",
		"unchained_flight_records_total":           "counter",
		"unchained_flight_slow_queries_total":      "counter",
		"unchained_store_batches_total":            "counter",
		"unchained_store_facts_asserted_total":     "counter",
		"unchained_store_facts_retracted_total":    "counter",
		"unchained_store_wal_truncations_total":    "counter",
		"unchained_store_wal_compactions_total":    "counter",
		"unchained_subscriptions_started_total":    "counter",
		"unchained_subscription_deltas_total":      "counter",
		"unchained_subscription_facts_total":       "counter",
		"unchained_subscription_overflows_total":   "counter",
		"unchained_evals_by_semantics_total":       "counter",
		"unchained_tenant_requests_total":          "counter",
		"unchained_tenant_eval_ns_total":           "counter",
		"unchained_tenant_derived_facts_total":     "counter",
		"unchained_tenant_shed_total":              "counter",
		"unchained_in_flight":                      "gauge",
		"unchained_admission_queue_depth":          "gauge",
		"unchained_parse_cache_size":               "gauge",
		"unchained_plan_cache_size":                "gauge",
		"unchained_store_dbs":                      "gauge",
		"unchained_store_wal_records":              "gauge",
		"unchained_store_wal_bytes":                "gauge",
		"unchained_subscriptions_active":           "gauge",
		"unchained_request_duration_seconds":       "histogram",
		"unchained_eval_duration_seconds":          "histogram",
		"unchained_admission_queue_wait_seconds":   "histogram",
	}

	got := map[string]string{}
	labelKeys := map[string]map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			got[parts[2]] = parts[3]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				t.Fatalf("malformed sample: %q", line)
			}
			for _, kv := range strings.Split(line[i+1:j], ",") {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					t.Fatalf("malformed label in %q", line)
				}
				if labelKeys[name] == nil {
					labelKeys[name] = map[string]bool{}
				}
				labelKeys[name][kv[:eq]] = true
			}
		}
	}

	var missing, extra, wrong []string
	for name, typ := range want {
		switch gt, ok := got[name]; {
		case !ok:
			missing = append(missing, name)
		case gt != typ:
			wrong = append(wrong, fmt.Sprintf("%s: %s != %s", name, gt, typ))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra)+len(wrong) > 0 {
		t.Fatalf("metric inventory drifted:\n missing: %v\n extra: %v\n wrong type: %v", missing, extra, wrong)
	}

	// Label keys are part of the contract too.
	wantLabels := map[string][]string{
		"unchained_evals_by_semantics_total":   {"semantics"},
		"unchained_tenant_requests_total":      {"tenant"},
		"unchained_tenant_eval_ns_total":       {"tenant"},
		"unchained_tenant_derived_facts_total": {"tenant"},
		"unchained_tenant_shed_total":          {"tenant"},
	}
	for name, keys := range wantLabels {
		for _, k := range keys {
			if !labelKeys[name][k] {
				t.Errorf("%s: missing label key %q (have %v)", name, k, labelKeys[name])
			}
		}
	}
	for name, keys := range labelKeys {
		if strings.HasSuffix(name, "_bucket") {
			if len(keys) != 1 || !keys["le"] {
				t.Errorf("%s: histogram bucket labels %v, want only le", name, keys)
			}
			continue
		}
		if _, ok := wantLabels[name]; !ok {
			t.Errorf("unexpected labeled family %s: %v", name, keys)
		}
	}
}
