// The service's counters and gauges, declared once in one table, and
// their two renderings: GET /statsz (a flat JSON object) and GET
// /metrics (Prometheus text-format exposition, version 0.0.4,
// hand-rolled so the daemon stays dependency-free). /metrics adds the
// labeled families and the latency histograms.
package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"unchained/internal/flight"
)

// series is one service counter or gauge. /statsz serves it under key
// and /metrics as family; a row without a key is /metrics-only, one
// without a family /statsz-only.
type series struct {
	key    string
	family string
	help   string
	kind   string // the Prometheus type: "counter" or "gauge"
	read   func() int64
}

// newSeries declares every service counter and gauge: adding one is a
// row here plus the atomic it reads. Rows render in this order on
// /metrics.
func (s *Server) newSeries() []series {
	u := func(a *atomic.Uint64) func() int64 { return func() int64 { return int64(a.Load()) } }
	g := s.gate
	if g == nil { // admission control is off: nothing queues or is shed
		g = &gate{}
	}
	return []series{
		{"uptime_ms", "", "", "gauge", func() int64 { return time.Since(s.start).Milliseconds() }},
		{"requests", "unchained_requests_total", "HTTP requests received.", "counter", u(&s.requests)},
		{"evals_ok", "unchained_evals_ok_total", "Evaluations completed successfully.", "counter", u(&s.evalsOK)},
		{"eval_errors", "unchained_eval_errors_total", "Evaluations failed with an evaluation error.", "counter", u(&s.evalErrs)},
		{"timeouts", "unchained_timeouts_total", "Evaluations interrupted by deadline.", "counter", u(&s.timeouts)},
		{"canceled", "unchained_canceled_total", "Evaluations interrupted by client cancellation.", "counter", u(&s.cancels)},
		{"bad_requests", "unchained_bad_requests_total", "Requests rejected before evaluation.", "counter", u(&s.badReqs)},
		{"stages_run", "unchained_stages_run_total", "Evaluation stages executed across all requests.", "counter", u(&s.stagesRun)},
		{"analyzes", "unchained_analyze_total", "Static-analysis requests served (cached reports included).", "counter", u(&s.analyzes)},
		{"analyze_errors", "unchained_analyze_errors_total", "Analyzed programs carrying error-severity diagnostics.", "counter", u(&s.analyzeErrs)},
		{"opt_passes", "unchained_opt_passes_total", "Optimizer passes run while computing memoized program variants.", "counter", u(&s.optPasses)},
		{"opt_rewrites", "unchained_opt_rewrites_total", "Optimizer rewrites applied while computing memoized program variants.", "counter", u(&s.optRewrites)},
		{"opt_rules_removed", "unchained_opt_rules_removed_total", "Rules removed by the optimizer while computing memoized program variants.", "counter", u(&s.optRulesRemoved)},
		{"cache_hits", "unchained_parse_cache_hits_total", "Parse cache hits.", "counter", func() int64 { return int64(s.cache.stats().hits) }},
		{"cache_misses", "unchained_parse_cache_misses_total", "Parse cache misses.", "counter", func() int64 { return int64(s.cache.stats().misses) }},
		{"cache_evictions", "unchained_parse_cache_evictions_total", "Parse cache LRU evictions.", "counter", func() int64 { return int64(s.cache.stats().evictions) }},
		{"plan_cache_hits", "unchained_plan_cache_hits_total", "Join-plan cache hits across cached programs (evicted programs included).", "counter", func() int64 { return int64(s.cache.stats().planHits) }},
		{"plan_cache_misses", "unchained_plan_cache_misses_total", "Join-plan cache misses (plans computed).", "counter", func() int64 { return int64(s.cache.stats().planMisses) }},
		{"", "unchained_timeouts_clamped_total", "Requests whose timeout_ms was clamped to the server maximum.", "counter", u(&s.timeoutClamped)},
		{"admitted", "unchained_admission_admitted_total", "Requests admitted past the admission gate (immediately or after queuing).", "counter", u(&g.admitted)},
		{"queued", "unchained_admission_queued_total", "Requests that waited in the admission queue.", "counter", u(&g.queuedTot)},
		{"shed", "unchained_admission_shed_total", "Requests shed at a full admission queue (HTTP 429).", "counter", u(&g.shed)},
		{"queue_timeouts", "unchained_admission_queue_timeouts_total", "Requests that timed out waiting in the admission queue (HTTP 503).", "counter", u(&g.waitDrop)},
		{"cow_snapshots", "unchained_cow_snapshots_total", "Copy-on-write instance snapshots taken by instrumented evaluations.", "counter", u(&s.cowSnapshots)},
		{"cow_promotions", "unchained_cow_promotions_total", "Relations promoted to private copies by a post-snapshot write.", "counter", u(&s.cowPromotions)},
		{"cow_tuples_copied", "unchained_cow_tuples_copied_total", "Tuples physically copied by copy-on-write promotions.", "counter", u(&s.cowTuples)},
		{"flight_records", "unchained_flight_records_total", "Flight records filed (one per evaluation or admission rejection).", "counter",
			func() int64 { n, _ := s.flight.Totals(); return int64(n) }},
		{"slow_queries", "unchained_flight_slow_queries_total", "Flight records at or over the slow-query threshold.", "counter",
			func() int64 { _, n := s.flight.Totals(); return int64(n) }},
		{"store_batches", "unchained_store_batches_total", "Committed /v1/facts batches across named databases.", "counter", u(&s.storeBatches)},
		{"store_facts_asserted", "unchained_store_facts_asserted_total", "Facts asserted with net effect across named databases.", "counter", u(&s.storeAsserted)},
		{"store_facts_retracted", "unchained_store_facts_retracted_total", "Facts retracted with net effect across named databases.", "counter", u(&s.storeRetracted)},
		{"store_wal_truncations", "unchained_store_wal_truncations_total", "Torn WAL tails truncated during recovery across open databases.", "counter", func() int64 { return int64(s.dbs.totals().WALTruncations) }},
		{"store_wal_compactions", "unchained_store_wal_compactions_total", "WAL snapshot compactions across open databases.", "counter", func() int64 { return int64(s.dbs.totals().WALCompactions) }},
		{"subscriptions_started", "unchained_subscriptions_started_total", "Standing-query subscriptions accepted on /v1/subscribe.", "counter", u(&s.subsStarted)},
		{"subscription_deltas", "unchained_subscription_deltas_total", "Delta events streamed to subscribers.", "counter", u(&s.subsDeltas)},
		{"subscription_facts", "unchained_subscription_facts_total", "Facts streamed in subscription delta events (added plus removed).", "counter", u(&s.subsFacts)},
		{"subscription_overflows", "unchained_subscription_overflows_total", "Subscriptions dropped for falling behind the delta buffer.", "counter", u(&s.subsOverflows)},
		{"in_flight", "unchained_in_flight", "Evaluations currently running.", "gauge", s.inFlight.Load},
		{"queue_depth", "unchained_admission_queue_depth", "Requests currently waiting in the admission queue.", "gauge", func() int64 { return int64(g.depth()) }},
		{"cache_size", "unchained_parse_cache_size", "Programs currently cached.", "gauge", func() int64 { return int64(s.cache.stats().size) }},
		{"plan_cache_size", "unchained_plan_cache_size", "Join plans resident across cached programs.", "gauge", func() int64 { return int64(s.cache.stats().planSize) }},
		{"store_dbs", "unchained_store_dbs", "Named databases currently open.", "gauge", func() int64 { return int64(s.dbs.totals().DBs) }},
		{"store_wal_records", "unchained_store_wal_records", "Live WAL records since the last snapshot across open databases.", "gauge", func() int64 { return int64(s.dbs.totals().WALRecords) }},
		{"store_wal_bytes", "unchained_store_wal_bytes", "Live WAL log bytes across open databases.", "gauge", func() int64 { return s.dbs.totals().WALBytes }},
		{"subscriptions_active", "unchained_subscriptions_active", "Subscriptions currently streaming.", "gauge", s.subsActive.Load},
	}
}

// statsz reads every row that has a /statsz key.
func (s *Server) statsz() map[string]int64 {
	z := make(map[string]int64, len(s.series))
	for _, r := range s.series {
		if r.key != "" {
			z[r.key] = r.read()
		}
	}
	return z
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsz())
}

// secBounds are the cumulative histogram bucket upper bounds, in
// seconds: 1ms to 10s, roughly log-spaced. Requests slower than the
// last bound land in the implicit +Inf bucket.
var secBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// latHist is a lock-free cumulative latency histogram over secBounds.
type latHist struct {
	counts []atomic.Uint64 // len(secBounds)+1; last is +Inf
	sumNS  atomic.Int64
	n      atomic.Uint64
}

func newLatHist() *latHist {
	return &latHist{counts: make([]atomic.Uint64, len(secBounds)+1)}
}

func (h *latHist) observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(secBounds, sec) // first bound >= sec
	h.counts[i].Add(1)
	h.sumNS.Add(d.Nanoseconds())
	h.n.Add(1)
}

// writeHist renders one histogram family: cumulative _bucket series,
// then _sum (seconds) and _count.
func writeHist(w http.ResponseWriter, name, help string, h *latHist) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	cum := uint64(0)
	for i, bound := range secBounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.counts[len(secBounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(float64(h.sumNS.Load())/1e9, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count %d\n", name, h.n.Load())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, r := range s.series {
		if r.family != "" {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", r.family, r.help, r.family, r.kind, r.family, r.read())
		}
	}

	fmt.Fprintf(w, "# HELP unchained_evals_by_semantics_total Evaluation attempts by semantics (\"query\" = magic-sets).\n")
	fmt.Fprintf(w, "# TYPE unchained_evals_by_semantics_total counter\n")
	names := make([]string, 0, len(s.semCounts))
	for name := range s.semCounts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "unchained_evals_by_semantics_total{semantics=%q} %d\n", name, s.semCounts[name].Load())
	}

	// Per-tenant resource accounting. Cardinality is bounded by
	// construction (Config.MaxTenants named digests + "other"), so
	// these labeled families cannot grow without bound no matter how
	// many distinct programs clients send. The label is the 12-hex
	// digest prefix; /v1/status carries the full digests.
	tenants := s.tenants.Snapshot()
	writeTenantCounter(w, "unchained_tenant_requests_total", "Requests attributed to the tenant (admitted or shed).", tenants,
		func(t flightTenant) uint64 { return t.Requests })
	writeTenantCounter(w, "unchained_tenant_eval_ns_total", "Cumulative engine evaluation nanoseconds attributed to the tenant.", tenants,
		func(t flightTenant) uint64 { return uint64(t.EvalNS) })
	writeTenantCounter(w, "unchained_tenant_derived_facts_total", "Facts derived by the tenant's evaluations.", tenants,
		func(t flightTenant) uint64 { return t.Derived })
	writeTenantCounter(w, "unchained_tenant_shed_total", "Tenant requests shed by admission control (429/503).", tenants,
		func(t flightTenant) uint64 { return t.Shed })

	writeHist(w, "unchained_request_duration_seconds", "HTTP request latency.", s.reqLat)
	writeHist(w, "unchained_eval_duration_seconds", "Engine evaluation latency (eval and query).", s.evalLat)
	if s.gate != nil {
		writeHist(w, "unchained_admission_queue_wait_seconds", "Time queued requests waited for an admission slot.", s.gate.waitLat)
	}
}

// flightTenant aliases the accountant's bucket type locally so the
// writeTenantCounter selector signatures stay short.
type flightTenant = flight.TenantStats

// tenantLabel compresses a program digest to its 12-hex prefix: short
// enough for dashboards, long enough that collisions are implausible
// within the bounded tenant set. The "other" bucket passes through.
func tenantLabel(tenant string) string {
	if len(tenant) > 12 && tenant != flight.OtherTenant {
		return tenant[:12]
	}
	return tenant
}

// writeTenantCounter renders one per-tenant counter family. The HELP
// and TYPE header is written even when no tenant has traffic yet, so
// the metric inventory is stable from the first scrape.
func writeTenantCounter(w http.ResponseWriter, name, help string, tenants []flightTenant, val func(flightTenant) uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s counter\n", name)
	for _, t := range tenants {
		fmt.Fprintf(w, "%s{tenant=%q} %d\n", name, tenantLabel(t.Tenant), val(t))
	}
}
