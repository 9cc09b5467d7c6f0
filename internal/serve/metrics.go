// Prometheus text-format exposition (version 0.0.4), hand-rolled so
// the daemon stays dependency-free. GET /metrics renders the same
// Statsz snapshot as /statsz plus two latency histograms and the
// per-semantics eval counters.
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

func writeCounter(w http.ResponseWriter, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s counter\n", name)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func writeGauge(w http.ResponseWriter, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s gauge\n", name)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	z := s.snapshot()

	writeCounter(w, "unchained_requests_total", "HTTP requests received.", z.Requests)
	writeCounter(w, "unchained_evals_ok_total", "Evaluations completed successfully.", z.EvalsOK)
	writeCounter(w, "unchained_eval_errors_total", "Evaluations failed with an evaluation error.", z.EvalErrors)
	writeCounter(w, "unchained_timeouts_total", "Evaluations interrupted by deadline.", z.Timeouts)
	writeCounter(w, "unchained_canceled_total", "Evaluations interrupted by client cancellation.", z.Canceled)
	writeCounter(w, "unchained_bad_requests_total", "Requests rejected before evaluation.", z.BadRequests)
	writeCounter(w, "unchained_stages_run_total", "Evaluation stages executed across all requests.", z.StagesRun)
	writeCounter(w, "unchained_analyze_total", "Static-analysis requests served (cached reports included).", z.Analyzes)
	writeCounter(w, "unchained_analyze_errors_total", "Analyzed programs carrying error-severity diagnostics.", z.AnalyzeErrors)
	writeCounter(w, "unchained_opt_passes_total", "Optimizer passes run while computing memoized program variants.", z.OptPasses)
	writeCounter(w, "unchained_opt_rewrites_total", "Optimizer rewrites applied while computing memoized program variants.", z.OptRewrites)
	writeCounter(w, "unchained_opt_rules_removed_total", "Rules removed by the optimizer while computing memoized program variants.", z.OptRulesRemoved)
	writeCounter(w, "unchained_parse_cache_hits_total", "Parse cache hits.", z.CacheHits)
	writeCounter(w, "unchained_parse_cache_misses_total", "Parse cache misses.", z.CacheMisses)
	writeCounter(w, "unchained_parse_cache_evictions_total", "Parse cache LRU evictions.", z.CacheEvictions)
	writeCounter(w, "unchained_plan_cache_hits_total", "Join-plan cache hits across cached programs (evicted programs included).", z.PlanCacheHits)
	writeCounter(w, "unchained_plan_cache_misses_total", "Join-plan cache misses (plans computed).", z.PlanCacheMisses)
	writeCounter(w, "unchained_timeouts_clamped_total", "Requests whose timeout_ms was clamped to the server maximum.", s.timeoutClamped.Load())
	writeCounter(w, "unchained_shards_clamped_total", "Requests whose shards field was clamped to the server maximum.", s.shardsClamped.Load())
	writeCounter(w, "unchained_admission_admitted_total", "Requests admitted past the admission gate (immediately or after queuing).", z.Admitted)
	writeCounter(w, "unchained_admission_queued_total", "Requests that waited in the admission queue.", z.Queued)
	writeCounter(w, "unchained_admission_shed_total", "Requests shed at a full admission queue (HTTP 429).", z.Shed)
	writeCounter(w, "unchained_admission_queue_timeouts_total", "Requests that timed out waiting in the admission queue (HTTP 503).", z.QueueTimeouts)
	writeCounter(w, "unchained_shard_rounds_total", "Semi-naive delta rounds evaluated shard-parallel by instrumented evaluations.", z.ShardRounds)
	writeCounter(w, "unchained_shard_facts_total", "Facts merged through shard barriers by instrumented evaluations.", z.ShardFactsMerged)
	writeCounter(w, "unchained_cow_snapshots_total", "Copy-on-write instance snapshots taken by instrumented evaluations.", z.CowSnapshots)
	writeCounter(w, "unchained_cow_promotions_total", "Relations promoted to private copies by a post-snapshot write.", z.CowPromotions)
	writeCounter(w, "unchained_cow_tuples_copied_total", "Tuples physically copied by copy-on-write promotions.", z.CowTuplesCopied)
	writeCounter(w, "unchained_flight_records_total", "Flight records filed (one per evaluation or admission rejection).", z.FlightRecords)
	writeCounter(w, "unchained_flight_slow_queries_total", "Flight records at or over the slow-query threshold.", z.SlowQueries)
	writeCounter(w, "unchained_store_batches_total", "Committed /v1/facts batches across named databases.", z.StoreBatches)
	writeCounter(w, "unchained_store_facts_asserted_total", "Facts asserted with net effect across named databases.", z.StoreAsserted)
	writeCounter(w, "unchained_store_facts_retracted_total", "Facts retracted with net effect across named databases.", z.StoreRetracted)
	writeCounter(w, "unchained_store_wal_truncations_total", "Torn WAL tails truncated during recovery across open databases.", z.WALTruncations)
	writeCounter(w, "unchained_store_wal_compactions_total", "WAL snapshot compactions across open databases.", z.WALCompactions)
	writeCounter(w, "unchained_subscriptions_started_total", "Standing-query subscriptions accepted on /v1/subscribe.", z.SubsStarted)
	writeCounter(w, "unchained_subscription_deltas_total", "Delta events streamed to subscribers.", z.SubsDeltas)
	writeCounter(w, "unchained_subscription_facts_total", "Facts streamed in subscription delta events (added plus removed).", z.SubsFacts)
	writeCounter(w, "unchained_subscription_overflows_total", "Subscriptions dropped for falling behind the delta buffer.", z.SubsOverflows)

	writeGauge(w, "unchained_in_flight", "Evaluations currently running.", z.InFlight)
	writeGauge(w, "unchained_admission_queue_depth", "Requests currently waiting in the admission queue.", int64(z.QueueDepth))
	writeGauge(w, "unchained_parse_cache_size", "Programs currently cached.", int64(z.CacheSize))
	writeGauge(w, "unchained_plan_cache_size", "Join plans resident across cached programs.", int64(z.PlanCacheSize))
	writeGauge(w, "unchained_store_dbs", "Named databases currently open.", int64(z.StoreDBs))
	writeGauge(w, "unchained_store_wal_records", "Live WAL records since the last snapshot across open databases.", int64(z.WALRecords))
	writeGauge(w, "unchained_store_wal_bytes", "Live WAL log bytes across open databases.", z.WALBytes)
	writeGauge(w, "unchained_subscriptions_active", "Subscriptions currently streaming.", z.SubsActive)

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
