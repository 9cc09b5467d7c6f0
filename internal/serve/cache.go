package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"unchained"
)

// cacheEntry is a parsed program bound to the session that interned
// its constants. The entry is immutable after insertion: requests
// never evaluate against the entry's session directly, they Fork it,
// so one entry safely serves any number of concurrent requests. The
// analysis report is computed once on first demand and shared (the
// report is read-only after construction), so repeated /v1/analyze
// calls on a cached program are free.
type cacheEntry struct {
	key  string
	prog *unchained.Program
	base *unchained.Session
	// plans shares planner-chosen join schedules across every request
	// that evaluates this program: the plan keys carry the EDB-size
	// decade fingerprint, so a request whose fact set differs by an
	// order of magnitude plans afresh while same-shape requests reuse
	// the cached schedule.
	plans *unchained.PlanCache

	repOnce sync.Once
	rep     *unchained.AnalysisReport

	// Optimized variants of the program, computed once on first demand
	// and shared by every subsequent request that optimizes (the
	// optimizer is deterministic, so the variant is as immutable as the
	// parse). The daemon declares no output roots, so two variants
	// cover the request space: with inlining, and without it (for a
	// request whose semantics or stage bound is timing-sensitive, see
	// unchained.OptInlineSafe).
	optInline   optVariant
	optNoInline optVariant
}

// optVariant memoizes one optimization of a cache entry's program.
// res stays nil when the pipeline left the program unchanged.
type optVariant struct {
	once sync.Once
	res  *unchained.OptimizeResult
}

// optimized returns the memoized rewrite of the entry's program, with
// or without inlining, or nil when the optimizer has nothing to offer.
// onCompute fires exactly once per variant, when it is first computed
// (for the server's rewrite counters). Callers must still verify the
// result's emptiness assumptions against the request's facts via
// unchained.OptAssumptionsHold before substituting the program.
func (e *cacheEntry) optimized(noInline bool, onCompute func(*unchained.OptimizeResult)) *unchained.OptimizeResult {
	v := &e.optInline
	if noInline {
		v = &e.optNoInline
	}
	v.once.Do(func() {
		// Stratified is timing-safe, so OptimizeFor applies exactly the
		// passes the options request; the noInline flag carries the
		// per-request timing sensitivity instead.
		res := e.base.OptimizeFor(e.prog, unchained.Stratified,
			&unchained.OptOptions{Level: unchained.Opt2, NoInline: noInline})
		if res.Changed {
			v.res = res
			onCompute(res)
		}
	})
	return v.res
}

// report lazily runs the static analyzer over the entry's program.
func (e *cacheEntry) report() *unchained.AnalysisReport {
	e.repOnce.Do(func() { e.rep = e.base.Analyze(e.prog) })
	return e.rep
}

// progCache is an LRU cache of parsed programs keyed by the sha256 of
// their source text. It is safe for concurrent use.
type progCache struct {
	mu        sync.Mutex
	cap       int
	order     *list.List // front = most recently used; values are *cacheEntry
	byKey     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	// evictedPlanHits/Misses accumulate the plan-cache counters of
	// evicted entries, so /metrics totals survive LRU churn.
	evictedPlanHits   uint64
	evictedPlanMisses uint64
}

func newProgCache(capacity int) *progCache {
	if capacity < 1 {
		capacity = 1
	}
	return &progCache{cap: capacity, order: list.New(), byKey: map[string]*list.Element{}}
}

// sourceKey hashes a program source to its cache key.
func sourceKey(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// get returns the cached parse of src, parsing and inserting on miss.
// The parse runs outside any evaluation: each entry gets its own
// fresh session, so cached programs never share mutable state.
func (c *progCache) get(src string) (*cacheEntry, error) {
	key := sourceKey(src)
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		entry := el.Value.(*cacheEntry)
		c.mu.Unlock()
		return entry, nil
	}
	c.misses++
	c.mu.Unlock()

	// Parse outside the lock: parsing is pure relative to the fresh
	// session, and a duplicate parse under contention only costs work.
	base := unchained.NewSession()
	prog, err := base.Parse(src)
	if err != nil {
		return nil, err
	}
	entry := &cacheEntry{key: key, prog: prog, base: base, plans: unchained.NewPlanCache()}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok { // lost the race: keep the winner
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry), nil
	}
	c.byKey[key] = c.order.PushFront(entry)
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		old := oldest.Value.(*cacheEntry)
		delete(c.byKey, old.key)
		ps := old.plans.Stats()
		c.evictedPlanHits += ps.Hits
		c.evictedPlanMisses += ps.Misses
		c.evictions++
	}
	return entry, nil
}

// cacheStats is the parse cache's traffic and its programs' plan
// caches' traffic. The plan counters sum the resident entries plus the
// accumulated counters of evicted ones, so the totals are monotonic the
// way Prometheus counters must be.
type cacheStats struct {
	hits, misses, evictions uint64
	size                    int
	planHits, planMisses    uint64
	planSize                int
}

func (c *progCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := cacheStats{hits: c.hits, misses: c.misses, evictions: c.evictions, size: c.order.Len(),
		planHits: c.evictedPlanHits, planMisses: c.evictedPlanMisses}
	for el := c.order.Front(); el != nil; el = el.Next() {
		ps := el.Value.(*cacheEntry).plans.Stats()
		st.planHits += ps.Hits
		st.planMisses += ps.Misses
		st.planSize += ps.Entries
	}
	return st
}
