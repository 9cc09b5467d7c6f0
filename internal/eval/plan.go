// The clause planner. The seed's literal-order greedy schedule is the
// baseline (a compiled rule carries it, a planned delta variant gets it
// where it runs; see slotTable.literal); at enumeration time the
// planner may substitute a cardinality-ordered alternative:
// positive atoms are joined cheapest-estimate first (est = |R| /
// 10^bound, with |R| the live cardinality of the relation the literal
// matches against), equalities and negative checks are pushed down to
// the earliest point their variables are bound, and delta literals
// stay pinned first. Every schedule orders the literals of the one
// compiled rule text (see compileText), so all share its Binding layout,
// switching plans between stages is free, and choosing one costs the
// three allocations of a schedule, not a compilation.
//
// A rule's schedule is chosen by its first enumeration of a stage that
// began with a relation's size decade changed (see slotTable.plan), and
// kept in the context's plan pick for the rule with the cardinality
// signature it was chosen for: the size decade (digit count) of every
// relation the planner may join, 4 bits per positive literal.
// Re-planning therefore happens only when some relation's cardinality
// crosses a decade — cheap enough to leave on for every engine, while
// still adapting as a fixpoint's IDB grows. A daemon serving many
// requests over the same program shares plans across compilations
// through a PlanCache (see internal/serve), the one memo that outlives
// a context.
package eval

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"unchained/internal/tuple"
	"unchained/internal/value"
)

// planFor returns the planner's schedule of a planned rule (Rule.planned)
// for the cardinalities of the relations tab resolved under ctx, whose
// signature p.sig holds: from ctx.Plans when it has one, filed there if
// it does not. It runs only when a stage began with a size decade
// changed that changed the rule's signature (slotTable.plan).
func (r *Rule) planFor(ctx *Ctx, tab *slotTable, p *pick) []step {
	if ctx.Plans == nil {
		return r.schedule(int(r.deltaLit), ctx, tab)
	}
	// planFor runs only while a stage enumerates a rule, so a lookup in
	// a shared plan cache means a stage has begun; internal/serve's
	// accounting test sets off its deadline on that.
	if p.body == 0 {
		p.body = r.cacheKey()
	}
	key := planCacheKey{p.body, int(r.deltaLit), p.sig}
	if st, ok := ctx.Plans.lookup(key, r.text); ok {
		return st
	}
	st := r.schedule(int(r.deltaLit), ctx, tab)
	ctx.Plans.store(key, r.text, st)
	return st
}

// estCard estimates a probe's output cardinality: size discounted by
// a factor of 10 per bound column. Empty relations estimate 0 — the
// cheapest possible join, correctly scheduled first to short-circuit.
func estCard(size, bound int) int {
	if bound > 9 {
		bound = 9
	}
	p := 1
	for i := 0; i < bound; i++ {
		p *= 10
	}
	if est := size / p; est >= 1 {
		return est
	}
	if size > 0 {
		return 1
	}
	return 0
}

// decade is the decimal digit count of n, capped at 15 to fit the
// 4-bit signature lanes.
func decade(n int) uint64 {
	var d uint64
	for n > 0 {
		d++
		n /= 10
	}
	if d > 15 {
		d = 15
	}
	return d
}

// planSig packs the size decade of every relation the planner may
// join, in body order, 4 bits each: every positive atom's but the one
// the rule pins, which schedule places first without reading its size.
// Equal signatures mean every cardinality the planner reads is in the
// same decade as when the pick's plan was chosen.
func (r *Rule) planSig(ctx *Ctx, tab *slotTable) uint64 {
	var sig uint64
	for _, li := range r.posBody {
		if li != int(r.deltaLit) {
			sig = sig<<4 | tab.decade(ctx, li, r.lits[li].id)
		}
	}
	return sig
}

// cacheKey returns the hash a PlanCache files the rule's plans under
// (never 0): the body's literals with their predicate ids and slots, and
// the variables the heads read (whose existential blocks a schedule cuts;
// see cutBlocks), which are all a schedule reads of the text.
func (t *text) cacheKey() uint64 {
	var h maphash.Hash
	h.SetSeed(nameSeed)
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	slots := func(ss ...slot) {
		for _, s := range ss {
			if s.isVar {
				word(uint64(s.varID)<<1 | 1)
			} else {
				word(uint64(s.val) << 1)
			}
		}
		word(uint64(len(ss)))
	}
	for i := range t.lits {
		l := &t.lits[i]
		word(uint64(l.kind)<<1 | b2u(l.neg))
		h.WriteString(l.pred)
		word(uint64(l.id))
		slots(l.slots...)
		slots(l.left, l.right)
		if l.forall == nil {
			continue
		}
		for _, v := range l.forall.vars {
			word(uint64(v))
		}
		for _, c := range l.forall.plan {
			word(uint64(c.kind)<<1 | b2u(c.negEq))
			word(uint64(c.pred))
			slots(c.slots...)
			slots(c.left, c.right)
		}
	}
	word(uint64(len(t.lits)))
	for id := range t.Vars {
		if headsRead(t.heads, int32(id)) {
			word(uint64(id))
		}
	}
	return h.Sum64() | 1
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sameRule reports whether a schedule of compiled literals a under heads
// ah is one of b under bh: what cacheKey hashes, compared.
func sameRule(a, b []lit, ah, bh []HeadAtom) bool {
	return sameBody(a, b) && headVarsIn(ah, bh) && headVarsIn(bh, ah)
}

// headVarsIn reports whether heads b read every variable heads a read.
func headVarsIn(a, b []HeadAtom) bool {
	for _, h := range a {
		for _, sl := range h.Slots {
			if sl.isVar && !headsRead(b, sl.varID) {
				return false
			}
		}
	}
	return true
}

// headsRead reports whether one of heads reads variable id.
func headsRead(heads []HeadAtom, id int32) bool {
	for _, h := range heads {
		for _, sl := range h.Slots {
			if sl.isVar && sl.varID == id {
				return true
			}
		}
	}
	return false
}

// sameBody reports whether a and b are the same compiled literals.
func sameBody(a, b []lit) bool {
	return slices.EqualFunc(a, b, func(x, y lit) bool {
		return x.kind == y.kind && x.neg == y.neg && x.pred == y.pred && x.id == y.id &&
			slices.Equal(x.slots, y.slots) && x.left == y.left && x.right == y.right &&
			(x.forall == nil) == (y.forall == nil) &&
			(x.forall == nil || slices.Equal(x.forall.vars, y.forall.vars) &&
				slices.EqualFunc(x.forall.plan, y.forall.plan, func(c, d check) bool {
					return c.kind == d.kind && c.pred == d.pred && c.negEq == d.negEq &&
						slices.Equal(c.slots, d.slots) && c.left == d.left && c.right == d.right
				}))
	})
}

// planCacheKey is a compiled rule's hash (text.cacheKey), the delta pin
// of the schedule (-1: none) and a cardinality-decade signature.
type planCacheKey struct {
	body uint64
	lit  int
	sig  uint64
}

// planCacheEntry is a cached schedule with the body and heads it was
// made for, which a lookup compares with its own (sameRule): equal
// hashes of different rules miss instead of sharing a schedule. The
// entry keeps the literals and heads, not their text, so that a cache
// shared by a daemon's requests keeps no request's compiled program
// alive.
type planCacheEntry struct {
	lits  []lit
	heads []HeadAtom
	steps []step
}

// PlanCache shares planner-chosen schedules across rule compilations
// of the same program text — the daemon compiles a cached program
// anew per request, so without it every request would re-derive the
// same plans. Entries are invalidated implicitly: a relation growing
// (or shrinking) across a size decade changes the signature half of
// the key, so the stale plan is simply never looked up again. Safe
// for concurrent use.
type PlanCache struct {
	mu           sync.Mutex
	m            map[planCacheKey]planCacheEntry
	hits, misses atomic.Uint64
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{m: make(map[planCacheKey]planCacheEntry)}
}

func (c *PlanCache) lookup(key planCacheKey, t *text) ([]step, bool) {
	c.mu.Lock()
	e, ok := c.m[key]
	c.mu.Unlock()
	ok = ok && sameRule(e.lits, t.lits, e.heads, t.heads)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e.steps, ok
}

func (c *PlanCache) store(key planCacheKey, t *text, st []step) {
	c.mu.Lock()
	c.m[key] = planCacheEntry{t.lits, t.heads, st}
	c.mu.Unlock()
}

// PlanCacheStats is a point-in-time reading of a PlanCache.
type PlanCacheStats struct {
	Hits    uint64 `json:"plan_cache_hits"`
	Misses  uint64 `json:"plan_cache_misses"`
	Entries int    `json:"plan_cache_entries"`
}

// Stats returns the cache's hit/miss counters and live entry count.
// Nil-safe (all zeros).
func (c *PlanCache) Stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// label names the rule for trace events: its first non-⊥ head.
func (r *Rule) label() string {
	for _, h := range r.heads {
		if !h.Bottom {
			return h.Pred
		}
	}
	return "⊥"
}

// eachJoin calls f for every match step of the schedule, in join order,
// with the estimated cumulative cardinality up to and including it.
func eachJoin(ctx *Ctx, tab *slotTable, steps []step, f func(i int, st *step, cum int)) {
	cum := 1
	for i := range steps {
		st := &steps[i]
		if st.kind != stepMatch {
			continue
		}
		est := estCard(tab.size(ctx, st.litIndex, st.pred), bits.OnesCount32(st.mask))
		if cum < 1<<40 { // keep the running product from overflowing
			cum *= est
		}
		f(i, st, cum)
	}
}

// planKey is the key of the schedule about to run, which the pick
// compares with that of the plan it last reported: a plan is reported
// once per change of join order or estimate, not once per stage. It is
// a hash (FNV-1a over the literal indexes and estimates), so comparing
// it formats nothing.
func (r *Rule) planKey(ctx *Ctx, tab *slotTable, steps []step) uint64 {
	key := uint64(14695981039346656037)
	eachJoin(ctx, tab, steps, func(_ int, st *step, cum int) {
		key = (key ^ uint64(st.litIndex)) * 1099511628211
		key = (key ^ uint64(cum)) * 1099511628211
	})
	return key
}

// appendPlan appends to b the chosen join order with estimated and
// actual cumulative cardinalities (counts: the tuples each step
// pulled), as "pred#lit est=N act=N" per join, joined by " ⋈ ". b is the
// collector's plan buffer (stats.Collector.PlanText), so the plans of a
// run allocate only that buffer's growth.
func (r *Rule) appendPlan(b []byte, ctx *Ctx, tab *slotTable, steps []step, counts []int64) []byte {
	first := true
	eachJoin(ctx, tab, steps, func(i int, st *step, cum int) {
		if !first {
			b = append(b, " ⋈ "...)
		}
		first = false
		b = append(b, r.prog.preds[st.pred]...)
		b = append(b, '#')
		b = strconv.AppendInt(b, int64(st.litIndex), 10)
		b = append(b, " est="...)
		b = strconv.AppendInt(b, int64(cum), 10)
		b = append(b, " act="...)
		b = strconv.AppendInt(b, counts[i], 10)
	})
	return b
}

// AdomCache memoizes the sorted, deduplicated active domain
// adom(P, I) across fixpoint stages. Engines that recompute the
// domain per stage (invent), per firing (active) or per explored
// state (nondet) consult the cache instead: when every relation's
// storage stamp is unchanged since the last computation the cached
// slice is returned as-is, so the O(n log n) sort-and-dedup is paid
// only when the instance actually changed. A cache for rules none of
// which reads the domain (ReadsDomain) builds nothing.
//
// A stamp is (generation, cardinality, fingerprint): the fingerprint
// catches a delete+insert pair that leaves the cardinality unchanged
// (sole-owner in-place writes do not bump the generation), and Insert
// and Delete keep it current, so it costs nothing to read. Not safe
// for concurrent use; engines own one cache per run.
type AdomCache struct {
	u          *value.Universe
	consts     []value.Value
	reads      bool
	stamps     map[string]adomStamp
	cached     []value.Value
	valid      bool
	recomputes int
}

type adomStamp struct {
	gen uint64
	n   int
	fp  uint64
}

// NewAdomCache returns a cache over the given program constants. reads
// is whether a rule the engine enumerates reads the domain
// (ReadsDomain); without one, Domain returns nil.
func NewAdomCache(u *value.Universe, progConsts []value.Value, reads bool) *AdomCache {
	return &AdomCache{u: u, consts: progConsts, reads: reads, stamps: map[string]adomStamp{}}
}

// Domain returns adom(P, in), recomputing only when in changed since
// the previous call, or nil when the cache's rules read no domain. The
// returned slice is shared with the cache; callers must not mutate it.
func (c *AdomCache) Domain(in *tuple.Instance) []value.Value {
	if !c.reads {
		return nil
	}
	if c.valid && c.unchanged(in) {
		return c.cached
	}
	c.restamp(in)
	c.cached = ActiveDomain(c.u, c.consts, in)
	c.valid = true
	c.recomputes++
	return c.cached
}

// Recomputes reports how many times Domain actually recomputed.
func (c *AdomCache) Recomputes() int { return c.recomputes }

func (c *AdomCache) unchanged(in *tuple.Instance) bool {
	n, same := 0, true
	in.EachRel(func(name string, r *tuple.Relation) {
		n++
		st, ok := c.stamps[name]
		if !ok || st.gen != r.Generation() || st.n != r.Len() || st.fp != r.Fingerprint() {
			same = false
		}
	})
	return same && n == len(c.stamps)
}

func (c *AdomCache) restamp(in *tuple.Instance) {
	clear(c.stamps)
	in.EachRel(func(name string, r *tuple.Relation) {
		c.stamps[name] = adomStamp{gen: r.Generation(), n: r.Len(), fp: r.Fingerprint()}
	})
}
