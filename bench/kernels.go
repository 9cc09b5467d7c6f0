package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"unchained"
	"unchained/internal/eval"
	"unchained/internal/stats"
	"unchained/internal/stratify"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// The micro-kernels of the traced run call one layer's public
// functions on data the workload itself produced, from outside the
// layer, each inside a span with op -1. They give the layers a cost
// per unit of work (per fact, per rule, per probe) that the op spans,
// which only see whole calls, cannot.

// kernelCost is the mean cost of one kernel iteration.
type kernelCost struct {
	ns      float64
	mallocs float64
}

// timeKernel runs fn reps times inside one span and returns the mean
// wall time and mallocs of a run. The kernels run on one goroutine
// while nothing else does, so the MemStats delta is fn's own.
func timeKernel(sc scope, name string, reps int, fn func()) kernelCost {
	var before, after runtime.MemStats
	var d time.Duration
	sc.span(name, func(scope) {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		d = time.Since(t0)
		runtime.ReadMemStats(&after)
	})
	return kernelCost{
		ns:      float64(d) / float64(reps),
		mallocs: float64(after.Mallocs-before.Mallocs) / float64(reps),
	}
}

// kernelInput is what a workload hands the generic kernels: a session
// and an instance it produced, its representative program and facts
// texts, a join rule over the instance's relations, and the name of
// the instance's biggest relation.
type kernelInput struct {
	sess     *unchained.Session
	inst     *unchained.Instance
	program  string
	facts    string
	joinRule string
	big      string
}

// kernels fills m with the parser, analyze, opt, stratify, eval, tuple
// and value metrics for in.
func kernels(sc scope, m map[string]float64, in kernelInput) error {
	s := unchained.NewSession()
	prog, err := s.Parse(in.program)
	if err != nil {
		return err
	}
	rules := float64(len(prog.Rules))
	edb, err := s.Facts(in.facts)
	if err != nil {
		return err
	}
	nFacts := float64(edb.Facts())

	reps := max(1, int(2000/rules))
	m["parser.program_us"] = timeKernel(sc, "parser.program", reps, func() {
		unchained.NewSession().Parse(in.program)
	}).ns / 1e3
	if nFacts > 0 {
		c := timeKernel(sc, "parser.facts", max(1, int(20000/nFacts)), func() {
			unchained.NewSession().Facts(in.facts)
		})
		m["parser.facts_ns_per_fact"] = c.ns / nFacts
		m["parser.mallocs_per_fact"] = c.mallocs / nFacts
	}
	c := timeKernel(sc, "analyze", reps, func() { s.Analyze(prog) })
	m["analyze.us_per_rule"] = c.ns / 1e3 / rules
	m["analyze.mallocs_per_rule"] = c.mallocs / rules
	var opt *unchained.OptimizeResult
	c = timeKernel(sc, "opt", reps, func() {
		opt = s.OptimizeFor(prog, unchained.Stratified, &unchained.OptOptions{Level: unchained.Opt2, Roots: optRoots(prog)})
	})
	m["opt.us_per_rule"] = c.ns / 1e3 / rules
	m["opt.rewrites"] = float64(len(opt.Rewrites))
	m["opt.rules_removed"] = float64(opt.RulesRemoved)
	if _, err := stratify.Stratify(prog); err == nil {
		m["stratify.us_per_rule"] = timeKernel(sc, "stratify", reps, func() { stratify.Stratify(prog) }).ns / 1e3 / rules
	}
	m["eval.compile_us_per_rule"] = timeKernel(sc, "eval.compile", reps, func() { eval.CompileProgram(prog) }).ns / 1e3 / rules

	if err := enumerateKernel(sc, m, in); err != nil {
		return err
	}
	tupleKernels(sc, m, in)

	// value: looking up every constant of the instance, and the fork a
	// request pays (Clone plus the first new constant, which promotes
	// the clone onto private interning maps).
	u := in.sess.U
	names := make([]string, 0, u.Len())
	for v := value.Value(1); int(v) <= u.Len(); v++ {
		if u.Kind(v) == value.KindSym {
			names = append(names, u.Name(v))
		}
	}
	if len(names) > 0 {
		m["value.sym_ns"] = timeKernel(sc, "value.sym", 20, func() {
			for _, n := range names {
				u.Sym(n)
			}
		}).ns / float64(len(names))
	}
	m["value.clone_ns"] = timeKernel(sc, "value.clone", 200, func() { u.Clone().Sym("bench-fresh-constant") }).ns
	return nil
}

// optRoots is the last rule's head predicate: the natural "answer" of
// the benchmark's programs, and what makes O2's reachability pass run.
func optRoots(p *unchained.Program) []string {
	if len(p.Rules) == 0 {
		return nil
	}
	for _, h := range p.Rules[len(p.Rules)-1].Head {
		return []string{h.Atom.Pred}
	}
	return nil
}

// enumerateKernel times Rule.Enumerate of in.joinRule over the whole of
// in.inst: the matcher's cost per satisfying valuation.
func enumerateKernel(sc scope, m map[string]float64, in kernelInput) error {
	p, err := in.sess.Parse(in.joinRule)
	if err != nil {
		return err
	}
	rule, err := eval.Compile(p.Rules[0])
	if err != nil {
		return err
	}
	ctx := &eval.Ctx{In: in.inst, Adom: eval.ActiveDomain(in.sess.U, nil, in.inst)}
	bindings := 0
	c := timeKernel(sc, "eval.enumerate", 3, func() {
		bindings = 0
		rule.Enumerate(ctx, func(eval.Binding) bool { bindings++; return true })
	})
	if bindings > 0 {
		m["eval.enumerate_ns_per_binding"] = c.ns / float64(bindings)
		m["eval.enumerate_mallocs_per_binding"] = c.mallocs / float64(bindings)
	}
	return nil
}

// tupleKernels times the storage primitives on the biggest relation of
// in.inst and the whole-instance operations on in.inst.
func tupleKernels(sc scope, m map[string]float64, in kernelInput) {
	rel := in.inst.Relation(in.big)
	if rel == nil || rel.Len() == 0 {
		return
	}
	tuples := rel.Tuples()
	n := float64(len(tuples))
	const reps = 3
	per := func(name string, fn func()) kernelCost {
		c := timeKernel(sc, name, reps, fn)
		return kernelCost{ns: c.ns / n, mallocs: c.mallocs / n}
	}
	var fresh *tuple.Relation
	c := per("tuple.insert", func() {
		fresh = tuple.NewRelation(rel.Arity())
		for _, t := range tuples {
			fresh.Insert(t)
		}
	})
	m["tuple.insert_ns"], m["tuple.insert_mallocs"] = c.ns, c.mallocs
	c = per("tuple.contains", func() {
		for _, t := range tuples {
			fresh.Contains(t)
		}
	})
	m["tuple.contains_ns"], m["tuple.contains_mallocs"] = c.ns, c.mallocs
	// A probe on the first column, drained: what a join step does.
	fresh.BuildIndex(1)
	var it tuple.Iterator
	c = per("tuple.probe", func() {
		for _, t := range tuples {
			fresh.ProbeIter(1, t, &it)
			for _, ok := it.Next(); ok; _, ok = it.Next() {
			}
		}
	})
	m["tuple.probe_ns"], m["tuple.probe_mallocs"] = c.ns, c.mallocs
	c = timeKernel(sc, "tuple.delete", 1, func() {
		for _, t := range tuples {
			fresh.Delete(t)
		}
	})
	m["tuple.delete_ns"], m["tuple.delete_mallocs"] = c.ns/n, c.mallocs/n

	facts := float64(in.inst.Facts())
	m["tuple.snapshot_ns"] = timeKernel(sc, "tuple.snapshot", 1000, func() { in.inst.Snapshot() }).ns
	// The first write after a snapshot promotes the written relation
	// onto a private copy: the cost a stage pays to change a fork.
	extra := make(tuple.Tuple, rel.Arity())
	for i := range extra {
		extra[i] = in.sess.U.Sym("bench-fresh-constant")
	}
	m["tuple.snapshot_write_ns"] = timeKernel(sc, "tuple.snapshot_write", 20, func() {
		in.inst.Snapshot().Insert(in.big, extra)
	}).ns
	c = timeKernel(sc, "tuple.format", reps, func() { in.inst.String(in.sess.U) })
	m["tuple.format_ns_per_fact"], m["tuple.format_mallocs_per_fact"] = c.ns/facts, c.mallocs/facts
	m["tuple.fingerprint_ns_per_fact"] = timeKernel(sc, "tuple.fingerprint", reps, func() { in.inst.Fingerprint() }).ns / facts

	// bytes_per_fact: what an eager private copy of the instance adds
	// to the live heap.
	before := liveHeap()
	deep := in.inst.DeepClone()
	after := liveHeap()
	runtime.KeepAlive(deep)
	m["tuple.bytes_per_fact"] = (after - before) / facts
}

// engineCounts fills the exact per-pass counts of the eval and tuple
// layers from stats summaries.
func engineCounts(m map[string]float64, sums ...*stats.Summary) {
	var firings, derived, rederived, probes, scans, snaps, proms, copied float64
	for _, s := range sums {
		if s == nil {
			continue
		}
		firings += float64(s.Firings)
		derived += float64(s.Derived)
		rederived += float64(s.Rederived)
		probes += float64(s.IndexProbes)
		scans += float64(s.FullScans)
		snaps += float64(s.CowSnapshots)
		proms += float64(s.CowPromotions)
		copied += float64(s.CowTuplesCopied)
	}
	m["eval.firings"], m["eval.derived"], m["eval.rederived"] = firings, derived, rederived
	m["eval.index_probes"], m["eval.full_scans"] = probes, scans
	if derived+rederived > 0 {
		m["eval.useful_share"] = derived / (derived + rederived)
	}
	m["tuple.cow_snapshots"], m["tuple.cow_promotions"], m["tuple.cow_tuples_copied"] = snaps, proms, copied
}

// layers of a library workload: reductions of the engine spans, exact
// counts from a stats pass, the ablation ratios, the capture overheads
// and the generic kernels on the workload's biggest result.
func (l *library) layers(sc scope, ops map[string]spanTotals, nOps int) (map[string]float64, error) {
	m := map[string]float64{}
	perPassMS := func(span string) float64 { return float64(ops[span].Dur) / float64(nOps) / 1e6 }
	m["declarative.seminaive_ms"] = perPassMS("declarative.seminaive")
	m["declarative.stratified_ms"] = perPassMS("declarative.stratified")
	m["declarative.wfs_ms"] = perPassMS("declarative.wfs")
	m["core.inflationary_ms"] = perPassMS("core.inflationary")
	m["core.noninflationary_ms"] = perPassMS("core.noninflationary")

	// One pass with a stats collector per case: exact counts.
	type engineSums struct{ stages, firings, derived float64 }
	byEngine := map[string]*engineSums{"declarative": {}, "core": {}}
	var sums []*stats.Summary
	for _, c := range l.cases {
		if c.engine == "" {
			continue
		}
		o, err := c.run(scope{}, unchained.WithStats(unchained.NewStatsCollector()))
		if err != nil {
			return nil, err
		}
		sums = append(sums, o.res.Stats)
		e := byEngine[strings.SplitN(c.engine, ".", 2)[0]]
		e.stages += float64(o.res.Stats.Stages)
		e.firings += float64(o.res.Stats.Firings)
		e.derived += float64(o.res.Stats.Derived)
	}
	engineCounts(m, sums...)
	engineNS := map[string]float64{}
	for span, t := range ops {
		if layer, _, ok := strings.Cut(span, "."); ok && byEngine[layer] != nil {
			engineNS[layer] += float64(t.Dur) / float64(nOps)
		}
	}
	if d := byEngine["declarative"]; d.stages > 0 {
		m["declarative.us_per_stage"] = engineNS["declarative"] / 1e3 / d.stages
		m["declarative.ns_per_derived"] = engineNS["declarative"] / max(d.derived, 1)
	}
	if c := byEngine["core"]; c.stages > 0 {
		m["core.us_per_stage"] = engineNS["core"] / 1e3 / c.stages
		m["core.ns_per_firing"] = engineNS["core"] / max(c.firings, 1)
	}

	// Ablations and capture overheads: whole passes with one option
	// changed, interleaved with bare passes so drift hits both alike.
	pass := func(name string, opts func() []unchained.Opt) (float64, error) {
		var d time.Duration
		var err error
		sc.span(name, func(scope) {
			t0 := time.Now()
			for _, c := range l.cases {
				if c.engine == "" {
					continue
				}
				if _, e := c.run(scope{}, opts()...); e != nil {
					err = e
				}
			}
			d = time.Since(t0)
		})
		return float64(d), err
	}
	none := func() []unchained.Opt { return nil }
	variants := []struct {
		metric string
		opts   func() []unchained.Opt
		of     func(bare, v float64) float64
	}{
		{"stats.capture_overhead_share", func() []unchained.Opt {
			return []unchained.Opt{unchained.WithStats(unchained.NewStatsCollector())}
		}, func(b, v float64) float64 { return v/b - 1 }},
		{"trace.capture_overhead_share", func() []unchained.Opt {
			return []unchained.Opt{unchained.WithTracer(unchained.NewTraceRecorder(0))}
		}, func(b, v float64) float64 { return v/b - 1 }},
		{"eval.scan_vs_index_ratio", func() []unchained.Opt { return []unchained.Opt{unchained.WithScan()} },
			func(b, v float64) float64 { return v / b }},
		{"eval.shard2_ratio", func() []unchained.Opt {
			return []unchained.Opt{unchained.WithParallel(unchained.Parallel{Shards: 2})}
		}, func(b, v float64) float64 { return b / v }},
	}
	const rounds = 5
	for _, v := range variants {
		var bare, with []float64
		for r := 0; r < rounds; r++ {
			b, err := pass("pass.bare", none)
			if err != nil {
				return nil, err
			}
			w, err := pass("pass."+v.metric, v.opts)
			if err != nil {
				return nil, err
			}
			bare, with = append(bare, b), append(with, w)
		}
		m[v.metric] = v.of(median(bare), median(with))
	}

	// The plan cache across two passes over the same programs.
	plans := unchained.NewPlanCache()
	for r := 0; r < 2; r++ {
		if _, err := pass("pass.plan_cache", func() []unchained.Opt { return []unchained.Opt{unchained.WithPlanCache(plans)} }); err != nil {
			return nil, err
		}
	}
	if ps := plans.Stats(); ps.Hits+ps.Misses > 0 {
		m["eval.plan_cache_hit_share"] = float64(ps.Hits) / float64(ps.Hits+ps.Misses)
	}

	// The generic kernels run on the case with the biggest result.
	var big *libCase
	var bigOut caseOutput
	for i, c := range l.cases {
		if o := l.last[i]; o.res != nil && (bigOut.res == nil || o.res.Out.Facts() > bigOut.res.Out.Facts()) {
			big, bigOut = c, o
		}
	}
	in := kernelInput{
		sess: bigOut.sess, inst: bigOut.res.Out, program: big.program, facts: big.facts,
		joinRule: big.join, big: biggestRelation(bigOut.res.Out),
	}
	if err := kernels(sc, m, in); err != nil {
		return nil, err
	}

	// est_share: what the storage kernels predict the engines spend in
	// storage, from the pass's own counts, over the engine spans.
	engine := engineNS["declarative"] + engineNS["core"]
	if engine > 0 {
		est := m["eval.derived"]*m["tuple.insert_ns"] + (m["eval.derived"]+m["eval.rederived"])*m["tuple.contains_ns"] + m["eval.index_probes"]*m["tuple.probe_ns"]
		m["tuple.est_share"] = est / engine
	}
	return m, nil
}

func biggestRelation(in *unchained.Instance) string {
	best, size := "", -1
	for _, name := range in.Names() {
		if n := in.Relation(name).Len(); n > size {
			best, size = name, n
		}
	}
	return best
}

// lastRule returns the last rule line of a program text: for the
// benchmark's programs, the recursive or widest join.
func lastRule(program string) string {
	lines := strings.Split(strings.TrimSpace(program), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if l := strings.TrimSpace(lines[i]); l != "" && !strings.HasPrefix(l, "%") {
			return l
		}
	}
	return ""
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 where there is no such file.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
