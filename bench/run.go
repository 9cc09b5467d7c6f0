package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A workload is a closed loop over a pre-generated op list. The runner
// owns the clock, the memory counters and the trace; the workload owns
// the inputs and the calls into the program under test.
type workload interface {
	// setup generates the inputs from seed, verifies the program's
	// output on each against its oracle or golden digest (which is
	// also the warm-up pass) and boots whatever the ops talk to.
	setup(env *env, seed int64, sc scope) error
	// clients is how many goroutines run ops at once.
	clients() int
	// cycle is the length of the op list: after this many ops the same
	// ops come round again.
	cycle() int
	// op runs op number k (the op list is cycled, k only grows) and
	// returns a check of its output that the runner calls outside the
	// timed region. A nil check means the op already failed. pieces are
	// the times of the op's separately timed parts (the cases of a
	// library pass), nil when the op is one piece.
	op(k int, sc scope) (pieces []time.Duration, check func() bool)
	// layers runs the micro-kernels of the traced run and returns the
	// per-layer metrics that are not reductions of the op spans.
	layers(sc scope, ops map[string]spanTotals, nOps int) (map[string]float64, error)
	// checkAllocs is the running total of bytes and mallocs spent in
	// checks heavy enough to distort the per-op memory metrics; the
	// runner subtracts it, so those metrics describe the program and
	// not the benchmark.
	checkAllocs() (bytes, mallocs uint64)
	// close stops what setup started and removes what it wrote.
	close() error
}

// env is what a run knows about its surroundings.
type env struct {
	root   string // the checkout: where programs/ and bench/ live
	outDir string // bench/out, for traces, results and the WAL
	golden golden
}

func newWorkload(name string) (workload, error) {
	switch name {
	case tcJoin:
		return &library{name: name, build: buildTCJoin}, nil
	case negStages:
		return &library{name: name, build: buildNegStages}, nil
	case frontend:
		return &library{name: name, build: buildFrontend}, nil
	case incrUpd:
		return &incrWorkload{}, nil
	case serveEval:
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

const (
	minOps    = 200 // so that ten samples lie beyond the 95th percentile
	bareEvery = 4   // in a traced run, one op in this many runs untraced
	// An untraced run is cut into this many segments, with set-ups of
	// throwaway instances of the workload in the gaps: at least one per
	// gap, more while a gap has lasted less than gapBudget. setup_s is
	// the quickest of them and of the set-up of the instance the ops run
	// on. The quickest, not the median, for the reason op_ms_best is a
	// floor; spread over the run, not back to back before it, because
	// the box's slow spells last seconds: the quickest of nine 70 ms
	// set-ups taken in the first second of a run moved by 26% between
	// the medians of two sets of ten runs.
	segments  = 6
	gapBudget = 300 * time.Millisecond
	hardStop  = 150 * time.Second // on a whole run
)

// sample is one op of a timed loop.
type sample struct {
	k      int // op number
	dur    time.Duration
	pieces []time.Duration // the op's separately timed parts, nil for one piece
	ok     bool
	bare   bool // ran untraced inside a traced loop
}

// loopResult is what one timed op loop measured.
type loopResult struct {
	samples  []sample // by op number
	wall     time.Duration
	allocKB  float64 // TotalAlloc delta over the loop, checks excluded
	mallocs  float64
	gcCycles uint32
}

// add appends a later segment of the same run.
func (r *loopResult) add(seg loopResult) {
	r.samples = append(r.samples, seg.samples...)
	r.wall += seg.wall
	r.allocKB += seg.allocKB
	r.mallocs += seg.mallocs
	r.gcCycles += seg.gcCycles
}

func (r *loopResult) failed() int {
	n := 0
	for _, s := range r.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// opMS returns the op times, in milliseconds, of the traced or the
// bare samples.
func (r *loopResult) opMS(bare bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.bare == bare {
			out = append(out, float64(s.dur)/1e6)
		}
	}
	return out
}

// loop cycles the workload's op list, from op number from on, for d and
// at least atLeast ops.
// Each client times its own ops; output checks run between ops, off
// the clock. In a traced run every bareEvery-th op runs untraced, so
// that the traced and the untraced median come from the same minutes
// of the same process.
func loop(w workload, d time.Duration, atLeast, from int, sc scope) loopResult {
	var (
		next   atomic.Int64
		done   atomic.Int64
		mu     sync.Mutex
		res    loopResult
		wg     sync.WaitGroup
		before runtime.MemStats
		after  runtime.MemStats
	)
	next.Store(int64(from))
	checkBytes, checkMallocs := w.checkAllocs()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]sample, 0, 1024)
			for {
				el := time.Since(start)
				if (el >= d && done.Load() >= int64(atLeast)) || el >= hardStop/segments {
					break
				}
				k := int(next.Add(1) - 1)
				osc, bare := sc.forOp(k), sc.on() && k%bareEvery == bareEvery-1
				if bare {
					osc = scope{}
				}
				var (
					pieces []time.Duration
					check  func() bool
				)
				t0 := time.Now()
				osc.span("op", func(sc scope) { pieces, check = w.op(k, sc) })
				dur := time.Since(t0)
				mine = append(mine, sample{k: k, dur: dur, pieces: pieces, ok: check != nil && check(), bare: bare})
				done.Add(1)
			}
			mu.Lock()
			res.samples = append(res.samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	b, m := w.checkAllocs()
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].k < res.samples[j].k })
	res.allocKB = float64(after.TotalAlloc-before.TotalAlloc-(b-checkBytes)) / 1024
	res.mallocs = float64(after.Mallocs - before.Mallocs - (m - checkMallocs))
	res.gcCycles = after.NumGC - before.NumGC
	return res
}

// bestMS is op_ms_best: the mean time of an op of the op list had every
// piece of work run as fast as the fastest of its repetitions in the
// run. A piece is a case of a library pass, a batch of incr-updates, a
// request of serve-eval: the same input through the same code every
// time the op list comes round, so its repetitions differ only by what
// else the machine was doing. Failed ops are left out.
//
// The reference box is a small guest on a shared host whose other
// tenants contend for the last-level cache and memory: a fixed
// pointer-chasing loop takes anything from 58 to 104 ms there (10th to
// 90th percentile of 200 repetitions), and whole runs are 20-40% slower
// than their neighbours for minutes at a time. Other tenants only ever
// add time, so the fastest repetition is the estimate of what the
// program itself costs that they disturb least, and the shorter the
// piece the likelier one repetition of it met a quiet moment. In a bad
// hour the whole-run median op time of ten runs spread (first to third
// quartile over median) by 20-45% where this spread by 6-12%; the
// README has the measurements.
func bestMS(samples []sample, cycle int) float64 {
	type piece struct{ pos, i int }
	fastest := map[piece]time.Duration{}
	positions := map[int]bool{}
	for _, s := range samples {
		if !s.ok {
			continue
		}
		pieces := s.pieces
		if pieces == nil {
			pieces = []time.Duration{s.dur}
		}
		positions[s.k%cycle] = true
		for i, d := range pieces {
			p := piece{s.k % cycle, i}
			if f, seen := fastest[p]; !seen || d < f {
				fastest[p] = d
			}
		}
	}
	if len(positions) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range fastest {
		sum += d
	}
	return float64(sum) / 1e6 / float64(len(positions))
}

// result is one run of one workload: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Seconds   float64            `json:"seconds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	Metrics   map[string]float64 `json:"metrics"`
	Trace     string             `json:"trace_file,omitempty"`
}

func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// setUp makes an instance of the workload and times its set-up.
func setUp(e *env, name string, seed int64) (workload, float64, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := w.setup(e, seed, scope{}); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("%s: setup: %w", name, err)
	}
	return w, time.Since(t0).Seconds(), nil
}

// runUntraced measures the end-to-end metrics of one workload with
// tracing off.
func runUntraced(e *env, name string, seed int64, d time.Duration) (*result, error) {
	baseline := liveHeap()
	w, first, err := setUp(e, name, seed)
	if err != nil {
		return nil, err
	}
	setups := []float64{first}
	var lr loopResult
	for i := 0; i < segments; i++ {
		lr.add(loop(w, d/segments, (minOps+segments-1)/segments, len(lr.samples), scope{}))
		gap := time.Now()
		for more := true; more; more = time.Since(gap) < gapBudget {
			extra, took, err := setUp(e, name, seed)
			if err == nil {
				if err = extra.close(); err != nil {
					err = fmt.Errorf("%s: close: %w", name, err)
				}
			}
			if err != nil {
				w.close()
				return nil, err
			}
			setups = append(setups, took)
		}
	}
	if s, ok := w.(interface{ settle() }); ok {
		s.settle()
	}
	n, failed := len(lr.samples), lr.failed()
	ms := sortedCopy(lr.opMS(false))
	best, p50, p95 := bestMS(lr.samples, w.cycle()), percentile(ms, 0.50), percentile(ms, 0.95)
	lr.samples = nil // so that the live heap is the program's, not the benchmark's
	live := liveHeap() - baseline
	runtime.KeepAlive(w)
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", name, err)
	}
	return &result{
		Workload: name, Seed: seed, Seconds: lr.wall.Seconds(),
		Attempted: n, Failed: failed, Samples: n,
		Metrics: map[string]float64{
			"setup_s":         minOf(setups),
			"op_ms_best":      best,
			"op_ms_p50":       p50,
			"op_ms_p95":       p95,
			"ops_per_s":       float64(n-failed) / lr.wall.Seconds(),
			"fail_share":      float64(failed) / float64(n),
			"alloc_kb_per_op": lr.allocKB / float64(n),
			"mallocs_per_op":  lr.mallocs / float64(n),
			"live_heap_mb":    live / (1 << 20),
		},
	}, nil
}

// runTraced makes the traced run of one workload: the op loop with a
// span around every call into a layer, then the micro-kernels. The
// spans go to bench/out/<workload>.trace.jsonl.
func runTraced(e *env, name string, seed int64, d time.Duration) (*result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	tr := newTrace()
	root := scope{t: tr, op: -1}
	if err := w.setup(e, seed, root); err != nil {
		w.close()
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}
	// Half the time and half the ops of the untraced run, so that with
	// the micro-kernels a traced run takes about as long as an untraced.
	traced := loop(w, d/2, minOps/2, 0, scope{t: tr})
	opSpans := reduce(tr.spans, true)
	m := map[string]float64{}
	for _, lm := range perLayer {
		m[lm.Name] = 0
	}
	tracedMS := traced.opMS(false)
	layer, err := w.layers(root, opSpans, len(tracedMS))
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: layers: %w", name, err)
	}
	for k, v := range layer {
		if _, ok := m[k]; !ok {
			return nil, fmt.Errorf("%s: undeclared per-layer metric %q", name, k)
		}
		m[k] = v
	}

	opWall := float64(opSpans["op"].Dur)
	var layerSelf float64
	for spanName, t := range opSpans {
		if spanName != "op" && !strings.HasPrefix(spanName, "case:") {
			layerSelf += float64(t.Self)
		}
	}
	m["bench.span_sum_share"] = layerSelf / opWall
	m["bench.trace_overhead_share"] = median(tracedMS)/median(traced.opMS(true)) - 1
	m["analyze.op_share"] = float64(opSpans["analyze"].Self) / opWall
	var engineFormat float64
	for spanName, t := range opSpans {
		if strings.HasPrefix(spanName, "declarative.") || strings.HasPrefix(spanName, "core.") || spanName == "tuple.format" {
			engineFormat += float64(t.Self)
		}
	}
	m["bench.engine_format_share"] = engineFormat / opWall
	m["runtime.gc_cycles_per_op"] = float64(traced.gcCycles) / float64(len(traced.samples))
	m["runtime.peak_rss_mb"] = peakRSSMB()

	path := filepath.Join(e.outDir, name+".trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	return &result{
		Workload: name, Seed: seed, Traced: true, Seconds: traced.wall.Seconds(),
		Attempted: len(traced.samples), Failed: traced.failed(),
		Samples: len(tracedMS), Metrics: m, Trace: path,
	}, nil
}

// spanP returns the p-quantile, in nanoseconds, of the durations of
// the op-loop spans with the given name.
func spanP(spans []span, name string, p float64) float64 {
	var d []float64
	for _, s := range spans {
		if s.Op >= 0 && s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	sort.Float64s(d)
	return percentile(d, p)
}
