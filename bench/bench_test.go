package main

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// With 200 samples, ten lie beyond the 95th percentile.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.95); got != 190 {
		t.Errorf("percentile(1..200, 0.95) = %v, want 190", got)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(v, n=4) returns, since the driver judges the
// benchmark's spreads with that function.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 4, 7, 3, 8, 2, 9, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
	if got, want := spread([]float64{10, 1, 4, 7, 3, 8, 2, 9, 5, 6}), 1.0; got != want {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
}

func TestWorseFollowsDirection(t *testing.T) {
	if got := worse("lower", 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 110 is worse by %v, want 0.10", got)
	}
	if got := worse("higher", 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 90 is worse by %v, want 0.10", got)
	}
	if got := worse("higher", 100, 120); got >= 0 {
		t.Errorf("higher-is-better 100 -> 120 reads as worse by %v", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a: union is 10..60
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},   // sticks out: clipped to 90..100
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20}, // grandchild counts against a only
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 40, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	totals := reduce(spans, true)
	if totals["a"].Self != 25 || totals["a"].Dur != 30 || totals["a"].Count != 1 {
		t.Errorf("reduce: a = %+v", totals["a"])
	}
}

func TestScopeRecordsParentsAndTheZeroScopeRecordsNothing(t *testing.T) {
	tr := newTrace()
	sc := scope{t: tr}.forOp(7)
	ran := 0
	sc.span("outer", func(sc scope) {
		sc.span("inner", func(scope) { ran++ })
	})
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].Op != 7 || tr.spans[1].Op != 7 || tr.spans[1].End < tr.spans[1].Start {
		t.Errorf("op ids or clock wrong: %+v", tr.spans)
	}
	scope{}.span("untraced", func(sc scope) {
		if sc.on() {
			t.Error("the zero scope hands its callee a live scope")
		}
		ran++
	})
	if ran != 2 || len(tr.spans) != 2 {
		t.Errorf("ran %d bodies, %d spans", ran, len(tr.spans))
	}
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	gen := func(seed int64) (string, string, string) {
		rng := rand.New(rand.NewSource(seed))
		shape := rand.New(rand.NewSource(shapeSeed))
		lab := newLabels(rng, "n", 30)
		es := randomEdges(shape, 30, 60)
		in := facts{}
		in.addEdges("G", es, lab)
		return in.input(rng), tcFacts(30, es, lab).output(), wideProgram(rng, 4, 8)
	}
	a1, b1, c1 := gen(1)
	a2, b2, c2 := gen(1)
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Error("the same seed gave different inputs")
	}
	a3, b3, c3 := gen(2)
	if a1 == a3 || b1 == b3 || c1 == c3 {
		t.Error("another seed gave the same inputs")
	}
	// The seed renames and reorders; it does not change the shape.
	if len(a1) != len(a3) || len(b1) != len(b3) || len(c1) != len(c3) {
		t.Errorf("seeds changed the size of the inputs: %d/%d, %d/%d, %d/%d", len(a1), len(a3), len(b1), len(b3), len(c1), len(c3))
	}
}

func TestCanonicalUndoesTheRenaming(t *testing.T) {
	shape := func() *rand.Rand { return rand.New(rand.NewSource(shapeSeed)) }
	out := func(seed int64) string {
		lab := newLabels(rand.New(rand.NewSource(seed)), "n", 12)
		return canonical(ctFacts(12, randomEdges(shape(), 12, 20), lab).output()+"% analyze: kept (as is)\n", inverse(lab, "n"))
	}
	if out(1) != out(2) {
		t.Error("canonical outputs of two seeds differ")
	}
}

func TestOraclesOnHandCheckedInstances(t *testing.T) {
	lab := labels{"a", "b", "c", "d"}
	// a -> b -> c, d isolated from the relation (not in the active domain).
	got := ctFacts(4, []edge{{0, 1}, {1, 2}}, lab).output()
	want := "CT(a,a).\nCT(b,a).\nCT(b,b).\nCT(c,a).\nCT(c,b).\nCT(c,c).\nG(a,b).\nG(b,c).\nT(a,b).\nT(a,c).\nT(b,c).\n"
	if got != want {
		t.Errorf("ctFacts =\n%s\nwant\n%s", got, want)
	}
	// c has no move (lost), b moves to c (won), a moves only to b
	// (lost); d and e move to each other (drawn).
	moves := []edge{{0, 1}, {1, 2}, {3, 4}, {4, 3}}
	if got := relationLines(winFacts(5, moves, labels{"a", "b", "c", "d", "e"}).output(), "Win"); len(got) != 1 || got[0] != "Win(b)." {
		t.Errorf("winFacts Win = %v, want [Win(b).]", got)
	}
	_, sg := sgTree(3, labels{"r", "x", "y"})
	if got := relationLines(sg.output(), "Sg"); len(got) != 5 { // (r,r) and the four pairs over {x,y}
		t.Errorf("sgTree(3) Sg = %v", got)
	}
	_, j := join3(3, []edge{{0, 1}, {2, 1}}, []edge{{1, 2}}, []int{2}, labels{"a", "b", "c"})
	if got := j.output(); got != "A(a,b).\nA(c,b).\nB(b,c).\nQ(a,c).\nQ(c,c).\nR(c).\nSel(c).\n" {
		t.Errorf("join3 =\n%s", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricAndWorkloadTablesAreWellFormed(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the manifest allows 2 to 8", n)
	}
	driver := 0
	for _, em := range endToEnd {
		if em.Driver {
			driver++
		}
	}
	if driver < 1 || driver > 16 {
		t.Errorf("%d end-to-end metrics, the manifest allows 1 to 16", driver)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the manifest allows 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	wl := map[string]bool{}
	for _, w := range workloads {
		name("workload", w.Name)
		wl[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("workload %s is declared but not implemented: %v", w.Name, err)
		}
	}
	e2e := map[string]bool{}
	setup := false
	for _, em := range endToEnd {
		name("end-to-end metric", em.Name)
		e2e[em.Name] = true
		if !unitRE.MatchString(em.Unit) || (em.Better != "lower" && em.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is malformed", em.Name, em.Unit, em.Better)
		}
		if em.Driver && (em.Bound <= 0 || em.Bound > 0.25) {
			t.Errorf("%s: bound %v is outside 0..0.25", em.Name, em.Bound)
		}
		if em.Name == "setup_s" {
			setup = em.Driver && em.Unit == "s" && em.Better == "lower"
			for _, o := range endToEnd {
				if o.Driver && o.Bound > em.Bound {
					t.Errorf("setup_s must have the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, lm := range perLayer {
		name("per-layer metric", lm.Name)
		if !unitRE.MatchString(lm.Unit) || (lm.Better != "lower" && lm.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is malformed", lm.Name, lm.Unit, lm.Better)
		}
		// Every layer metric says which end-to-end metric it should
		// move and where; only the benchmark's own self-checks move none.
		if len(lm.Moves) == 0 && !regexp.MustCompile(`^bench\.`).MatchString(lm.Name) {
			t.Errorf("%s predicts no end-to-end movement", lm.Name)
		}
		for _, mv := range lm.Moves {
			if !e2e[mv.Metric] || !wl[mv.Workload] {
				t.Errorf("%s moves %s on %s: not a declared metric and workload", lm.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

func TestManifestFileMatchesTheTables(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(got))
	}
}

// TestWorkloadsRunCorrectlyOnTheSeed sets every workload up (which
// checks its outputs against the oracles and golden digests), runs a
// handful of ops traced and reduces them: the whole pipeline at the
// size of a unit test.
func TestWorkloadsRunCorrectlyOnTheSeed(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, outDir: t.TempDir(), golden: golden{dir: filepath.Join(root, "bench", "golden")}}
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			w, err := newWorkload(wl.Name)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			tr := newTrace()
			if err := w.setup(e, 3, scope{t: tr, op: -1}); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 4; k++ {
				var check func() bool
				scope{t: tr}.forOp(k).span("op", func(sc scope) { _, check = w.op(k, sc) })
				if check == nil || !check() {
					t.Fatalf("op %d failed", k)
				}
			}
			ops := reduce(tr.spans, true)
			if ops["op"].Count != 4 {
				t.Fatalf("%d op spans, want 4", ops["op"].Count)
			}
			var layerSelf int64
			for name, s := range ops {
				if name != "op" && name[:min(5, len(name))] != "case:" {
					layerSelf += s.Self
				}
			}
			if share := float64(layerSelf) / float64(ops["op"].Dur); share < 0.9 || share > 1.0 {
				t.Errorf("layer spans cover %.3f of the op spans", share)
			}
		})
	}
}

func TestBestSumsTheFastestRepetitionOfEachPiece(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	// A two-piece op, four times over: no repetition is quickest on both
	// pieces, and the quickest of all failed its check.
	samples := []sample{
		{k: 0, dur: 31 * time.Millisecond, pieces: ms(10, 20), ok: true},
		{k: 1, dur: 25 * time.Millisecond, pieces: ms(14, 11), ok: true},
		{k: 2, dur: 2 * time.Millisecond, pieces: ms(1, 1), ok: false},
		{k: 3, dur: 40 * time.Millisecond, pieces: ms(15, 25), ok: true},
	}
	if got := bestMS(samples, 1); got != 21 {
		t.Errorf("best of a one-op list = %v ms, want 10 + 11", got)
	}
	// The same samples as a two-op list (k even, k odd): each position
	// keeps its own fastest pieces and the metric is the mean per op.
	if got := bestMS(samples, 2); got != (30+25)/2.0 {
		t.Errorf("best of a two-op list = %v ms, want (10+20 + 14+11)/2", got)
	}
	// Ops without pieces are one piece: their whole duration.
	whole := []sample{{k: 0, dur: 9 * time.Millisecond, ok: true}, {k: 1, dur: 5 * time.Millisecond, ok: true}, {k: 2, dur: 7 * time.Millisecond, ok: true}}
	if got := bestMS(whole, 2); got != (7+5)/2.0 {
		t.Errorf("best of whole ops = %v ms, want 6", got)
	}
	if got := bestMS(samples[2:3], 1); got != 0 {
		t.Errorf("best with no correct op = %v, want 0", got)
	}
}

func TestLoopStopsAndCountsFailures(t *testing.T) {
	w := &fakeWorkload{failEvery: 10}
	r := loop(w, 20*time.Millisecond, minOps, 0, scope{})
	if len(r.samples) < minOps {
		t.Errorf("%d ops, want at least %d", len(r.samples), minOps)
	}
	if want := len(r.samples) / 10; r.failed() < want-1 || r.failed() > want+1 {
		t.Errorf("%d of %d ops failed, want about %d", r.failed(), len(r.samples), want)
	}
	tr := newTrace()
	r = loop(w, time.Millisecond, minOps, 7, scope{t: tr})
	if bare, traced := len(r.opMS(true)), len(r.opMS(false)); bare == 0 || traced < 2*bare {
		t.Errorf("traced loop ran %d traced and %d bare ops", traced, bare)
	}
}

// fakeWorkload is an op that takes a few microseconds and fails on a
// schedule, half by returning no check and half by a failing check.
type fakeWorkload struct{ failEvery int }

func (f *fakeWorkload) setup(*env, int64, scope) error { return nil }
func (f *fakeWorkload) clients() int                   { return 2 }
func (f *fakeWorkload) cycle() int                     { return 1 }
func (f *fakeWorkload) checkAllocs() (uint64, uint64)  { return 0, 0 }
func (f *fakeWorkload) close() error                   { return nil }
func (f *fakeWorkload) layers(scope, map[string]spanTotals, int) (map[string]float64, error) {
	return nil, nil
}
func (f *fakeWorkload) op(k int, sc scope) ([]time.Duration, func() bool) {
	switch {
	case k%f.failEvery != 0:
		return nil, func() bool { return true }
	case k%(2*f.failEvery) == 0:
		return nil, nil
	}
	return nil, func() bool { return false }
}
