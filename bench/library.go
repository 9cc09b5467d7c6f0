package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"unchained"
)

// A libCase is one program-plus-facts evaluation through the public
// Session: Parse, Facts, optionally Analyze and Optimize, EvalContext
// and Format. A library workload's op is one pass over its cases.
type libCase struct {
	name     string
	program  string
	facts    string
	sem      unchained.Semantics
	engine   string // span name of the EvalContext call, "" to stop after the front end
	analyze  bool
	optimize []string // non-nil: Optimize at O2 with these roots before evaluating
	join     string   // the rule the enumerate kernel matches against this case's result

	// verify checks the output of the set-up pass against this case's
	// oracle or golden digest. What it accepts becomes want, which
	// every later op must reproduce byte for byte.
	verify func(out string) error
	want   string
}

// caseOutput is what one evaluation of a case left behind; the
// workload keeps the last one of each case alive for live_heap_mb and
// the micro-kernels.
type caseOutput struct {
	sess *unchained.Session
	prog *unchained.Program
	in   *unchained.Instance
	res  *unchained.EvalResult
	text string
}

// run evaluates the case once. opts are extra evaluation options (the
// kernels pass WithStats and friends; the op loop passes none).
func (c *libCase) run(sc scope, opts ...unchained.Opt) (caseOutput, error) {
	o := caseOutput{sess: unchained.NewSession()}
	var err error
	sc.span("parser.program", func(scope) { o.prog, err = o.sess.Parse(c.program) })
	if err != nil {
		return o, fmt.Errorf("%s: parse: %w", c.name, err)
	}
	sc.span("parser.facts", func(scope) { o.in, err = o.sess.Facts(c.facts) })
	if err != nil {
		return o, fmt.Errorf("%s: facts: %w", c.name, err)
	}
	var report string
	if c.analyze {
		sc.span("analyze", func(scope) {
			rep := o.sess.Analyze(o.prog)
			report = fmt.Sprintf("%% analyze: dialect=%v semantics=%q deterministic=%v stratifiable=%v diagnostics=%d\n",
				rep.Dialect, rep.Semantics, rep.Deterministic, rep.Stratifiable, len(rep.Diags))
		})
	}
	if c.engine == "" {
		o.text = report
		return o, nil
	}
	prog := o.prog
	if c.optimize != nil {
		sc.span("opt", func(scope) {
			if res, holds := o.sess.Optimize(prog, o.in, c.sem, unchained.Opt2, c.optimize...); holds && res.Changed {
				prog = res.Program
			}
		})
	}
	sc.span(c.engine, func(scope) {
		o.res, err = o.sess.EvalContext(context.Background(), prog, o.in, c.sem, opts...)
	})
	if err != nil {
		return o, fmt.Errorf("%s: eval: %w", c.name, err)
	}
	sc.span("tuple.format", func(scope) { o.text = o.sess.Format(o.res.Out) })
	o.text += report
	return o, nil
}

// engineSpan names the span around EvalContext after the engine the
// semantics dispatches to.
func engineSpan(sem unchained.Semantics) string {
	switch sem {
	case unchained.MinimalModel:
		return "declarative.seminaive"
	case unchained.Stratified:
		return "declarative.stratified"
	case unchained.WellFounded:
		return "declarative.wfs"
	case unchained.Inflationary:
		return "core.inflationary"
	case unchained.NonInflationary:
		return "core.noninflationary"
	}
	panic(fmt.Sprintf("bench: no engine span for semantics %v", sem))
}

// library is a workload whose op is one pass over a case list, on one
// goroutine.
type library struct {
	name  string
	build func(e *env, rng *rand.Rand) ([]*libCase, error)
	cases []*libCase
	last  []caseOutput
}

func (l *library) clients() int                  { return 1 }
func (l *library) cycle() int                    { return 1 }
func (l *library) checkAllocs() (uint64, uint64) { return 0, 0 }
func (l *library) close() error                  { return nil }

func (l *library) setup(e *env, seed int64, sc scope) error {
	cases, err := l.build(e, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	l.cases = cases
	l.last = make([]caseOutput, len(cases))
	for i, c := range cases {
		o, err := c.run(scope{})
		if err != nil {
			return err
		}
		if err := c.verify(o.text); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		c.want = o.text
		l.last[i] = o
	}
	return nil
}

func (l *library) op(k int, sc scope) ([]time.Duration, func() bool) {
	ok := true
	pieces := make([]time.Duration, len(l.cases))
	for i, c := range l.cases {
		t0 := time.Now()
		sc.span("case:"+c.name, func(sc scope) {
			o, err := c.run(sc)
			if err != nil {
				ok = false
				return
			}
			l.last[i] = o
		})
		pieces[i] = time.Since(t0)
	}
	if !ok {
		return nil, nil
	}
	return pieces, func() bool {
		for i, c := range l.cases {
			if l.last[i].text != c.want {
				return false
			}
		}
		return true
	}
}

// equalText is the verify of a case whose oracle renders the whole
// expected output.
func equalText(want string) func(string) error {
	return func(got string) error {
		if got != want {
			return fmt.Errorf("output differs from the oracle's (%d bytes, oracle %d)", len(got), len(want))
		}
		return nil
	}
}

const (
	tcProgram  = "T(X,Y) :- G(X,Y).\nT(X,Y) :- G(X,Z), T(Z,Y).\n"
	ctProgram  = tcProgram + "CT(X,Y) :- !T(X,Y).\n"
	sgProgram  = "Sg(X,Y) :- Flat(X,Y).\nSg(X,Y) :- Up(X,U), Sg(U,V), Down(V,Y).\n"
	j3Program  = "Q(X,Z) :- A(X,Y), B(Y,Z), Sel(Z).\nR(X) :- A(X,Y), B(Y,Z), Sel(Z), Sel(X).\n"
	winProgram = "Win(X) :- Moves(X,Y), !Win(Y).\n"
	// dctProgram is Example 4.3: the complement of TC in inflationary
	// Datalog¬ by delayed firing.
	dctProgram = tcProgram +
		"OldT(X,Y) :- T(X,Y).\n" +
		"OldTExceptFinal(X,Y) :- T(X,Y), T(Xp,Zp), T(Zp,Yp), !T(Xp,Yp).\n" +
		"CT(X,Y) :- !T(X,Y), OldT(Xp,Yp), !OldTExceptFinal(Xp,Yp).\n"
)

// Sizes of the generated inputs. They put an op at roughly 50 ms on
// the reference box (2 vCPU Xeon 2.1 GHz), so a 22 s run has some 400
// samples.
const (
	tcNodes, tcEdges     = 150, 300
	sgNodes              = 200
	j3Nodes              = 256
	winStates, winMoves  = 500, 1000
	ctNodes, ctEdges     = 60, 120
	dctChain             = 12
	counterBits          = 8
	wideDepth, wideDead  = 64, 200
	wideNodes, wideEdges = 16, 30
)

func newCase(name, program string, in facts, sem unchained.Semantics, rng *rand.Rand) *libCase {
	return &libCase{
		name: name, program: program, facts: in.input(rng), sem: sem, engine: engineSpan(sem),
		join: lastRule(program),
	}
}

func buildTCJoin(e *env, rng *rand.Rand) ([]*libCase, error) {
	shape := rand.New(rand.NewSource(shapeSeed))

	lab := newLabels(rng, "n", tcNodes)
	es := randomEdges(shape, tcNodes, tcEdges)
	in := facts{}
	in.addEdges("G", es, lab)
	tc := newCase("tc-rand", tcProgram, in, unchained.MinimalModel, rng)
	tc.verify = equalText(tcFacts(tcNodes, es, lab).output())

	lab = newLabels(rng, "p", sgNodes)
	edb, model := sgTree(sgNodes, lab)
	sg := newCase("sg-tree", sgProgram, edb, unchained.MinimalModel, rng)
	sg.verify = equalText(model.output())

	lab = newLabels(rng, "v", j3Nodes)
	sel := make([]int, 4)
	for i := range sel {
		sel[i] = (i * 7) % j3Nodes
	}
	edb, model = join3(j3Nodes, randomEdges(shape, j3Nodes, 8*j3Nodes), randomEdges(shape, j3Nodes, 8*j3Nodes), sel, lab)
	j3 := newCase("join3", j3Program, edb, unchained.MinimalModel, rng)
	j3.verify = equalText(model.output())

	return []*libCase{tc, sg, j3}, nil
}

func buildNegStages(e *env, rng *rand.Rand) ([]*libCase, error) {
	shape := rand.New(rand.NewSource(shapeSeed))

	// Example 4.3 on a chain. Its CT must be the complement the BFS
	// oracle computes, which is also what the stratified and the
	// well-founded engine give on the same chain: the Figure 1
	// equivalence, checked three ways before anything is timed. The
	// whole output (OldT, OldTExceptFinal) is pinned by a digest.
	lab := newLabels(rng, "c", dctChain)
	chain := chainEdges(dctChain)
	chainIn := facts{}
	chainIn.addEdges("G", chain, lab)
	dct := newCase("dct-infl", dctProgram, chainIn, unchained.Inflationary, rng)
	wantCT := relationLines(ctFacts(dctChain, chain, lab).output(), "CT")
	inv := inverse(lab, "c")
	dct.verify = func(out string) error {
		if got := relationLines(out, "CT"); strings.Join(got, "\n") != strings.Join(wantCT, "\n") {
			return fmt.Errorf("CT has %d facts, the BFS oracle %d, or they differ", len(got), len(wantCT))
		}
		for _, sem := range []unchained.Semantics{unchained.Stratified, unchained.WellFounded} {
			o, err := newCase("ct-chain", ctProgram, chainIn, sem, rng).run(scope{})
			if err != nil {
				return err
			}
			if got := relationLines(o.text, "CT"); strings.Join(got, "\n") != strings.Join(wantCT, "\n") {
				return fmt.Errorf("CT under %v disagrees with CT under inflationary", sem)
			}
		}
		return e.golden.check("dct-infl", canonical(out, inv))
	}

	lab = newLabels(rng, "s", winStates)
	moves := randomEdges(shape, winStates, winMoves)
	in := facts{}
	in.addEdges("Moves", moves, lab)
	win := newCase("win-wfs", winProgram, in, unchained.WellFounded, rng)
	win.verify = equalText(winFacts(winStates, moves, lab).output())

	lab = newLabels(rng, "n", ctNodes)
	es := randomEdges(shape, ctNodes, ctEdges)
	in = facts{}
	in.addEdges("G", es, lab)
	wantText := ctFacts(ctNodes, es, lab).output()
	strat := newCase("ct-strat", ctProgram, in, unchained.Stratified, rng)
	strat.verify = equalText(wantText)
	wfs := newCase("ct-wfs", ctProgram, in, unchained.WellFounded, rng)
	wfs.verify = equalText(wantText)

	// The Theorem 4.8 counter has no input to rename: its constants
	// are the bit names in the program text.
	counter := newCase("counter-noninfl", counterProgram(counterBits), facts{}, unchained.NonInflationary, rng)
	counter.facts = ""
	counter.verify = func(out string) error { return e.golden.check("counter-noninfl", out) }

	return []*libCase{dct, win, strat, wfs, counter}, nil
}

// corpusPairs says which shipped facts file and semantics each shipped
// program is evaluated with. Programs not listed (the nondeterministic
// ones, the 30-bit counter, the ordered-database one) go through parse
// and analyze only.
var corpusPairs = map[string]struct {
	facts string
	sem   unchained.Semantics
}{
	"tc.dl":              {"chain.facts", unchained.MinimalModel},
	"same_generation.dl": {"family.facts", unchained.MinimalModel},
	"ct.dl":              {"chain.facts", unchained.Stratified},
	"win.dl":             {"game_e32.facts", unchained.WellFounded},
	"delayed_ct.dl":      {"chain.facts", unchained.Inflationary},
	"closer.dl":          {"chain.facts", unchained.Inflationary},
	"good_nodes.dl":      {"cycle_tail.facts", unchained.Inflationary},
	"counter4.dl":        {"", unchained.NonInflationary},
	"orientation.dl":     {"twocycles.facts", unchained.NonInflationary},
}

func buildFrontend(e *env, rng *rand.Rand) ([]*libCase, error) {
	dir := filepath.Join(e.root, "programs")
	paths, err := filepath.Glob(filepath.Join(dir, "*.dl"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no programs/*.dl under %s (run from the repository root): %v", e.root, err)
	}
	sort.Strings(paths)
	var cases []*libCase
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		base := filepath.Base(p)
		c := &libCase{name: base, program: string(src), analyze: true, join: lastRule(string(src))}
		if pair, ok := corpusPairs[base]; ok {
			c.sem, c.engine = pair.sem, engineSpan(pair.sem)
			if pair.facts != "" {
				f, err := os.ReadFile(filepath.Join(dir, "facts", pair.facts))
				if err != nil {
					return nil, err
				}
				c.facts = string(f)
			}
		}
		c.verify = func(out string) error { return e.golden.check("corpus-"+strings.TrimSuffix(base, ".dl"), out) }
		cases = append(cases, c)
	}

	shape := rand.New(rand.NewSource(shapeSeed))
	lab := newLabels(rng, "n", wideNodes)
	in := facts{}
	in.addEdges("E", randomEdges(shape, wideNodes, wideEdges), lab)
	for i := 0; i < wideNodes; i += 2 {
		in.add("Sel", lab[i])
	}
	wide := newCase("wide-265", wideProgram(rng, wideDepth, wideDead), in, unchained.Stratified, rng)
	wide.analyze = true
	wide.optimize = []string{"Out"}
	wide.join = "Out(X,Y) :- E(X,Y), Sel(X)." // what -O2 leaves of the chain
	inv := inverse(lab, "n")
	wide.verify = func(out string) error { return e.golden.check("wide-265", canonical(out, inv)) }
	return append(cases, wide), nil
}
