package main

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"unchained/internal/ast"
	"unchained/internal/core"
	"unchained/internal/declarative"
	"unchained/internal/gen"
	"unchained/internal/nondet"
	"unchained/internal/order"
	"unchained/internal/parser"
	"unchained/internal/queries"
	"unchained/internal/stats"
	"unchained/internal/tm"
	"unchained/internal/tuple"
	"unchained/internal/value"
	"unchained/internal/while"
)

// timed runs fn and returns its wall-clock duration.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func pick(quick bool, q, full []int) []int {
	if quick {
		return q
	}
	return full
}

func check(cond bool, format string, args ...any) error {
	if !cond {
		return fmt.Errorf("CHECK FAILED: "+format, args...)
	}
	return nil
}

// expF1a: TC (Datalog) vs complement (needs stratified negation) on
// growing graphs; outputs are verified against each other and timing
// shows the complement's quadratic output cost.
func expF1a(quick bool) error {
	fmt.Printf("%8s %8s %12s %12s %10s %10s\n", "graph", "n", "|T|", "|CT|", "tc", "ct")
	for _, n := range pick(quick, []int{8, 32}, []int{8, 32, 128, 512}) {
		for _, kind := range []string{"chain", "cycle", "random"} {
			u := value.New()
			var in *tuple.Instance
			switch kind {
			case "chain":
				in = gen.Chain(u, "G", n)
			case "cycle":
				in = gen.Cycle(u, "G", n)
			default:
				in = gen.Random(u, "G", n, 2*n, 7)
			}
			var tcRes, ctRes *declarative.Result
			var err error
			dtc := timed(func() {
				tcRes, err = declarative.Eval(parser.MustParse(queries.TC, u), in, u, nil)
			})
			if err != nil {
				return err
			}
			dct := timed(func() {
				ctRes, err = declarative.EvalStratified(parser.MustParse(queries.CT, u), in, u, nil)
			})
			if err != nil {
				return err
			}
			sizeT := relLen(tcRes.Out, "T")
			sizeCT := relLen(ctRes.Out, "CT")
			adom := len(order.Domain(in, u, nil))
			if err := check(sizeT+sizeCT == adom*adom, "T+CT should partition adom² (%d+%d != %d)", sizeT, sizeCT, adom*adom); err != nil {
				return err
			}
			fmt.Printf("%8s %8d %12d %12d %10v %10v\n", kind, n, sizeT, sizeCT, dtc.Round(time.Microsecond), dct.Round(time.Microsecond))
		}
	}
	fmt.Println("   shape: CT requires negation (rejected by the positive engine); T+CT partitions adom².")
	return nil
}

// expF1b: the fixpoint trio — while-language fixpoint programs,
// inflationary Datalog¬, and the 2-valued well-founded semantics
// agree on the paired suite.
func expF1b(quick bool) error {
	sizes := pick(quick, []int{6, 10}, []int{6, 10, 14, 18})
	fmt.Printf("%8s %6s %10s %10s %10s %8s\n", "query", "n", "fixpoint", "inflat.", "wfs", "agree")
	for _, n := range sizes {
		u := value.New()
		in := gen.Random(u, "G", n, 2*n, int64(n))

		// CT: while/fixpoint vs inflationary (Ex 4.3) vs WFS.
		var wOut, iOut, fOut *tuple.Instance
		dw := timed(func() {
			res, err := while.Run(queries.CTFixpoint(), in, u, nil)
			if err != nil {
				panic(err)
			}
			wOut = res.Out
		})
		di := timed(func() {
			res, err := core.EvalInflationary(parser.MustParse(queries.DelayedCT, u), in, u, nil)
			if err != nil {
				panic(err)
			}
			iOut = res.Out
		})
		df := timed(func() {
			res, err := declarative.EvalWellFounded(parser.MustParse(queries.CT, u), in, u, nil)
			if err != nil {
				panic(err)
			}
			fOut = res.True
		})
		agree := wOut.Relation("CT").Equal(iOut.Relation("CT")) &&
			wOut.Relation("CT").Equal(fOut.Relation("CT"))
		if err := check(agree, "CT trio disagrees at n=%d", n); err != nil {
			return err
		}
		fmt.Printf("%8s %6d %10v %10v %10v %8v\n", "CT", n,
			dw.Round(time.Microsecond), di.Round(time.Microsecond), df.Round(time.Microsecond), agree)

		// Good nodes: while/fixpoint vs inflationary timestamps.
		gw, err := while.Run(queries.GoodFixpoint(), in, u, nil)
		if err != nil {
			return err
		}
		gi, err := core.EvalInflationary(parser.MustParse(queries.GoodNodes, u), in, u, nil)
		if err != nil {
			return err
		}
		okGood := relEq(gw.Out, gi.Out, "Good")
		if err := check(okGood, "Good pair disagrees at n=%d", n); err != nil {
			return err
		}
		fmt.Printf("%8s %6d %10s %10s %10s %8v\n", "Good", n, "-", "-", "-", okGood)
	}
	fmt.Println("   shape: all fixpoint-class formalisms compute identical answers (Thm 4.2).")
	return nil
}

// expF1c: Datalog¬¬ vs while on a deletion-using query: cascade
// delete — firing a manager transitively fires everyone they manage
// and removes them from Emp. The Datalog¬¬ program uses retraction;
// the while program uses destructive assignment (Fig. 1: Datalog¬¬ ≡
// while).
func expF1c(quick bool) error {
	fmt.Printf("%8s %6s %12s %10s %10s %8s\n", "tree", "n", "|Emp|", "datalog¬¬", "while", "agree")
	for _, depth := range pick(quick, []int{3, 5}, []int{3, 5, 7, 9}) {
		u := value.New()
		in := cascadeInstance(u, depth)
		var dlOut, whOut *tuple.Instance
		var err error
		ddl := timed(func() {
			res, e := core.EvalNonInflationary(parser.MustParse(`
				Fired(X) :- Mgr(Y,X), Fired(Y).
				!Emp(X) :- Fired(X), Emp(X).
			`, u), in, u, nil)
			if e != nil {
				err = e
				return
			}
			dlOut = res.Out
		})
		if err != nil {
			return err
		}
		dwh := timed(func() {
			res, e := while.Run(cascadeWhile(), in, u, nil)
			if e != nil {
				err = e
				return
			}
			whOut = res.Out
		})
		if err != nil {
			return err
		}
		agree := relEq(dlOut, whOut, "Emp") && relEq(dlOut, whOut, "Fired")
		if err := check(agree, "cascade disagrees at depth=%d", depth); err != nil {
			return err
		}
		fmt.Printf("%8s %6d %12d %10v %10v %8v\n", "binary", depth, relLen(dlOut, "Emp"),
			ddl.Round(time.Microsecond), dwh.Round(time.Microsecond), agree)
	}
	fmt.Println("   shape: retraction-based Datalog¬¬ equals the destructive while program (Fig. 1).")
	return nil
}

// expF1d: TM simulation through Datalog¬new vs direct interpreter.
func expF1d(quick bool) error {
	fmt.Printf("%10s %10s %8s %8s %8s %10s\n", "machine", "input", "interp", "datalog", "agree", "invented")
	type wl struct {
		name  string
		m     *tm.Machine
		tapes [][]string
	}
	un := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "a"
		}
		return out
	}
	word := func(s string) []string {
		out := make([]string, len(s))
		for i, r := range s {
			out[i] = string(r)
		}
		return out
	}
	wls := []wl{
		{"parity", tm.ParityMachine(), [][]string{un(0), un(1), un(4), un(5)}},
		{"anbn", tm.ABMachine(), [][]string{word(""), word("ab"), word("aabb"), word("aab"), word("ba")}},
	}
	if !quick {
		wls[0].tapes = append(wls[0].tapes, un(8), un(9))
		wls[1].tapes = append(wls[1].tapes, word("aaabbb"), word("abab"))
	}
	for _, w := range wls {
		for _, tape := range w.tapes {
			want, _, err := w.m.Run(tape, 100000)
			if err != nil {
				return err
			}
			u := value.New()
			got, err := tm.Accepts(w.m, tape, u, 1<<14)
			if err != nil {
				return err
			}
			if err := check(got == want, "%s on %v: datalog=%v interp=%v", w.name, tape, got, want); err != nil {
				return err
			}
			fmt.Printf("%10s %10q %8v %8v %8v %10d\n", w.name, joined(tape), want, got, got == want, u.FreshCount())
		}
	}
	fmt.Println("   shape: the Datalog¬new simulation decides exactly what the machine decides (Thm 4.6).")
	return nil
}

func joined(tape []string) string {
	s := ""
	for _, t := range tape {
		s += t
	}
	return s
}

// expE32: the paper's exact instance plus random games.
func expE32(quick bool) error {
	u := value.New()
	p := parser.MustParse(queries.Win, u)
	in := parser.MustParseFacts(`
		Moves(b,c). Moves(c,a). Moves(a,b). Moves(a,d).
		Moves(d,e). Moves(d,f). Moves(f,g).
	`, u)
	res, err := declarative.EvalWellFounded(p, in, u, nil)
	if err != nil {
		return err
	}
	fmt.Println("   paper instance K (Example 3.2):")
	want := map[string]declarative.TruthValue{
		"a": declarative.Unknown, "b": declarative.Unknown, "c": declarative.Unknown,
		"d": declarative.True, "e": declarative.False, "f": declarative.True, "g": declarative.False,
	}
	for _, st := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		got := res.Truth("Win", tuple.Tuple{u.Sym(st)})
		if err := check(got == want[st], "Win(%s)=%v want %v", st, got, want[st]); err != nil {
			return err
		}
		fmt.Printf("   win(%s) = %v\n", st, got)
	}
	fmt.Printf("%8s %8s %8s %8s %8s %10s\n", "n", "moves", "true", "false", "unknown", "time")
	for _, n := range pick(quick, []int{16, 64}, []int{16, 64, 256, 512}) {
		u := value.New()
		in := gen.Game(u, "Moves", n, 2*n, int64(n))
		var w *declarative.WFSResult
		var err error
		d := timed(func() {
			w, err = declarative.EvalWellFounded(parser.MustParse(queries.Win, u), in, u, nil)
		})
		if err != nil {
			return err
		}
		tc := 0
		if r := w.True.Relation("Win"); r != nil {
			tc = r.Len()
		}
		un := len(w.UnknownFacts("Win"))
		fmt.Printf("%8d %8d %8d %8d %8d %10v\n", n, 2*n, tc, n-tc-un, un, d.Round(time.Microsecond))
	}
	return nil
}

// expE41: closer on chains — stage = distance invariant.
func expE41(quick bool) error {
	fmt.Printf("%8s %10s %10s %12s %10s\n", "n", "stages", "|T|", "|Closer|", "time")
	col := stats.New()
	for _, n := range pick(quick, []int{4, 8}, []int{4, 8, 16, 32}) {
		u := value.New()
		in := gen.Chain(u, "G", n)
		p := parser.MustParse(queries.Closer, u)
		var res *core.Result
		var err error
		d := timed(func() {
			res, err = core.EvalInflationary(p, in, u, &core.Options{Stats: col})
		})
		if err != nil {
			return err
		}
		// Verify the semantics: Closer(x,y,x',y') iff d(x,y)<d(x',y').
		dist := chainDistances(n)
		closer := res.Out.Relation("Closer")
		count := 0
		bad := false
		closer.Each(func(t tuple.Tuple) bool {
			count++
			d1 := dist[pair{u.Name(t[0]), u.Name(t[1])}]
			d2 := dist[pair{u.Name(t[2]), u.Name(t[3])}]
			if !(d1 < d2) {
				bad = true
				return false
			}
			return true
		})
		if err := check(!bad, "Closer contains a non-closer pair at n=%d", n); err != nil {
			return err
		}
		fmt.Printf("%8d %10d %10d %12d %10v\n", n, res.Stages, relLen(res.Out, "T"), count, d.Round(time.Microsecond))
	}
	statsNote(col.Summary()) // the largest run (the collector resets per evaluation)
	fmt.Println("   note: the program computes strict d< (the paper's prose says ≤; see EXPERIMENTS.md).")
	return nil
}

type pair struct{ a, b string }

func chainDistances(n int) map[pair]int {
	dist := map[pair]int{}
	const inf = 1 << 30
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j > i {
				dist[pair{name(i), name(j)}] = j - i
			} else {
				dist[pair{name(i), name(j)}] = inf
			}
		}
	}
	return dist
}

// expE43 / expP3: delayed CT equals stratified CT; stratified is
// cheaper (the inflationary simulation pays the delaying machinery).
func expE43(quick bool) error { return ctCompare(quick) }
func expP3(quick bool) error  { return ctCompare(quick) }

func ctCompare(quick bool) error {
	fmt.Printf("%8s %10s %12s %12s %8s\n", "n", "|CT|", "stratified", "inflationary", "agree")
	for _, n := range pick(quick, []int{8, 16}, []int{8, 16, 24, 32}) {
		u := value.New()
		in := gen.Random(u, "G", n, 2*n, int64(n))
		var sOut, iOut *tuple.Instance
		var err error
		ds := timed(func() {
			res, e := declarative.EvalStratified(parser.MustParse(queries.CT, u), in, u, nil)
			if e != nil {
				err = e
				return
			}
			sOut = res.Out
		})
		if err != nil {
			return err
		}
		di := timed(func() {
			res, e := core.EvalInflationary(parser.MustParse(queries.DelayedCT, u), in, u, nil)
			if e != nil {
				err = e
				return
			}
			iOut = res.Out
		})
		if err != nil {
			return err
		}
		agree := sOut.Relation("CT").Equal(iOut.Relation("CT"))
		if err := check(agree, "CT mismatch at n=%d", n); err != nil {
			return err
		}
		fmt.Printf("%8d %10d %12v %12v %8v\n", n, relLen(sOut, "CT"),
			ds.Round(time.Microsecond), di.Round(time.Microsecond), agree)
	}
	fmt.Println("   shape: same answers; the delayed-firing simulation costs more (Ex 4.3 overhead).")
	return nil
}

// expE44: good nodes via timestamps vs the fixpoint baseline.
func expE44(quick bool) error {
	fmt.Printf("%10s %6s %8s %12s %12s %8s\n", "graph", "n", "|Good|", "inflationary", "fixpoint", "agree")
	type wl struct {
		name string
		mk   func(u *value.Universe) *tuple.Instance
	}
	wls := []wl{
		{"dag", func(u *value.Universe) *tuple.Instance { return gen.LayeredDAG(u, "G", 4, 4, 2, 3) }},
		{"cyc+tail", func(u *value.Universe) *tuple.Instance { return cycleWithTail(u, 12) }},
		{"tree", func(u *value.Universe) *tuple.Instance { return gen.Tree(u, "G", 2, 4) }},
	}
	if !quick {
		wls = append(wls,
			wl{"dag-big", func(u *value.Universe) *tuple.Instance { return gen.LayeredDAG(u, "G", 6, 8, 2, 5) }},
			wl{"random", func(u *value.Universe) *tuple.Instance { return gen.Random(u, "G", 24, 40, 9) }})
	}
	for _, w := range wls {
		u := value.New()
		in := w.mk(u)
		var iOut, fOut *tuple.Instance
		var err error
		di := timed(func() {
			res, e := core.EvalInflationary(parser.MustParse(queries.GoodNodes, u), in, u, nil)
			if e != nil {
				err = e
				return
			}
			iOut = res.Out
		})
		if err != nil {
			return err
		}
		df := timed(func() {
			res, e := while.Run(queries.GoodFixpoint(), in, u, nil)
			if e != nil {
				err = e
				return
			}
			fOut = res.Out
		})
		if err != nil {
			return err
		}
		agree := relEq(iOut, fOut, "Good")
		if err := check(agree, "Good mismatch on %s", w.name); err != nil {
			return err
		}
		goodLen := 0
		if r := iOut.Relation("Good"); r != nil {
			goodLen = r.Len()
		}
		fmt.Printf("%10s %6d %8d %12v %12v %8v\n", w.name, in.Facts(), goodLen,
			di.Round(time.Microsecond), df.Round(time.Microsecond), agree)
	}
	return nil
}

// expE45: the flip-flop program is caught by cycle detection.
func expE45(bool) error {
	u := value.New()
	p := parser.MustParse(queries.FlipFlop, u)
	in := parser.MustParseFacts(`T(0).`, u)
	_, err := core.EvalNonInflationary(p, in, u, nil)
	if err := check(errors.Is(err, core.ErrNonTerminating), "want ErrNonTerminating, got %v", err); err != nil {
		return err
	}
	fmt.Printf("   input T(0): %v\n", err)
	fmt.Println("   shape: the Datalog¬¬ stage sequence flip-flops {T(0)} ↔ {T(1)} and never fixpoints (§4.2).")
	return nil
}

// expE51: sampled orientations are valid and eff(P) is exactly the
// set of orientations.
func expE51(quick bool) error {
	fmt.Printf("%8s %8s %12s %12s %10s\n", "cycles", "runs", "valid", "distinct", "time/run")
	for _, k := range pick(quick, []int{2, 3}, []int{2, 3, 4, 6}) {
		u := value.New()
		in := gen.TwoCycles(u, "G", k)
		p := parser.MustParse(queries.Orientation, u)
		runs := 10
		distinct := map[uint64]bool{}
		valid := 0
		var total time.Duration
		for seed := 0; seed < runs; seed++ {
			var res *nondet.Result
			var err error
			total += timed(func() {
				res, err = nondet.Run(p, ast.DialectNDatalogNegNeg, in, u, int64(seed), nil)
			})
			if err != nil {
				return err
			}
			g := res.Out.Relation("G")
			ok := g.Len() == 2*k
			g.Each(func(t tuple.Tuple) bool {
				if t[0] != t[1] && g.Contains(tuple.Tuple{t[1], t[0]}) {
					ok = false
					return false
				}
				return true
			})
			if ok {
				valid++
			}
			distinct[res.Out.Fingerprint()] = true
		}
		if err := check(valid == runs, "invalid orientation sampled"); err != nil {
			return err
		}
		// Exhaustive effect on small instances: 2^k orientations.
		if k <= 4 {
			eff, err := nondet.Effects(p, ast.DialectNDatalogNegNeg, in, u, nil)
			if err != nil {
				return err
			}
			if err := check(len(eff.States) == 1<<k, "eff = %d states, want %d", len(eff.States), 1<<k); err != nil {
				return err
			}
		}
		fmt.Printf("%8d %8d %12d %12d %10v\n", k, runs, valid, len(distinct), (total / time.Duration(runs)).Round(time.Microsecond))
	}
	fmt.Println("   shape: every sampled run is a valid orientation; eff(P) has exactly 2^k states.")
	return nil
}

// expE54 / expT56: the three nondeterministic difference programs
// agree with the relational-algebra baseline on every terminal state.
func expE54(quick bool) error { return diffCompare(quick) }
func expT56(quick bool) error { return diffCompare(quick) }

func diffCompare(quick bool) error {
	fmt.Printf("%8s %8s %10s %10s %10s %10s\n", "n", "|ans|", "negneg", "forall", "bottom", "agree")
	for _, n := range pick(quick, []int{4, 6}, []int{4, 6, 8}) {
		u := value.New()
		in := gen.Merge(
			gen.UnarySubset(u, "P", "All", n, n-1, int64(n)),
			gen.Random(u, "Q", n, n, int64(n)+50),
		)
		// RA baseline: P − π₁(Q).
		want := map[uint64]bool{}
		in.Relation("P").Each(func(t tuple.Tuple) bool {
			hasQ := false
			in.Relation("Q").Each(func(q tuple.Tuple) bool {
				if q[0] == t[0] {
					hasQ = true
					return false
				}
				return true
			})
			if !hasQ {
				want[uint64(t[0])] = true
			}
			return true
		})
		sizes := map[string]time.Duration{}
		agree := true
		for name, cfg := range map[string]struct {
			src string
			d   ast.Dialect
		}{
			"negneg": {queries.DiffNegNeg, ast.DialectNDatalogNegNeg},
			"forall": {queries.DiffForall, ast.DialectNDatalogAll},
			"bottom": {queries.DiffBottom, ast.DialectNDatalogBot},
		} {
			var eff *nondet.EffectSet
			var err error
			d := timed(func() {
				eff, err = nondet.Effects(parser.MustParse(cfg.src, u), cfg.d, in, u, nil)
			})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			sizes[name] = d
			for _, st := range eff.States {
				got := map[uint64]bool{}
				if r := st.Relation("Answer"); r != nil {
					r.Each(func(t tuple.Tuple) bool {
						got[uint64(t[0])] = true
						return true
					})
				}
				if len(got) != len(want) {
					agree = false
				}
				for k := range want {
					if !got[k] {
						agree = false
					}
				}
			}
		}
		if err := check(agree, "difference encodings disagree at n=%d", n); err != nil {
			return err
		}
		fmt.Printf("%8d %8d %10v %10v %10v %10v\n", n, len(want),
			sizes["negneg"].Round(time.Microsecond), sizes["forall"].Round(time.Microsecond),
			sizes["bottom"].Round(time.Microsecond), agree)
	}
	fmt.Println("   shape: N-Datalog¬¬, N-Datalog¬∀ and N-Datalog¬⊥ all compute P − πA(Q) on every run (Thm 5.6).")
	return nil
}

// expT47: evenness under three semantics on ordered inputs.
func expT47(quick bool) error {
	fmt.Printf("%6s %6s %8s %12s %12s %12s\n", "n", "|R|", "even?", "semi-pos", "stratified", "inflationary")
	for _, n := range pick(quick, []int{8, 64}, []int{8, 64, 512, 2048}) {
		for _, k := range []int{n / 2, n/2 + 1} {
			u := value.New()
			base := gen.UnarySubset(u, "R", "Dom", n, k, int64(n+k))
			in := order.WithOrder(base, u, nil, nil)
			p := parser.MustParse(queries.EvenOrdered, u)
			want := k%2 == 0
			var dStrat, dInfl, dSemi time.Duration
			results := map[string]bool{}
			var err error
			dSemi = timed(func() {
				// EvenOrdered is semi-positive, so plain stratified
				// evaluation doubles as the semi-positive engine; the
				// row exists to show all three coincide (Thm 4.7).
				res, e := declarative.EvalStratified(p, in, u, nil)
				if e != nil {
					err = e
					return
				}
				results["semi"] = relLen(res.Out, "EvenAns") > 0
			})
			if err != nil {
				return err
			}
			dStrat = timed(func() {
				res, e := declarative.EvalStratified(p, in, u, nil)
				if e != nil {
					err = e
					return
				}
				results["strat"] = relLen(res.Out, "EvenAns") > 0
			})
			if err != nil {
				return err
			}
			dInfl = timed(func() {
				res, e := core.EvalInflationary(p, in, u, nil)
				if e != nil {
					err = e
					return
				}
				results["infl"] = relLen(res.Out, "EvenAns") > 0
			})
			if err != nil {
				return err
			}
			for name, got := range results {
				if err := check(got == want, "%s wrong at n=%d k=%d", name, n, k); err != nil {
					return err
				}
			}
			fmt.Printf("%6d %6d %8v %12v %12v %12v\n", n, k, want,
				dSemi.Round(time.Microsecond), dStrat.Round(time.Microsecond), dInfl.Round(time.Microsecond))
		}
	}
	fmt.Println("   shape: with order, the generically-inexpressible evenness query is PTIME under all semantics (Thm 4.7).")
	return nil
}

// expT48: the 2^k-stage binary counter.
func expT48(quick bool) error {
	fmt.Printf("%6s %10s %12s %12s\n", "bits", "stages", "expected", "time")
	col := stats.New()
	for _, k := range pick(quick, []int{4, 8}, []int{4, 8, 12, 14}) {
		u := value.New()
		p := parser.MustParse(queries.Counter(k), u)
		in := tuple.NewInstance()
		in.Ensure("One", 1)
		var res *core.Result
		var err error
		d := timed(func() {
			res, err = core.EvalNonInflationary(p, in, u, &core.Options{MaxStages: 1 << 22, Stats: col})
		})
		if err != nil {
			return err
		}
		if err := check(res.Stages == 1<<k, "stages=%d want %d", res.Stages, 1<<k); err != nil {
			return err
		}
		if err := check(res.Stats.Stages == res.Stages, "stats stages=%d want %d", res.Stats.Stages, res.Stages); err != nil {
			return err
		}
		fmt.Printf("%6d %10d %12d %12v\n", k, res.Stages, 1<<k, d.Round(time.Millisecond))
	}
	statsNote(col.Summary()) // the largest run (the collector resets per evaluation)
	fmt.Println("   shape: stage count doubles per bit — the exponential-time/PSPACE regime of Thm 4.8.")
	return nil
}

// expT53: poss/cert of the choice program.
func expT53(quick bool) error {
	fmt.Printf("%6s %8s %10s %10s %10s\n", "n", "|eff|", "|poss|", "|cert|", "time")
	for _, n := range pick(quick, []int{3, 5}, []int{3, 5, 7}) {
		u := value.New()
		in := gen.Unary(u, "P", n)
		p := parser.MustParse(queries.Choice, u)
		var eff *nondet.EffectSet
		var err error
		d := timed(func() {
			eff, err = nondet.Effects(p, ast.DialectNDatalogNegNeg, in, u, nil)
		})
		if err != nil {
			return err
		}
		poss, _ := eff.Poss()
		cert, _ := eff.Cert()
		possN, certN := 0, 0
		if r := poss.Relation("Chosen"); r != nil {
			possN = r.Len()
		}
		if r := cert.Relation("Chosen"); r != nil {
			certN = r.Len()
		}
		if err := check(len(eff.States) == n && possN == n && certN == 0,
			"choice shape wrong at n=%d: eff=%d poss=%d cert=%d", n, len(eff.States), possN, certN); err != nil {
			return err
		}
		fmt.Printf("%6d %8d %10d %10d %10v\n", n, len(eff.States), possN, certN, d.Round(time.Microsecond))
	}
	fmt.Println("   shape: poss(Chosen)=P and cert(Chosen)=∅ — the poss/cert gap of Definition 5.10.")
	return nil
}

// expG1: genericity — engine outputs commute with domain
// isomorphisms (Section 4.4's argument for why evenness is
// inexpressible without order).
func expG1(quick bool) error {
	n := 10
	if quick {
		n = 6
	}
	u := value.New()
	in := gen.Random(u, "G", n, 2*n, 13)
	// Isomorphic copy: rename ni -> mi.
	iso := tuple.NewInstance()
	mapped := func(v value.Value) value.Value {
		return u.Sym("m" + u.Name(v)[1:])
	}
	in.Relation("G").Each(func(t tuple.Tuple) bool {
		iso.Insert("G", tuple.Tuple{mapped(t[0]), mapped(t[1])})
		return true
	})
	type engine struct {
		name string
		run  func(in *tuple.Instance) (*tuple.Instance, error)
	}
	engines := []engine{
		{"datalog", func(i *tuple.Instance) (*tuple.Instance, error) {
			r, err := declarative.Eval(parser.MustParse(queries.TC, u), i, u, nil)
			if err != nil {
				return nil, err
			}
			return r.Out, nil
		}},
		{"stratified", func(i *tuple.Instance) (*tuple.Instance, error) {
			r, err := declarative.EvalStratified(parser.MustParse(queries.CT, u), i, u, nil)
			if err != nil {
				return nil, err
			}
			return r.Out, nil
		}},
		{"wellfounded", func(i *tuple.Instance) (*tuple.Instance, error) {
			r, err := declarative.EvalWellFounded(parser.MustParse("Win(X) :- G(X,Y), !Win(Y).", u), i, u, nil)
			if err != nil {
				return nil, err
			}
			return r.True, nil
		}},
		{"inflationary", func(i *tuple.Instance) (*tuple.Instance, error) {
			r, err := core.EvalInflationary(parser.MustParse(queries.GoodNodes, u), i, u, nil)
			if err != nil {
				return nil, err
			}
			return r.Out, nil
		}},
	}
	for _, e := range engines {
		a, err := e.run(in)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		b, err := e.run(iso)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		// Map a's output through the isomorphism and compare.
		aIso := tuple.NewInstance()
		for _, name := range a.Names() {
			r := a.Relation(name)
			aIso.Ensure(name, r.Arity())
			r.Each(func(t tuple.Tuple) bool {
				nt := make(tuple.Tuple, len(t))
				for i, v := range t {
					nt[i] = mapped(v)
				}
				aIso.Insert(name, nt)
				return true
			})
		}
		ok := aIso.Equal(b)
		if err := check(ok, "%s is not generic", e.name); err != nil {
			return err
		}
		fmt.Printf("   %-12s commutes with isomorphism: %v\n", e.name, ok)
	}
	fmt.Println("   shape: all engines are generic, which is why evenness needs order or nondeterminism (§4.4).")
	return nil
}

// expP1: naive vs semi-naive.
func expP1(quick bool) error {
	fmt.Printf("%8s %8s %10s %12s %12s %8s\n", "graph", "n", "|T|", "naive", "semi-naive", "speedup")
	for _, n := range pick(quick, []int{16, 64}, []int{16, 64, 256}) {
		u := value.New()
		in := gen.Chain(u, "G", n)
		p := parser.MustParse(queries.TC, u)
		var nOut, sOut *tuple.Instance
		var err error
		dn := timed(func() {
			res, e := declarative.EvalNaive(p, in, u, nil)
			if e != nil {
				err = e
				return
			}
			nOut = res.Out
		})
		if err != nil {
			return err
		}
		ds := timed(func() {
			res, e := declarative.Eval(p, in, u, nil)
			if e != nil {
				err = e
				return
			}
			sOut = res.Out
		})
		if err != nil {
			return err
		}
		if err := check(nOut.Equal(sOut), "naive != semi-naive at n=%d", n); err != nil {
			return err
		}
		speed := float64(dn) / float64(ds)
		fmt.Printf("%8s %8d %10d %12v %12v %7.1fx\n", "chain", n, relLen(sOut, "T"),
			dn.Round(time.Microsecond), ds.Round(time.Microsecond), speed)
	}
	fmt.Println("   shape: the semi-naive advantage grows with n (naive re-derives all shorter paths every round).")
	return nil
}

// expP2: hash-index probes vs full scans.
func expP2(quick bool) error {
	fmt.Printf("%8s %8s %12s %12s %8s\n", "n", "edges", "indexed", "scan", "speedup")
	iCol, sCol := stats.New(), stats.New()
	for _, n := range pick(quick, []int{32, 128}, []int{32, 128, 512}) {
		u := value.New()
		in := gen.Random(u, "G", n, 4*n, int64(n))
		p := parser.MustParse(queries.TC, u)
		var iOut, sOut *tuple.Instance
		var err error
		di := timed(func() {
			res, e := declarative.Eval(p, in, u, &declarative.Options{Stats: iCol})
			if e != nil {
				err = e
				return
			}
			iOut = res.Out
		})
		if err != nil {
			return err
		}
		dscan := timed(func() {
			res, e := declarative.Eval(p, in, u, &declarative.Options{Scan: true, Stats: sCol})
			if e != nil {
				err = e
				return
			}
			sOut = res.Out
		})
		if err != nil {
			return err
		}
		if err := check(iOut.Equal(sOut), "index ablation changed the answer at n=%d", n); err != nil {
			return err
		}
		// The stats layer sees the ablation directly: the indexed run
		// answers matches with probes only, the scan run with scans only.
		iSum, sSum := iCol.Summary(), sCol.Summary()
		if err := check(iSum.FullScans == 0 && sSum.IndexProbes == 0,
			"probe/scan attribution wrong at n=%d: indexed scans=%d, scan probes=%d",
			n, iSum.FullScans, sSum.IndexProbes); err != nil {
			return err
		}
		fmt.Printf("%8d %8d %12v %12v %7.1fx\n", n, 4*n,
			di.Round(time.Microsecond), dscan.Round(time.Microsecond), float64(dscan)/float64(di))
	}
	statsNote(iCol.Summary())
	statsNote(sCol.Summary())
	fmt.Println("   shape: index probes beat scans, increasingly so as relations grow.")
	return nil
}

// expP4: WFS alternating fixpoint vs a single stratified pass on the
// same (stratified) program: the alternating fixpoint recomputes Γ
// several times, costing a small constant factor.
func expP4(quick bool) error {
	fmt.Printf("%8s %12s %12s %8s %8s\n", "n", "stratified", "wfs", "ratio", "rounds")
	for _, n := range pick(quick, []int{8, 16}, []int{8, 16, 32, 64}) {
		u := value.New()
		in := gen.Random(u, "G", n, 2*n, int64(n))
		var dw, ds time.Duration
		var rounds int
		var err error
		ds = timed(func() {
			_, err = declarative.EvalStratified(parser.MustParse(queries.CT, u), in, u, nil)
		})
		if err != nil {
			return err
		}
		dw = timed(func() {
			var res *declarative.WFSResult
			res, err = declarative.EvalWellFounded(parser.MustParse(queries.CT, u), in, u, nil)
			if err == nil {
				rounds = res.Rounds
			}
		})
		if err != nil {
			return err
		}
		fmt.Printf("%8d %12v %12v %7.1fx %8d\n", n, ds.Round(time.Microsecond), dw.Round(time.Microsecond),
			float64(dw)/float64(ds), rounds)
	}
	fmt.Println("   shape: the alternating fixpoint pays a small constant factor (its Γ rounds) over one pass (§3.3).")
	return nil
}

// expA1: ECA cascade throughput.
func expA1(quick bool) error {
	fmt.Printf("%8s %10s %10s %12s\n", "orders", "firings", "reserved", "time")
	for _, n := range pick(quick, []int{8, 32}, []int{8, 32, 128}) {
		d, firings, reserved, err := runActiveWorkload(n)
		if err != nil {
			return err
		}
		if err := check(reserved == n/2, "reserved=%d want %d", reserved, n/2); err != nil {
			return err
		}
		fmt.Printf("%8d %10d %10d %12v\n", n, firings, reserved, d.Round(time.Microsecond))
	}
	fmt.Println("   shape: forward chaining as adopted in practice — ECA cascades settle to quiescence (§6–7).")
	return nil
}

// relLen is Relation(pred).Len() tolerating absent relations.
func relLen(in *tuple.Instance, pred string) int {
	if r := in.Relation(pred); r != nil {
		return r.Len()
	}
	return 0
}

func relEq(a, b *tuple.Instance, pred string) bool {
	ra, rb := a.Relation(pred), b.Relation(pred)
	if ra == nil {
		return rb == nil || rb.Len() == 0
	}
	if rb == nil {
		return ra.Len() == 0
	}
	return ra.Equal(rb)
}

// joinHeavyInstance builds the planner's showcase shape: two large
// binary relations A(X,Y), B(Y,Z) and a tiny selective Sel(Z). The
// literal-order schedule enumerates A first and filters on Sel last;
// the planner starts from Sel and drives the join backwards.
func joinHeavyInstance(u *value.Universe, n, sel int, seed int64) *tuple.Instance {
	in := gen.Random(u, "A", n, 8*n, seed)
	b := gen.Random(u, "B", n, 8*n, seed+1)
	rel := in.Ensure("B", 2)
	b.Relation("B").Each(func(t tuple.Tuple) bool {
		rel.Insert(t)
		return true
	})
	nodes := gen.Nodes(u, n)
	for i := 0; i < sel; i++ {
		in.Insert("Sel", tuple.Tuple{nodes[(i*7)%n]})
	}
	return in
}

// expP9: the cardinality planner vs the seed's literal-order greedy
// schedule on a selective three-way join. Acceptance: >=1.5x
// wall-clock with the planner on.
func expP9(quick bool) error {
	const prog = `
		Q(X,Z) :- A(X,Y), B(Y,Z), Sel(Z).
		R(X) :- A(X,Y), B(Y,Z), Sel(Z), Sel(X).
	`
	fmt.Printf("%8s %12s %12s %8s\n", "n", "planner", "literal", "speedup")
	worst := 0.0
	for _, n := range pick(quick, []int{256, 1024}, []int{256, 1024, 4096}) {
		u := value.New()
		in := joinHeavyInstance(u, n, 4, int64(n))
		p := parser.MustParse(prog, u)
		var pOut, lOut *tuple.Instance
		var err error
		// Best of three: a single GC pause in one of two single-shot
		// runs can swing the ratio across the acceptance bar.
		run := func(literal bool, out **tuple.Instance) time.Duration {
			best := time.Duration(0)
			for rep := 0; rep < 3; rep++ {
				d := timed(func() {
					res, e := declarative.Eval(p, in, u, &declarative.Options{LiteralOrder: literal})
					if e != nil {
						err = e
						return
					}
					*out = res.Out
				})
				if best == 0 || d < best {
					best = d
				}
			}
			return best
		}
		dlit := run(true, &lOut)
		if err != nil {
			return err
		}
		dplan := run(false, &pOut)
		if err != nil {
			return err
		}
		if err := check(pOut.Equal(lOut), "planner changed the answer at n=%d", n); err != nil {
			return err
		}
		speedup := float64(dlit) / float64(dplan)
		if worst == 0 || speedup < worst {
			worst = speedup
		}
		fmt.Printf("%8d %12v %12v %7.1fx\n", n,
			dplan.Round(time.Microsecond), dlit.Round(time.Microsecond), speedup)
	}
	// Both schedules at the largest quick size, amortized over many
	// iterations.
	u := value.New()
	in := joinHeavyInstance(u, 1024, 4, 1024)
	p := parser.MustParse(prog, u)
	benchNote("planner/join-heavy", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := declarative.Eval(p, in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	}))
	benchNote("literal-order/join-heavy", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := declarative.Eval(p, in, u, &declarative.Options{LiteralOrder: true}); err != nil {
				b.Fatal(err)
			}
		}
	}))
	if err := check(worst >= 1.5, "planner speedup %.2fx below the 1.5x acceptance bar", worst); err != nil {
		return err
	}
	fmt.Println("   shape: cardinality-aware join orders dominate when selectivity hides at the end of the body.")
	return nil
}
