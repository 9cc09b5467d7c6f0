// Command datalog evaluates a program of the Datalog Unchained family
// on a facts file under a chosen semantics.
//
// Usage:
//
//	datalog -program tc.dl -facts graph.facts -semantics stratified
//	datalog -program win.dl -facts game.facts -semantics wellfounded -three
//	datalog -program orient.dl -facts g.facts -semantics ndatalog -seed 7
//	datalog -program orient.dl -facts g.facts -semantics effects
//	datalog -program tc.dl -lint
//	datalog -program tc.dl -lint -json
//	datalog -program tc.dl -facts graph.facts -O2 -explain
//
// Semantics: datalog (minimal model), stratified, wellfounded,
// inflationary, noninflationary, invent, ndatalog (one sampled
// nondeterministic run of N-Datalog¬¬), ndatalog-bottom,
// ndatalog-forall, effects (exhaustive eff(P) of N-Datalog¬¬), and
// auto (run the static analyzer and dispatch to the recommended
// engine).
//
// -lint analyzes the program instead of evaluating it: dialect
// inference, recommended semantics, stratifiability, and positioned
// diagnostics (see docs/ANALYSIS.md for the code table); -json emits
// the full report for machine consumers. Error diagnostics exit 1.
//
// -O2 runs the analysis-driven rewrite pipeline of internal/opt
// before evaluation (dead-rule elimination, inlining where the
// semantics is stage-independent, constant propagation, subsumption;
// see docs/OPTIMIZER.md). The
// rewritten program is provably equivalent for the chosen semantics;
// when a rewrite depends on an intensional relation having no input
// facts and the facts file violates that, the CLI falls back to the
// unoptimized program. With -explain each applied rewrite is narrated
// before the stage-by-stage story.
//
// Programs use the syntax of internal/parser: variables upper-case,
// constants lower-case/quoted/integers, '!' or 'not' for negation
// (heads and bodies), multiple head atoms for N-Datalog, 'bottom'
// heads, and 'forall Y (...)' bodies.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"unchained"
	"unchained/internal/ast"
	"unchained/internal/core"
	"unchained/internal/declarative"
	"unchained/internal/engine"
	"unchained/internal/flight"
	"unchained/internal/magic"
	"unchained/internal/nondet"
	"unchained/internal/parser"
	"unchained/internal/stats"
	"unchained/internal/trace"
	"unchained/internal/tuple"
	"unchained/internal/while"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "datalog:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode distinguishes a -timeout expiry (or interrupt) from other
// failures: interrupted evaluations exit 2, everything else 1, so
// scripts can tell "the program did not terminate in time" from "the
// program is wrong".
func exitCode(err error) int {
	if engine.IsInterrupt(err) {
		return 2
	}
	return 1
}

// run evaluates per the flags, writing results to w and the -stats
// JSON summary to ew (stderr in production, captured in tests).
func run(args []string, w, ew io.Writer) (err error) {
	args = normalizeOptArgs(args)
	fs := flag.NewFlagSet("datalog", flag.ContinueOnError)
	programPath := fs.String("program", "", "program file ('-' for stdin)")
	factsPath := fs.String("facts", "", "ground facts file (optional)")
	semantics := fs.String("semantics", "stratified", "evaluation semantics")
	language := fs.String("language", "datalog", "program language: datalog or while")
	seed := fs.Int64("seed", 1, "seed for nondeterministic runs")
	answer := fs.String("answer", "", "comma-separated answer relations (default: all IDB)")
	attachOrder := fs.Bool("order", false, "attach Succ/First/Last over the active domain")
	three := fs.Bool("three", false, "with wellfounded: print the 3-valued model")
	stages := fs.Bool("stages", false, "trace stages (deterministic forward-chaining semantics)")
	statsOn := fs.Bool("stats", false, "print a JSON evaluation-statistics summary to stderr")
	timeout := fs.Duration("timeout", 0, "bound evaluation wall time (e.g. 500ms); expiry exits with code 2")
	tracePath := fs.String("trace", "", "stream a JSONL span-stream trace of the evaluation to this file ('-' for stderr)")
	explainOn := fs.Bool("explain", false, "render the evaluation as a stage-by-stage narrative (suppresses normal output)")
	why := fs.String("why", "", "with -semantics inflationary: explain a derived fact, e.g. -why 'T(a,c)'")
	query := fs.String("query", "", "positive Datalog only: goal-directed (magic-sets) query, e.g. -query 'T(a,Y)'")
	lintOn := fs.Bool("lint", false, "analyze the program instead of evaluating it; exits 1 on error diagnostics")
	literalOrder := fs.Bool("literal-order", false, "disable the cardinality planner: join rule bodies in textual literal order")
	jsonOut := fs.Bool("json", false, "with -lint: emit the full analysis report as JSON")
	profileOn := fs.Bool("profile", false, "print a one-shot flight-record JSON profile to stderr after evaluation (same schema as the daemon's slow-query log)")
	optLevel := fs.Int("O", 0, "optimization level 0 or 2 (-O0/-O2 shorthand accepted): rewrite the program before evaluation; see docs/OPTIMIZER.md")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *programPath == "" {
		return fmt.Errorf("missing -program")
	}
	if *optLevel != 0 && *optLevel != 2 {
		return fmt.Errorf("-O: level must be 0 or 2")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var col *stats.Collector
	if *statsOn || *profileOn {
		col = stats.New()
	}
	// Tracing without -stats still attaches an auto-created collector
	// (the span stream rides on it), so results carry a non-nil
	// summary; the -stats flag alone decides whether it is printed.
	// -profile additionally retains the last summary for the flight
	// record emitted when run returns.
	var profSum *stats.Summary
	emitStats := func(sum *stats.Summary) {
		if sum != nil {
			profSum = sum
		}
		if *statsOn && sum != nil {
			fmt.Fprintln(ew, sum.JSON())
		}
	}

	var tracer trace.Tracer
	var jl *trace.JSONL
	if *tracePath != "" {
		tw := ew
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return fmt.Errorf("-trace: %w", err)
			}
			defer f.Close()
			tw = f
		}
		jl = trace.NewJSONL(tw)
		tracer = jl
		defer func() {
			if err := jl.Err(); err != nil {
				fmt.Fprintf(ew, "datalog: -trace: %v\n", err)
			}
		}()
	}
	// Under -explain the applied -O rewrites are narrated to the real
	// writer (captured before the recorder swap below) ahead of the
	// stage-by-stage story.
	var optExplainW io.Writer
	if *explainOn {
		rec := trace.NewRecorder(0)
		tracer = trace.Multi(tracer, rec)
		// The narrative replaces the normal answer output; it renders
		// after the run (even a failed one: non-termination and
		// timeouts are exactly the runs worth explaining).
		narrW := w
		optExplainW = narrW
		w = io.Discard
		defer func() {
			if rec.Dropped() > 0 {
				fmt.Fprintf(narrW, "%% trace ring overflow: %d oldest events dropped\n", rec.Dropped())
			}
			if nerr := trace.Narrate(rec.Events(), narrW); nerr != nil {
				fmt.Fprintf(ew, "datalog: -explain: %v\n", nerr)
			}
		}()
	}

	if *profileOn {
		// One-shot flight record on stderr: the CLI twin of the
		// daemon's slow-query log line, same schema (endpoint "cli",
		// no HTTP status), so post-mortem tooling reads both. The CLI
		// has no pipeline to mark phases in: the one it knows is the
		// engine's, the summary's own wall time.
		start := time.Now()
		defer func() {
			rec := flight.NewRecord(flight.NewTraceID(), "cli", start)
			rec.Semantics = *semantics
			rec.WallNS = time.Since(start).Nanoseconds()
			rec.SetSummary(profSum)
			if profSum != nil {
				rec.EvalNS, rec.Phases.EvalNS = profSum.WallNS, profSum.WallNS
			}
			if err != nil {
				rec.Outcome = "error"
				if errors.Is(err, context.DeadlineExceeded) || engine.IsInterrupt(err) {
					rec.Outcome = "deadline"
				}
				rec.Error = err.Error()
			}
			if b, jerr := json.Marshal(rec); jerr == nil {
				fmt.Fprintln(ew, string(b))
			}
		}()
	}

	// Every engine's options type is an alias of engine.Options and
	// ignores the fields it has no use for; Trace reaches only the core
	// engines, the ones that hand Loop a stage state.
	opt := &engine.Options{Ctx: ctx, Stats: col, Tracer: tracer, LiteralOrder: *literalOrder}
	if *stages {
		opt.Trace = func(stage int, state *tuple.Instance) {
			fmt.Fprintf(w, "%% stage %d: %d facts\n", stage, state.Facts())
		}
	}

	s := unchained.NewSession()
	src, err := readFile(*programPath)
	if err != nil {
		return err
	}
	if *lintOn {
		if *language == "while" {
			return lintWhile(s, src, *jsonOut, w)
		}
		prog, err := s.Parse(src)
		if err != nil {
			return fmt.Errorf("parse program: %w", err)
		}
		return lintDatalog(s, prog, *jsonOut, w)
	}
	if *language == "while" {
		return runWhile(s, src, *factsPath, *attachOrder, opt, emitStats, w)
	}
	prog, err := s.Parse(src)
	if err != nil {
		return fmt.Errorf("parse program: %w", err)
	}
	if *semantics == "auto" {
		rep := s.Analyze(prog)
		if lerr := rep.Diags.Err(); lerr != nil {
			return fmt.Errorf("auto semantics: %w", lerr)
		}
		fmt.Fprintf(w, "%% auto semantics: %s (%s)\n", rep.Semantics, rep.Dialect)
		*semantics = rep.Semantics
	}
	in := tuple.NewInstance()
	if *factsPath != "" {
		fsrc, err := readFile(*factsPath)
		if err != nil {
			return err
		}
		in, err = s.Facts(fsrc)
		if err != nil {
			return fmt.Errorf("parse facts: %w", err)
		}
	}
	if *attachOrder {
		in = s.WithOrder(in)
	}

	if *query != "" {
		return goalQuery(s, prog, in, *query, *optLevel, opt, optExplainW, emitStats, w)
	}
	var answerPreds []string
	if *answer != "" {
		answerPreds = strings.Split(*answer, ",")
	}
	// -O rewrites the program up front on the deterministic paths; the
	// nondeterministic family (ndatalog*, effects) and the provenance
	// (-why) and 3-valued (-three) renderings evaluate the program as
	// written. The answer is still rendered against the original
	// program so its IDB list decides which relations print.
	ansProg := prog
	sem, deterministic := unchained.SemanticsByName[*semantics]
	if deterministic && *optLevel > 0 && *why == "" && !*three {
		prog = optimizeCLI(s, prog, in, sem, *optLevel, answerPreds, optExplainW)
	}
	printAnswer := func(out *tuple.Instance) {
		ans := core.Answer(ansProg, out, answerPreds...)
		fmt.Fprint(w, s.Format(ans))
	}

	switch *semantics {
	case "wellfounded", "well-founded":
		if !*three {
			break // the 2-valued reading is a row of the semantics table
		}
		wfs, err := declarative.EvalWellFounded(prog, in, s.U, opt)
		if wfs != nil {
			emitStats(wfs.Stats)
		}
		if err != nil {
			return err
		}
		for _, pred := range prog.IDB() {
			if r := wfs.True.Relation(pred); r != nil {
				for _, t := range r.SortedTuples(s.U) {
					fmt.Fprintf(w, "true    %s%s.\n", pred, t.String(s.U))
				}
			}
			for _, t := range wfs.UnknownFacts(pred) {
				fmt.Fprintf(w, "unknown %s%s.\n", pred, t.String(s.U))
			}
		}
		return nil
	case "ndatalog", "ndatalog-bottom", "ndatalog-forall", "ndatalog-new":
		d := ast.DialectNDatalogNegNeg
		switch *semantics {
		case "ndatalog-bottom":
			d = ast.DialectNDatalogBot
		case "ndatalog-forall":
			d = ast.DialectNDatalogAll
		case "ndatalog-new":
			d = ast.DialectNDatalogNew
		}
		res, err := nondet.Run(prog, d, in, s.U, *seed, opt)
		if res != nil {
			emitStats(res.Stats)
		}
		if err != nil {
			return err
		}
		if res.Aborted {
			fmt.Fprintf(w, "%% computation aborted (⊥ derived) after %d steps\n", res.Steps)
			return nil
		}
		fmt.Fprintf(w, "%% terminal state after %d firings\n", res.Steps)
		printAnswer(res.Out)
		return nil
	case "effects":
		eff, err := nondet.Effects(prog, ast.DialectNDatalogNegNeg, in, s.U, opt)
		if eff != nil {
			emitStats(eff.Stats)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%% eff(P) has %d terminal states (%d states explored)\n", len(eff.States), eff.Explored)
		for i, st := range eff.States {
			fmt.Fprintf(w, "%% state %d:\n", i+1)
			printAnswer(st)
		}
		if poss, ok := eff.Poss(); ok {
			fmt.Fprintf(w, "%% poss:\n")
			printAnswer(poss)
			cert, _ := eff.Cert()
			fmt.Fprintf(w, "%% cert:\n")
			printAnswer(cert)
		}
		return nil
	}

	if !deterministic {
		return fmt.Errorf("unknown semantics %q", *semantics)
	}
	if sem == unchained.Inflationary && *why != "" {
		return explain(s, prog, in, *why, opt, w)
	}
	res, err := s.EvalOptions(prog, in, sem, opt)
	if res != nil {
		emitStats(res.Stats)
	}
	if err != nil {
		return err
	}
	switch sem {
	case unchained.Inflationary, unchained.NonInflationary:
		fmt.Fprintf(w, "%% fixpoint after %d stages\n", res.Stages)
	case unchained.Invent:
		fmt.Fprintf(w, "%% fixpoint after %d stages (%d values invented)\n", res.Stages, s.U.FreshCount())
	}
	printAnswer(res.Out)
	return nil
}

// goalQuery answers a single query atom via the magic-sets rewriting.
func goalQuery(s *unchained.Session, prog *unchained.Program, in *tuple.Instance, querySrc string, optLevel int, opt *engine.Options, optExplainW io.Writer, emitStats func(*stats.Summary), w io.Writer) error {
	// Parse "T(a,Y)" by reusing the rule parser on a synthetic rule.
	r, err := parser.ParseRule(querySrc+" :- .", s.U)
	if err != nil {
		return fmt.Errorf("-query: %w", err)
	}
	if len(r.Head) != 1 || r.Head[0].Kind != ast.LitAtom || r.Head[0].Neg {
		return fmt.Errorf("-query expects a single positive atom")
	}
	q := r.Head[0].Atom
	if optLevel > 0 {
		// The query predicate is the only observed output, so it
		// anchors reachability-based dead-rule elimination.
		prog = optimizeCLI(s, prog, in, unchained.MinimalModel, optLevel, []string{q.Pred}, optExplainW)
	}
	ans, sum, err := magic.AnswerStats(prog, q, in, s.U, opt)
	emitStats(sum)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%% %d answers (magic-sets evaluation)\n", ans.Len())
	for _, t := range ans.SortedTuples(s.U) {
		fmt.Fprintf(w, "%s%s.\n", q.Pred, t.String(s.U))
	}
	return nil
}

// explain runs the inflationary evaluation with provenance tracking
// and prints the derivation tree of the named fact.
func explain(s *unchained.Session, prog *unchained.Program, in *tuple.Instance, factSrc string, opt *engine.Options, w io.Writer) error {
	facts, err := s.Facts(factSrc + ".")
	if err != nil {
		return fmt.Errorf("-why: %w", err)
	}
	if facts.Facts() != 1 {
		return fmt.Errorf("-why expects exactly one ground fact")
	}
	_, prov, err := core.EvalInflationaryProv(prog, in, s.U, opt)
	if err != nil {
		return err
	}
	for _, name := range facts.Names() {
		var target tuple.Tuple
		facts.Relation(name).Each(func(t tuple.Tuple) bool { target = t; return false })
		e, ok := prov.Why(name, target)
		if !ok {
			return fmt.Errorf("%s%s is not derivable (and not in the input)", name, target.String(s.U))
		}
		fmt.Fprint(w, prov.Render(e))
	}
	return nil
}

// runWhile parses and runs a while-language program.
func runWhile(s *unchained.Session, src, factsPath string, attachOrder bool, opt *engine.Options, emitStats func(*stats.Summary), w io.Writer) error {
	prog, err := while.Parse(src, s.U)
	if err != nil {
		return fmt.Errorf("parse while program: %w", err)
	}
	in := tuple.NewInstance()
	if factsPath != "" {
		fsrc, err := readFile(factsPath)
		if err != nil {
			return err
		}
		in, err = s.Facts(fsrc)
		if err != nil {
			return fmt.Errorf("parse facts: %w", err)
		}
	}
	if attachOrder {
		in = s.WithOrder(in)
	}
	kind := "while"
	if prog.Fixpoint() {
		kind = "fixpoint"
	}
	res, err := while.Run(prog, in, s.U, opt)
	if res != nil {
		emitStats(res.Stats)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%% %s program: %d loop iterations\n", kind, res.Stages)
	fmt.Fprint(w, s.Format(res.Out))
	return nil
}

// normalizeOptArgs rewrites the conventional -O<n> spelling (-O2,
// --O2) to the -O=<n> form the flag package parses, so that every
// level, valid or not, reaches the -O range check.
func normalizeOptArgs(args []string) []string {
	out := make([]string, len(args))
	for i, a := range args {
		n, ok := strings.CutPrefix(a, "-O")
		if !ok {
			n, ok = strings.CutPrefix(a, "--O")
		}
		if ok && n != "" && n[0] >= '0' && n[0] <= '9' {
			a = "-O=" + n
		}
		out[i] = a
	}
	return out
}

// optimizeCLI runs the -O pipeline for the resolved semantics and
// returns the rewritten program, or the original when nothing changed
// or when the instance violates an emptiness assumption the optimizer
// recorded. Under -explain (explainW non-nil) every applied rewrite —
// or the reason for falling back — is narrated.
func optimizeCLI(s *unchained.Session, prog *unchained.Program, in *tuple.Instance, sem unchained.Semantics, level int, roots []string, explainW io.Writer) *unchained.Program {
	res, holds := s.Optimize(prog, in, sem, unchained.OptLevel(level), roots...)
	if !res.Changed {
		return prog
	}
	if !holds {
		if explainW != nil {
			fmt.Fprintf(explainW, "%% -O%d disabled: input facts present on assumed-empty relation(s) %s\n",
				level, strings.Join(res.RequiresEmptyInput, ", "))
		}
		return prog
	}
	if explainW != nil {
		for _, rw := range res.Rewrites {
			fmt.Fprintf(explainW, "%% -O%d [%s] %s: %s\n", level, rw.Pass, rw.Pos, rw.Note)
		}
	}
	return res.Program
}

func readFile(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
