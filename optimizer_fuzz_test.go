package unchained_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"unchained"
	"unchained/programs"
)

// FuzzOptimize is the differential fuzz target for the static
// optimizer: for any parseable program, Optimize must not panic, must
// not mutate the input program, and evaluating either -O2 rewrite the
// daemon memoizes (with inlining and without) under a timing-safe
// engine must produce the same facts as the original — over a small
// synthetic instance covering the program's EDB schema.
// Programs the baseline engine rejects are skipped (optimization may
// widen the accepted dialect; see docs/OPTIMIZER.md).
func FuzzOptimize(f *testing.F) {
	for _, c := range programs.Cases {
		f.Add(programs.Source(c.Program))
	}
	f.Add("P(X) :- E(X), X = a.\nDead(X) :- Never(X).\nQ(X) :- P(X).")
	f.Add("T(X,Y) :- G(X,Y).\nT(X,Y) :- G(X,Z), T(Z,Y).")

	f.Fuzz(func(t *testing.T, src string) {
		s := unchained.NewSession()
		p, err := s.Parse(src)
		if err != nil {
			return
		}
		// Bound the work: fuzzed programs with many rules or relations
		// make evaluation, not optimization, the cost center. A long or
		// wide join needs no bound of its own: the evaluation deadline
		// interrupts it mid-stage.
		schema, err := p.Schema()
		if err != nil || len(p.Rules) > 32 || len(schema) > 16 {
			return
		}
		before := p.String(s.U)

		// A tiny instance over the EDB schema so rewrites resting on
		// emptiness assumptions get exercised against real fallbacks.
		var facts strings.Builder
		for _, pred := range p.EDB() {
			k := schema[pred]
			if k == 0 || k > 4 {
				continue
			}
			for _, c := range []string{"a", "b"} {
				args := make([]string, k)
				for i := range args {
					args[i] = c
				}
				fmt.Fprintf(&facts, "%s(%s).\n", pred, strings.Join(args, ","))
			}
		}
		in, err := s.Facts(facts.String())
		if err != nil {
			t.Fatalf("generated facts failed to parse: %v\n%s", err, facts.String())
		}

		variants := map[string]*unchained.OptimizeResult{}
		for _, noInline := range []bool{false, true} {
			res := s.OptimizeFor(p, unchained.Stratified, &unchained.OptOptions{Level: unchained.Opt2, NoInline: noInline})
			if res == nil {
				t.Fatal("OptimizeFor returned nil result")
			}
			if after := p.String(s.U); after != before {
				t.Fatalf("Optimize mutated the input program:\n--- before ---\n%s\n--- after ---\n%s", before, after)
			}
			variants[fmt.Sprintf("-O2 NoInline=%v", noInline)] = res
		}

		eval := func(prog *unchained.Program, budget time.Duration) (string, bool) {
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			defer cancel()
			r, err := s.EvalContext(ctx, prog, in, unchained.Stratified, unchained.WithMaxStages(64))
			if err != nil {
				return "error: " + err.Error(), true
			}
			return s.Format(r.Out), false
		}
		// A tight baseline budget skips expensive inputs quickly; the
		// optimized run then gets a far larger one, so a deadline there
		// means a real pathological slowdown, not fuzz jitter.
		base, failed := eval(p, 500*time.Millisecond)
		if failed {
			return
		}
		for name, res := range variants {
			optimized := p
			if res.Changed && unchained.OptAssumptionsHold(res, in) {
				optimized = res.Program
			}
			if got, _ := eval(optimized, 10*time.Second); got != base {
				t.Fatalf("optimized output diverges from baseline:\nprogram:\n%s\nfacts:\n%s\n--- %s ---\n%s\n--- -O0 ---\n%s",
					src, facts.String(), name, got, base)
			}
		}
	})
}
