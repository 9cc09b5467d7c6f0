package unchained_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"unchained"
	"unchained/internal/gen"
	"unchained/programs"
)

// TestOptimizerRootsMatchUnoptimizedOracle is experiment P12's check:
// with one head predicate declared as the root, -O2 may delete every
// rule the root does not reach, and the root relation must still be
// byte-identical to the unoptimized run. The program goes through
// Session.Optimize and then EvalContext, the path `datalog -O2 -answer
// <root>` takes. It sweeps the corpus and P12's own two shapes (gen.Wide:
// a copy chain that inlining folds, dead rules beside it), each head
// predicate in turn; cases the baseline rejects are skipped, as above.
func TestOptimizerRootsMatchUnoptimizedOracle(t *testing.T) {
	type loader func() (*unchained.Session, *unchained.Program, *unchained.Instance)
	// check reports whether some root relation was non-empty.
	check := func(t *testing.T, sem unchained.Semantics, maxStages int, load loader) (compared bool) {
		// run evaluates the case optimized for root ("" for the
		// program as written) and returns a renderer of single
		// relations of the result.
		run := func(root string) (heads []string, rel func(string) string, err error) {
			s, p, in := load()
			heads = p.IDB()
			if root != "" {
				if res, ok := s.Optimize(p, in, sem, unchained.Opt2, root); ok && res.Changed {
					p = res.Program
				}
			}
			res, err := s.EvalContext(context.Background(), p, in, sem, unchained.WithMaxStages(maxStages))
			if err != nil {
				return nil, nil, err
			}
			return heads, func(pred string) string { return s.Format(res.Out.Restrict([]string{pred}, nil)) }, nil
		}
		heads, base, err := run("")
		if err != nil {
			t.Skipf("baseline rejects the program: %v", err)
		}
		for _, root := range heads {
			compared = compared || base(root) != ""
			_, opt, err := run(root)
			if err != nil {
				t.Errorf("root %s: -O2 fails where -O0 succeeds: %v", root, err)
			} else if got, want := opt(root), base(root); got != want {
				t.Errorf("root %s diverges:\n--- -O2 ---\n%s\n--- -O0 ---\n%s", root, got, want)
			}
		}
		return compared
	}
	for _, name := range semanticsNames {
		sem := unchained.SemanticsByName[name]
		for _, c := range programs.Cases {
			if !c.Deterministic() {
				continue
			}
			t.Run(c.Program+"/"+name, func(t *testing.T) {
				check(t, sem, c.MaxStages, func() (*unchained.Session, *unchained.Program, *unchained.Instance) { return load(t, c) })
			})
		}
		t.Run("wide/"+name, func(t *testing.T) {
			if !check(t, sem, 0, func() (*unchained.Session, *unchained.Program, *unchained.Instance) {
				s := unchained.NewSession()
				in := gen.Random(s.U, "E", 48, 160, 1)
				for i := 0; i < 48; i += 4 {
					in.Insert("Sel", unchained.Tuple{s.Sym(fmt.Sprintf("n%d", i))})
				}
				return s, s.MustParse(gen.Wide(12, 8)), in
			}) {
				t.Errorf("every root relation is empty: the row compares nothing")
			}
		})
	}
}

// TestOptimizerMatchesEffects extends the oracle to the
// nondeterministic family at the effects level. Seeded single runs
// are NOT compared — rule indices key the canonical candidate order,
// so any rewrite legitimately changes which computation a fixed seed
// selects. What optimization must preserve is the exhaustive
// semantics eff(P): the set of terminal states (and hence the
// possible/certain facts). The rewrites are gated as for
// Inflationary, so nothing is inlined — subsumption removal preserves
// terminal-state sets because any firing of a removed rule is
// replicable by its subsumer.
func TestOptimizerMatchesEffects(t *testing.T) {
	ran := 0
	for _, c := range programs.Cases {
		if c.Deterministic() {
			continue
		}
		ran++
		t.Run(c.Program, func(t *testing.T) {
			// Discovery order tracks concrete rule indices, which
			// rewrites renumber; the semantics is the set.
			render := func(optimize bool) string {
				_, states := effects(t, c, optimize)
				sort.Strings(states)
				return fmt.Sprintf("states=%d\n%s", len(states), strings.Join(states, "---\n"))
			}
			if base, opt := render(false), render(true); opt != base {
				t.Errorf("effect sets diverge:\n--- optimized ---\n%s\n--- baseline ---\n%s", opt, base)
			}
		})
	}
	if ran < 3 {
		t.Fatalf("only %d nondeterministic programs", ran)
	}
}
