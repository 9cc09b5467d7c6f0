package unchained_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"unchained"
	"unchained/internal/gen"
)

// optLevels are the optimizer configurations the oracle compares
// against the unoptimized baseline.
var optLevels = []unchained.OptLevel{unchained.Opt1, unchained.Opt2}

// evalOptCase evaluates one corpus case under sem with the given
// extra options and renders the outcome: the formatted result facts
// when the run succeeds, or a tagged error line. Stage counts are
// deliberately NOT rendered — inlining legitimately shortens stage
// progressions under timing-safe semantics; the oracle compares the
// model computed, not the schedule that computed it.
func evalOptCase(t *testing.T, c struct {
	prog      string
	facts     string
	order     bool
	maxStages int
}, sem unchained.Semantics, extra ...unchained.Opt) (out string, failed bool) {
	t.Helper()
	s, p, in := loadCase(t, c.prog, c.facts)
	if c.order {
		in = s.WithOrder(in)
	}
	opts := append([]unchained.Opt{unchained.WithMaxStages(c.maxStages)}, extra...)
	res, err := s.EvalContext(context.Background(), p, in, sem, opts...)
	if err != nil {
		return "error: " + err.Error(), true
	}
	return s.Format(res.Out), false
}

// TestOptimizerMatchesUnoptimizedOracle is the PR's semantic
// acceptance check: for every program in the corpus under every
// deterministic engine, evaluating the optimized program must produce
// byte-identical facts to the unoptimized baseline, at both levels.
//
// Cases where the baseline itself fails are skipped rather than
// compared: optimization can widen the accepted language (constant
// propagation folds away an equality literal that the stratified
// dialect check would reject), so "baseline errors" does not imply
// "optimized errors" — see docs/OPTIMIZER.md. What must never happen
// is the converse, an optimized run failing where the baseline
// succeeds; that is a hard test failure.
func TestOptimizerMatchesUnoptimizedOracle(t *testing.T) {
	for _, c := range plannerCases {
		for _, name := range plannerSemantics {
			sem, ok := unchained.SemanticsByName[name]
			if !ok {
				t.Fatalf("unknown semantics %q", name)
			}
			for _, level := range optLevels {
				c, level := c, level
				t.Run(fmt.Sprintf("%s/%s/O%d", c.prog, name, level), func(t *testing.T) {
					base, failed := evalOptCase(t, c, sem)
					if failed {
						t.Skipf("baseline rejects the program (optimization may widen the dialect): %s", base)
					}
					opt, _ := evalOptCase(t, c, sem, unchained.WithOptimize(level))
					if opt != base {
						t.Errorf("optimized output diverges from baseline:\n--- -O%d ---\n%s\n--- -O0 ---\n%s", level, opt, base)
					}
				})
			}
		}
	}
}

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
	for _, name := range plannerSemantics {
		sem := unchained.SemanticsByName[name]
		for _, c := range plannerCases {
			c := c
			t.Run(c.prog+"/"+name, func(t *testing.T) {
				check(t, sem, c.maxStages, func() (*unchained.Session, *unchained.Program, *unchained.Instance) {
					s, p, in := loadCase(t, c.prog, c.facts)
					if c.order {
						in = s.WithOrder(in)
					}
					return s, p, in
				})
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

// TestOptimizerMatchesSharded re-runs the sweep with the data-parallel
// shard axis enabled (the daemon's parallel configuration): the
// optimizer rewrites the program before sharding, so the combination
// must still match the serial unoptimized baseline.
func TestOptimizerMatchesSharded(t *testing.T) {
	shards := unchained.WithParallel(unchained.Parallel{Shards: 4})
	for _, c := range plannerCases {
		for _, name := range []string{"minimal-model", "stratified"} {
			sem := unchained.SemanticsByName[name]
			c := c
			t.Run(c.prog+"/"+name, func(t *testing.T) {
				base, failed := evalOptCase(t, c, sem, shards)
				if failed {
					t.Skipf("baseline rejects the program: %s", base)
				}
				opt, _ := evalOptCase(t, c, sem, shards, unchained.WithOptimize(unchained.Opt2))
				if opt != base {
					t.Errorf("sharded optimized output diverges:\n--- -O2 ---\n%s\n--- -O0 ---\n%s", opt, base)
				}
			})
		}
	}
}

// TestOptimizerMatchesQuery covers the magic-sets engine: the
// optimizer runs before the magic rewriting, with the goal predicate
// as the reachability root, and the answers must be unchanged.
func TestOptimizerMatchesQuery(t *testing.T) {
	cases := []struct {
		prog, facts, query string
		src                string // the program inline; facts are then inline too
	}{
		{prog: "tc.dl", facts: "chain.facts", query: "T(a,Y)"},
		{prog: "same_generation.dl", facts: "family.facts", query: "Sg(ann,Y)"},
		// Q is underivable, so -O1 removes every rule of the goal's
		// relation: the answer stays empty, it does not become an error.
		{prog: "underivable-goal", src: "P(X) :- Q(X).\nQ(X) :- Q(X), E(X).\nR(X) :- E(X).\n", facts: "E(a). E(b).", query: "P(a)"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.prog, func(t *testing.T) {
			run := func(extra ...unchained.Opt) string {
				var s *unchained.Session
				var p *unchained.Program
				var in *unchained.Instance
				if c.src == "" {
					s, p, in = loadCase(t, c.prog, c.facts)
				} else {
					s = unchained.NewSession()
					p, in = s.MustParse(c.src), s.MustFacts(c.facts)
				}
				q, err := s.ParseAtom(c.query)
				if err != nil {
					t.Fatal(err)
				}
				rel, _, err := s.QueryContext(context.Background(), p, q, in, extra...)
				if err != nil {
					return "error: " + err.Error()
				}
				out := ""
				for _, tp := range rel.SortedTuples(s.U) {
					out += tp.String(s.U) + "\n"
				}
				return out
			}
			base := run()
			for _, level := range optLevels {
				if opt := run(unchained.WithOptimize(level)); opt != base {
					t.Errorf("goal-directed answers diverge:\n--- -%v ---\n%s\n--- -O0 ---\n%s", level, opt, base)
				}
			}
		})
	}
}

// TestOptimizerMatchesIncr covers the incremental engine: a
// materialize → insert → delete session over the optimized program
// (MaterializeContext restricts the pipeline to instance-independent
// rewrites via NoAssume) must track the unoptimized view through the
// whole delta sequence.
func TestOptimizerMatchesIncr(t *testing.T) {
	run := func(extra ...unchained.Opt) string {
		s, p, in := loadCase(t, "tc.dl", "chain.facts")
		v, err := s.MaterializeContext(context.Background(), p, in, extra...)
		if err != nil {
			return "error: " + err.Error()
		}
		out := s.Format(v.Instance())
		step := func(op string, fact string) {
			f := s.MustFacts(fact + ".")
			for _, name := range f.Names() {
				rel := f.Relation(name)
				rel.Each(func(tp unchained.Tuple) bool {
					var err error
					if op == "+" {
						_, err = v.Insert(name, tp)
					} else {
						_, err = v.Delete(name, tp)
					}
					if err != nil {
						t.Fatal(err)
					}
					return true
				})
			}
			out += "--- after " + op + fact + " ---\n" + s.Format(v.Instance())
		}
		step("+", "G(d,e)")
		step("+", "G(e,a)")
		step("-", "G(b,c)")
		step("-", "G(a,b)")
		return out
	}
	base := run()
	opt := run(unchained.WithOptimize(unchained.Opt2))
	if opt != base {
		t.Errorf("maintained views diverge:\n--- -O2 ---\n%s\n--- -O0 ---\n%s", opt, base)
	}
}

// TestOptimizerMatchesEffects extends the oracle to the
// nondeterministic family at the effects level. Seeded single runs
// are NOT compared — rule indices key the canonical candidate order,
// so any rewrite legitimately changes which computation a fixed seed
// selects. What optimization must preserve is the exhaustive
// semantics eff(P): the set of terminal states (and hence the
// possible/certain facts). Only the always-safe Opt1 rewrites are
// applied — subsumption removal preserves terminal-state sets because
// any firing of a removed rule is replicable by its subsumer.
func TestOptimizerMatchesEffects(t *testing.T) {
	cases := []struct {
		prog    string
		facts   string
		dialect unchained.Dialect
	}{
		{"choice.dl", "pset.facts", unchained.DialectNDatalogNeg},
		{"diff_bottom.dl", "pq.facts", unchained.DialectNDatalogBot},
		{"diff_forall.dl", "pq.facts", unchained.DialectNDatalogAll},
	}
	for _, c := range cases {
		c := c
		t.Run(c.prog, func(t *testing.T) {
			render := func(optimize bool) string {
				s, p, in := loadCase(t, c.prog, c.facts)
				if optimize {
					res, ok := s.Optimize(p, in, unchained.Inflationary, unchained.Opt1)
					if ok && res.Changed {
						p = res.Program
					}
				}
				eff, err := s.EffectsContext(context.Background(), p, c.dialect, in)
				if err != nil {
					return "error: " + err.Error()
				}
				// Discovery order tracks concrete rule indices, which
				// rewrites renumber; the semantics is the set.
				rendered := make([]string, len(eff.States))
				for i, st := range eff.States {
					rendered[i] = s.Format(st)
				}
				sort.Strings(rendered)
				return fmt.Sprintf("states=%d\n%s", len(eff.States), strings.Join(rendered, "---\n"))
			}
			base, opt := render(false), render(true)
			if opt != base {
				t.Errorf("effect sets diverge:\n--- optimized ---\n%s\n--- baseline ---\n%s", opt, base)
			}
		})
	}
}
