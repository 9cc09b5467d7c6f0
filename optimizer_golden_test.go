package unchained_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unchained"
	"unchained/internal/ast"
	"unchained/internal/gen"
	"unchained/internal/opt"
	"unchained/programs"
)

var updateGolden = flag.Bool("update", false, "rewrite the optimizer golden files")

// digestOver is the rendered size past which a rooted result is pinned
// by its SHA-256: on the 265-rule shape every root keeps its own copy
// of about 500 rewrites, 19 MB in full.
const digestOver = 4096

// TestOptimizeResultGolden pins the whole opt.Optimize result — the
// rewritten program, every Rewrite, the sorted diagnostics, the
// emptiness assumptions, the pass count and the rules removed — in the
// configurations callers run: O2 with and without inlining, each with
// no root and with each head predicate as the root, and O2 without
// assumptions and roots (a maintained view), over the shipped corpus,
// the two gen.Wide shapes and fixed-seed gen.Program programs of every
// dialect. A rooted result longer than digestOver is
// recorded as its summary line and a hash of the rest. The optimizer's
// rewrites are specified by these bytes: a change to how it computes
// them must leave them alone. Run with -update to rewrite
// testdata/optimize after a deliberate change.
func TestOptimizeResultGolden(t *testing.T) {
	type source struct {
		name  string
		progs func(s *unchained.Session) []*unchained.Program
	}
	one := func(text string) func(s *unchained.Session) []*unchained.Program {
		return func(s *unchained.Session) []*unchained.Program { return []*unchained.Program{s.MustParse(text)} }
	}
	var sources []source
	for _, c := range programs.Cases {
		sources = append(sources, source{strings.TrimSuffix(c.Program, ".dl"), one(programs.Source(c.Program))})
	}
	sources = append(sources,
		source{"wide-64-200", one(gen.Wide(64, 200))},
		source{"wide-12-0", one(gen.Wide(12, 0))},
		source{"gen-program", func(s *unchained.Session) []*unchained.Program {
			var ps []*unchained.Program
			for seed := 0; seed < 50; seed++ {
				d := ast.Dialects[seed%len(ast.Dialects)]
				ps = append(ps, gen.Program(rand.New(rand.NewSource(int64(seed))), s.U, d))
			}
			return ps
		}},
	)

	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			s := unchained.NewSession()
			var b strings.Builder
			for i, p := range src.progs(s) {
				seen := map[string]string{} // rendered result → the first header that rendered it
				fmt.Fprintf(&b, "#### program %d\n%s", i, p.String(s.U))
				for _, cfg := range []struct {
					name               string
					noInline, noAssume bool
					rooted             bool
				}{
					{"O2", false, false, true},
					{"O2 noinline", true, false, true},
					{"O2 noassume", false, true, false},
				} {
					roots := []string{""}
					if cfg.rooted {
						roots = append(roots, p.IDB()...)
					}
					for _, root := range roots {
						o := &opt.Options{Level: opt.O2, NoInline: cfg.noInline, NoAssume: cfg.noAssume}
						head := "== " + cfg.name + " no root"
						if root != "" {
							o.Roots = []string{root}
							head = "== " + cfg.name + " root " + root
						}
						body := renderOptimizeResult(s, opt.Optimize(p, s.U, o))
						if root != "" && len(body) > digestOver {
							// The first line is the summary; the rest is pinned by its hash.
							summary, rest, _ := strings.Cut(body, "\n")
							body = fmt.Sprintf("%s\nsha256 %x\n", summary, sha256.Sum256([]byte(rest)))
						}
						if first, ok := seen[body]; ok {
							fmt.Fprintf(&b, "%s: as %s\n", head, first)
							continue
						}
						seen[body] = strings.TrimPrefix(head, "== ")
						fmt.Fprintf(&b, "%s\n%s", head, body)
					}
				}
			}
			got := b.String()
			path := filepath.Join("testdata", "optimize", src.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("Optimize result differs from %s:\n%s", path, firstDiff(got, string(want)))
			}
		})
	}
}

// renderOptimizeResult prints every field of res a caller can read.
func renderOptimizeResult(s *unchained.Session, res *opt.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "changed=%v passes=%d removed=%d requires-empty=%v\n",
		res.Changed, res.Passes, res.RulesRemoved, res.RequiresEmptyInput)
	b.WriteString("-- program\n")
	b.WriteString(res.Program.String(s.U))
	b.WriteString("-- rewrites\n")
	for _, r := range res.Rewrites {
		fmt.Fprintf(&b, "[%s] %s: %s\n", r.Pass, r.Pos, r.Note)
	}
	b.WriteString("-- diags\n")
	for _, d := range res.Diags {
		fmt.Fprintf(&b, "%s\n", d)
		for _, r := range d.Related {
			fmt.Fprintf(&b, "  related %s: %s\n", r.Pos, r.Message)
		}
	}
	return b.String()
}

// firstDiff shows the first differing line of got and want, with its
// line number.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gl, wl)
		}
	}
	return "(identical lines, different bytes)"
}
