package unchained

// Count-based pins on the front end's cost: lex/parse → analyze →
// optimize is one walk of the rules, so allocations grow with the rule
// count and not with its square, and reading facts allocates nothing
// per fact. The runtime's counters count, they do not time, so these
// hold on any box.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"unchained/internal/gen"
)

// frontendAllocs returns the allocations and the bytes allocated of
// one run of front on src and on p, src freshly parsed, and the
// program's rule count. It counts as testing.AllocsPerRun does: one
// run to warm up, then the mean of five on one thread.
func frontendAllocs(t *testing.T, src string, front func(s *Session, src string, p *Program)) (allocs, bytes float64, rules int) {
	t.Helper()
	s := NewSession()
	p := s.MustParse(src)
	const runs = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	front(s, src, p)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		front(s, src, p)
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / runs), float64((after.TotalAlloc - before.TotalAlloc) / runs), len(p.Rules)
}

func TestFrontendAllocsScaleLinearly(t *testing.T) {
	// A copy chain written callee-last: the worst order for a fixpoint
	// that re-walks the rules until nothing changes.
	var reversed strings.Builder
	for i := 1; i < 256; i++ {
		fmt.Fprintf(&reversed, "S%d(X,Y) :- S%d(X,Y).\n", i, i+1)
	}
	reversed.WriteString("S256(X,Y) :- E(X,Y).\n")

	for _, c := range []struct {
		name    string
		perRule float64
		bytes   float64 // per rule at the larger size; 0 leaves bytes unchecked
		front   func(s *Session, src string, p *Program)
	}{
		// Measured at most 2.0 (Parse: a rule's literals and its
		// arguments are one array each), 2.3 (Analyze; 3.2 under -race)
		// and 5.6 (Optimize) allocations per rule. Parse allocates 713
		// bytes per rule at 1 057 rules; it took 1 074 while every
		// literal carried the fields of every kind (208 bytes).
		{"Parse", 2.5, 760, func(s *Session, src string, _ *Program) { s.MustParse(src) }},
		{"Analyze", 4, 0, func(s *Session, _ string, p *Program) { s.Analyze(p) }},
		{"Optimize", 7, 0, func(s *Session, _ string, p *Program) { s.Optimize(p, nil, Stratified, Opt2, "Out") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			small, _, n := frontendAllocs(t, gen.Wide(64, 200), c.front)
			large, bytes, m := frontendAllocs(t, gen.Wide(256, 800), c.front)
			t.Logf("%d rules: %.0f allocs (%.1f per rule); %d rules: %.0f allocs (%.1f per rule), %.0f bytes per rule",
				n, small, small/float64(n), m, large, large/float64(m), bytes/float64(m))
			if large > 4.3*small {
				t.Errorf("%d rules cost %.0f allocs, %.1fx the %.0f of %d rules: want <= 4.3x for 4x the rules",
					m, large, large/small, small, n)
			}
			if large > c.perRule*float64(m) {
				t.Errorf("%.1f allocs per rule at %d rules, want <= %g", large/float64(m), m, c.perRule)
			}
			if c.bytes > 0 && bytes > c.bytes*float64(m) {
				t.Errorf("%.0f bytes per rule at %d rules, want <= %g", bytes/float64(m), m, c.bytes)
			}
			chain, _, k := frontendAllocs(t, reversed.String(), c.front)
			t.Logf("reversed %d-deep chain: %.0f allocs (%.1f per rule)", k, chain, chain/float64(k))
			if chain > c.perRule*float64(k) {
				t.Errorf("reversed %d-deep chain: %.1f allocs per rule, want <= %g", k, chain/float64(k), c.perRule)
			}
		})
	}
}

func TestParseFactsAllocsPerFact(t *testing.T) {
	const facts, consts = 4096, 256
	for _, c := range []struct{ name, spelling string }{
		{"plain", "G(n%d,n%d).\n"},
		// Not the plain shape: the rule grammar reads each one, and the
		// fact is taken off its stacks without settling a rule.
		{"rule", "G(n%d,n%d) :- .\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var b strings.Builder
			for i := 0; i < facts; i++ {
				fmt.Fprintf(&b, c.spelling, i%consts, (i*7+i/consts)%consts)
			}
			src := b.String()
			s := NewSession()
			s.MustFacts(src) // intern the constants once: a fact, not a constant, is what is priced
			allocs := testing.AllocsPerRun(5, func() { s.MustFacts(src) })
			t.Logf("%d facts: %.0f allocs (%.3f per fact)", facts, allocs, allocs/facts)
			if allocs > 0.25*facts {
				t.Errorf("%.3f allocs per fact, want <= 0.25", allocs/facts)
			}
		})
	}
}
