package unchained_test

import (
	"context"
	"strings"
	"testing"

	"unchained"
	"unchained/programs"
)

// TestAutoRejectsNondeterministic: programs whose inferred dialect
// needs a nondeterministic engine must fail fast with guidance naming
// the engine, not silently pick a deterministic approximation.
func TestAutoRejectsNondeterministic(t *testing.T) {
	engines := map[unchained.Dialect]string{
		unchained.DialectNDatalogNeg: "ndatalog",
		unchained.DialectNDatalogBot: "ndatalog-bottom",
		unchained.DialectNDatalogAll: "ndatalog-forall",
		unchained.DialectNDatalogNew: "ndatalog-new",
	}
	ran := 0
	for _, c := range programs.Cases {
		if c.Deterministic() {
			continue
		}
		ran++
		t.Run(c.Program, func(t *testing.T) {
			s, p, in := load(t, c)
			_, err := s.EvalContext(context.Background(), p, in, unchained.SemanticsAuto)
			if err == nil {
				t.Fatal("want error for nondeterministic program")
			}
			if !strings.Contains(err.Error(), "nondeterministic engine") || !strings.Contains(err.Error(), engines[c.Nondet]) {
				t.Fatalf("error lacks guidance: %v", err)
			}
		})
	}
	if ran < 5 {
		t.Fatalf("only %d nondeterministic programs", ran)
	}
}

// TestAutoRefusesInvalidProgram: evaluation under auto surfaces the
// analyzer's error diagnostics instead of running anything.
func TestAutoRefusesInvalidProgram(t *testing.T) {
	s := unchained.NewSession()
	p := s.MustParse("!P(X) :- Q(Y).")
	_, err := s.EvalContext(context.Background(), p, s.MustFacts(``), unchained.SemanticsAuto)
	if err == nil || !strings.Contains(err.Error(), "no dialect of the family admits") {
		t.Fatalf("want the E004 message, got %v", err)
	}
}
