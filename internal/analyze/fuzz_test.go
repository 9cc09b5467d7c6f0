package analyze

import (
	"testing"

	"unchained/internal/ast"
	"unchained/internal/parser"
	"unchained/internal/value"
	"unchained/programs"
)

// FuzzAnalyze checks that the analyzer never panics on any parseable
// program and that every diagnostic carries a valid (or explicitly
// unknown) position.
func FuzzAnalyze(f *testing.F) {
	for _, c := range programs.Cases {
		f.Add(programs.Source(c.Program))
	}
	f.Add("!P(X) :- Q(Y).")           // no admitting dialect
	f.Add("P(X) :- G(X).\nP(X,Y).\n") // arity conflict
	f.Fuzz(func(t *testing.T, src string) {
		p, err := parser.Parse(src, value.New())
		if err != nil {
			return
		}
		r := Analyze(p, nil)
		if r == nil {
			t.Fatal("nil report")
		}
		okPos := func(pos ast.Pos) bool {
			return pos == (ast.Pos{}) || (pos.Line >= 1 && pos.Col >= 1)
		}
		for _, d := range r.Diags {
			if !okPos(d.Pos) {
				t.Fatalf("diagnostic with invalid position: %+v", d)
			}
			for _, rel := range d.Related {
				if !okPos(rel.Pos) {
					t.Fatalf("related with invalid position: %+v", d)
				}
			}
		}
		if r.Diags.HasErrors() && r.Semantics != "" && r.Dialect == ast.DialectUnknown {
			t.Fatalf("inadmissible program got a semantics: %+v", r)
		}
	})
}
