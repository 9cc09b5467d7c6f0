package unchained_test

import (
	"errors"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/core"
	"unchained/internal/declarative"
	"unchained/internal/engine"
	"unchained/internal/incr"
	"unchained/internal/magic"
	"unchained/internal/nondet"
	"unchained/internal/parser"
	"unchained/internal/value"
	"unchained/internal/while"
)

// TestEveryEngineRejectsInvalidOptions: option validation belongs to
// the stage-loop driver, so every engine entry point rejects an
// out-of-domain bound — including the ones that used to skip the
// check (declarative.EvalNaive, core.EvalInflationaryProv).
func TestEveryEngineRejectsInvalidOptions(t *testing.T) {
	u := value.New()
	tc := parser.MustParse(`T(X,Y) :- G(X,Y). T(X,Y) :- G(X,Z), T(Z,Y).`, u)
	orient := parser.MustParse(`!G(X,Y) :- G(X,Y), G(Y,X).`, u)
	wl := while.MustParse(`T(X,Y) += G(X,Y); while change do { T(X,Y) += exists Z (T(X,Z) and G(Z,Y)); }`, u)
	in := parser.MustParseFacts(`G(a,b). G(b,a). G(b,c).`, u)
	goal, err := parser.ParseAtom(`T(a,Y)`, u)
	if err != nil {
		t.Fatal(err)
	}
	bad := func() *engine.Options { return &engine.Options{MaxStages: -1} }

	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"core.EvalInflationary", func() error { _, err := core.EvalInflationary(tc, in, u, bad()); return err }},
		{"core.EvalInflationaryProv", func() error { _, _, err := core.EvalInflationaryProv(tc, in, u, bad()); return err }},
		{"core.EvalNonInflationary", func() error { _, err := core.EvalNonInflationary(tc, in, u, bad()); return err }},
		{"core.EvalInvent", func() error { _, err := core.EvalInvent(tc, in, u, bad()); return err }},
		{"declarative.Eval", func() error { _, err := declarative.Eval(tc, in, u, bad()); return err }},
		{"declarative.EvalNaive", func() error { _, err := declarative.EvalNaive(tc, in, u, bad()); return err }},
		{"declarative.EvalSemiPositive", func() error { _, err := declarative.EvalSemiPositive(tc, in, u, bad()); return err }},
		{"declarative.EvalStratified", func() error { _, err := declarative.EvalStratified(tc, in, u, bad()); return err }},
		{"declarative.EvalWellFounded", func() error { _, err := declarative.EvalWellFounded(tc, in, u, bad()); return err }},
		{"while.Run", func() error { _, err := while.Run(wl, in, u, bad()); return err }},
		{"nondet.Run", func() error {
			_, err := nondet.Run(orient, ast.DialectNDatalogNegNeg, in, u, 1, bad())
			return err
		}},
		{"nondet.Effects", func() error { _, err := nondet.Effects(orient, ast.DialectNDatalogNegNeg, in, u, bad()); return err }},
		{"incr.Materialize", func() error { _, err := incr.Materialize(tc, in, u, bad()); return err }},
		{"magic.Answer", func() error { _, err := magic.Answer(tc, goal, in, u, bad()); return err }},
		{"magic.FullAnswer", func() error { _, err := magic.FullAnswer(tc, goal, in, u, bad()); return err }},
	} {
		if err := c.run(); !errors.Is(err, engine.ErrInvalidOptions) {
			t.Errorf("%s: err = %v, want ErrInvalidOptions", c.name, err)
		}
	}
}
