//go:build lintfixture

// Package fixture deliberately violates every custom analyzer; the
// integration test runs `go vet -vettool -tags lintfixture
// -stageloop.all` over it and expects failure. The build tag keeps it
// out of ordinary builds, tests, and the real vet run.
package fixture

import (
	"unchained/internal/ast"
	"unchained/internal/tuple"
)

type col struct{}

func (col) BeginStage() {}
func (col) EndStage()   {}

// badStageLoop brackets its own stages instead of plugging a step into
// the driver: nothing polls the context, so cancellation could not
// stop it if it were a real engine.
func badStageLoop(c col) {
	for i := 0; i < 1000; i++ {
		c.BeginStage()
		c.EndStage()
	}
}

// badTupleWrite mutates a shared tuple payload in place.
func badTupleWrite(t tuple.Tuple) {
	t[0] = 0
}

// badASTMutate rewrites a rule of a shared program in place: cached
// programs serve every concurrent request, so passes must build fresh
// rule slices instead (copy-on-write).
func badASTMutate(p *ast.Program, r ast.Rule) {
	p.Rules[0] = r
}

type cursor struct{}

func (cursor) Next() (int, bool) { return 0, false }

// badDrainLoop pulls an iterator forever: no break, no return.
func badDrainLoop(it cursor) {
	n := 0
	for {
		v, _ := it.Next()
		n += v
	}
}
