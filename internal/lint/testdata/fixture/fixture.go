// Package fixture deliberately violates every custom analyzer;
// TestAnalyzersFlagFixture checks it and expects exactly these
// findings. It lives under testdata, so ./... (the build, the tests
// and TestAnalyzersPassOnModule) never sees it.
package fixture

import (
	"unchained/internal/ast"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// badTupleWrite mutates a shared tuple payload in place.
func badTupleWrite(t tuple.Tuple) {
	t[0] = 0
}

// scratchPattern is the reused-scratch shape of the rule matcher and the
// firing kernel: the buffer is a []value.Value its owner overwrites per
// valuation and lends out as a tuple for the length of one call. The
// one function in this file the analyzers must leave alone.
func scratchPattern(scratch []value.Value, v value.Value) tuple.Tuple {
	scratch[0] = v
	return tuple.Tuple(scratch)
}

// badScratchView writes through the tuple view of such a buffer
// instead: once it is a tuple.Tuple it is a payload like any other, and
// whoever was lent it may still be reading.
func badScratchView(scratch []value.Value, v value.Value) {
	view := tuple.Tuple(scratch)
	view[0] = v
}

// badASTMutate rewrites a rule of a shared program in place: cached
// programs serve every concurrent request, so passes must build fresh
// rule slices instead (copy-on-write).
func badASTMutate(p *ast.Program, r ast.Rule) {
	p.Rules[0] = r
}
