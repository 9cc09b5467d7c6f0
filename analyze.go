// The analysis facade: Session.Analyze and the auto semantics, both
// thin wrappers over internal/analyze (the static program analyzer).
package unchained

import (
	"fmt"

	"unchained/internal/analyze"
	"unchained/internal/ast"
)

// Re-exported analysis types.
type (
	// AnalysisReport is the static analyzer's result: dialect
	// inference, recommended semantics, EDB/IDB split, and positioned
	// diagnostics. See docs/ANALYSIS.md.
	AnalysisReport = analyze.Report
	// AnalysisRejection explains why one stricter dialect does not
	// admit the program.
	AnalysisRejection = analyze.Rejection
	// Diagnostic is one positioned, severity-tagged finding.
	Diagnostic = ast.Diagnostic
	// Diagnostics is a list of findings.
	Diagnostics = ast.Diagnostics
	// Pos is a 1-based source position (zero value: unknown).
	Pos = ast.Pos
	// Severity grades a diagnostic.
	Severity = ast.Severity
)

// The diagnostic severities.
const (
	SevInfo  = ast.SevInfo
	SevWarn  = ast.SevWarn
	SevError = ast.SevError
)

// DialectUnknown is reported when no dialect of the family admits a
// program.
const DialectUnknown = ast.DialectUnknown

// SemanticsAuto asks EvalContext to run the static analyzer and
// dispatch to the cheapest sound engine for the program's inferred
// class: minimal-model for positive Datalog, semi-positive /
// stratified / well-founded for Datalog¬ (in that preference order),
// noninflationary for Datalog¬¬, invent for Datalog¬new. Programs
// needing a nondeterministic engine return an error naming the
// engine to run explicitly.
const SemanticsAuto Semantics = 0x7F

// Analyze runs the static analyzer over p: dialect inference with
// per-dialect rejection reasons, safety and arity checking, the
// dependency-graph passes (stratifiability witness, unused and
// underivable predicates), and the termination heuristic. It never
// fails; problems are diagnostics on the report. WithTracer streams
// analyze span events.
func (s *Session) Analyze(p *Program, opts ...Opt) *AnalysisReport {
	cfg := &evalConfig{}
	for _, o := range opts {
		o(cfg)
	}
	return analyze.Analyze(p, &analyze.Options{Tracer: cfg.opt.Tracer})
}

// AutoSemantics resolves SemanticsAuto against a program's analysis
// report: the engine the analyzer recommends, or an error when the
// report carries error diagnostics or the program needs a
// nondeterministic engine. It is the one place a report becomes a
// Semantics: EvalContext calls it on a fresh report, the daemon on the
// report its parse cache memoizes.
func AutoSemantics(rep *AnalysisReport) (Semantics, error) {
	if err := rep.Diags.Err(); err != nil {
		return 0, fmt.Errorf("unchained: auto semantics: %w", err)
	}
	if !rep.Deterministic {
		return 0, fmt.Errorf("unchained: auto semantics: %s requires a nondeterministic engine; use RunNondet/Effects or -semantics %s explicitly", rep.Dialect, rep.Semantics)
	}
	sem, ok := SemanticsByName[rep.Semantics]
	if !ok {
		return 0, fmt.Errorf("unchained: auto semantics: no engine named %q", rep.Semantics)
	}
	return sem, nil
}
