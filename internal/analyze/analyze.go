// Package analyze is the static program analyzer: a few passes over
// one ast.Index of an ast.Program, producing positioned,
// severity-tagged diagnostics and a classification Report. The index
// is built once per call and every pass reads it, so the analysis
// costs one walk of the rules. The passes mirror the syntactic bottom
// of the paper's Figure 1 hierarchy:
//
//  1. validation — the index build; arity conflicts fall out of it;
//  2. dialect inference — the minimal dialect in the Figure 1 lattice
//     admitting the program, decided from the rules' feature masks,
//     with a rejection reason (rule + position) for every stricter
//     dialect;
//  3. dependency graph — SCC condensation via internal/stratify,
//     negative-cycle witness paths for non-stratifiable Datalog¬,
//     EDB/IDB split, unused and underivable predicates;
//  4. optimizer opportunities — inlinable predicates and dead rules,
//     by the optimizer's own candidate search and subsumption
//     relation over the same index and graph;
//  5. termination heuristic — Datalog¬¬ derive/retract flip-flop
//     cycles warn (Section 4.2's non-terminating program) unless a
//     monotone sentinel guards every pair, which is the
//     ordered-database counter shape of Theorem 4.8 (info, never an
//     error);
//  6. semantics recommendation — the cheapest sound engine for the
//     inferred class, which SemanticsAuto in the facade dispatches on.
package analyze

import (
	"fmt"
	"strings"
	"time"

	"unchained/internal/ast"
	optpass "unchained/internal/opt"
	"unchained/internal/stratify"
	"unchained/internal/trace"
)

// Diagnostic codes produced by the analyzer, extending the E001–E003
// codes of ast.ValidateDiags (see docs/ANALYSIS.md for the table).
const (
	// CodeNoDialect: no dialect of the family admits the program.
	CodeNoDialect = "E004"
	// CodeNotStratifiable: recursion through negation in a Datalog¬
	// program (the stratified engine cannot run it).
	CodeNotStratifiable = "W001"
	// CodeNonTermination: an unguarded derive/retract flip-flop;
	// noninflationary evaluation may not terminate.
	CodeNonTermination = "W002"
	// CodeUnderivable: a derived predicate none of whose rules can
	// ever fire.
	CodeUnderivable = "W003"
	// CodeProgramClass: the inferred dialect and recommended
	// semantics (the report summary as a diagnostic).
	CodeProgramClass = "I001"
	// CodeRejection: why a stricter dialect rejects the program.
	CodeRejection = "I002"
	// CodeUnused: a derived predicate never read by any body
	// (possibly the answer relation).
	CodeUnused = "I003"
	// CodeOrderedCounter: the Theorem 4.8 counter shape — a guarded
	// derive/retract pair whose stages are bounded by a sentinel.
	CodeOrderedCounter = "I004"
)

// Rejection records why one stricter dialect does not admit the
// program: the first violation, with its rule and position.
type Rejection struct {
	Dialect ast.Dialect `json:"dialect"`
	Pos     ast.Pos     `json:"pos"`
	Reason  string      `json:"reason"`
}

// Report is the analyzer's result. Diags carries every finding
// (including the report summary itself as an I001 info); the
// remaining fields are the machine-readable classification.
type Report struct {
	// Dialect is the minimal admitting dialect (DialectUnknown when
	// none admits the program).
	Dialect ast.Dialect `json:"dialect"`
	// Semantics is the recommended engine's canonical -semantics
	// name, empty when no engine can run the program.
	Semantics string `json:"semantics,omitempty"`
	// Deterministic reports whether the recommended semantics is
	// deterministic (false for the N-Datalog engines).
	Deterministic bool `json:"deterministic"`
	// Stratifiable reports whether the dependency graph has no cycle
	// through negation.
	Stratifiable bool `json:"stratifiable"`
	// EDB and IDB are the extensional/intensional relation names.
	EDB []string `json:"edb,omitempty"`
	IDB []string `json:"idb,omitempty"`
	// Rejections explains, for each dialect stricter than Dialect,
	// why it does not admit the program.
	Rejections []Rejection `json:"rejections,omitempty"`
	// Diags are all findings in deterministic order.
	Diags ast.Diagnostics `json:"diagnostics"`
}

// Options configures an analysis run.
type Options struct {
	// Tracer receives analyze span events (may be nil).
	Tracer trace.Tracer
}

// Analyze runs every pass over p. It never fails: problems are
// diagnostics, and the zero ast.Pos marks findings on hand-built
// rules.
func Analyze(p *ast.Program, opt *Options) *Report {
	var tr trace.Tracer
	if opt != nil {
		tr = opt.Tracer
	}
	start := time.Now()
	if tr != nil {
		tr.Emit(trace.Event{Ev: trace.EvBegin, Span: trace.SpanAnalyze, Engine: "analyze"})
	}
	pass := func(name string, t0 time.Time) {
		if tr != nil {
			tr.Emit(trace.Event{Ev: trace.EvSpan, Span: trace.SpanAnalyze, Name: name, DurNS: time.Since(t0).Nanoseconds()})
		}
	}

	r := &Report{Dialect: ast.DialectUnknown}

	t0 := time.Now()
	ix := ast.NewIndex(p)
	r.Diags = ix.ArityDiags()
	pass("validate", t0)

	t0 = time.Now()
	inferDialect(ix, r)
	pass("dialect", t0)

	t0 = time.Now()
	g := stratify.NewGraph(ix)
	cycle := g.NegativeCycle()
	r.Stratifiable = cycle == nil
	r.EDB, r.IDB = ix.EDB(), ix.IDB()
	if cycle != nil && r.Dialect == ast.DialectDatalogNeg {
		r.Diags = append(r.Diags, negCycleDiag(cycle))
	}
	r.Diags = append(r.Diags, graphDiags(ix)...)
	pass("depgraph", t0)

	t0 = time.Now()
	r.Diags = append(r.Diags, optpass.Opportunities(ix, g)...)
	pass("opportunities", t0)

	t0 = time.Now()
	r.Diags = append(r.Diags, terminationDiags(ix)...)
	pass("termination", t0)

	r.Semantics, r.Deterministic = recommend(ix, r)
	if r.Dialect != ast.DialectUnknown {
		r.Diags = append(r.Diags, classDiag(r))
	}
	r.Diags.Sort()

	if tr != nil {
		tr.Emit(trace.Event{Ev: trace.EvEnd, Span: trace.SpanAnalyze, Engine: "analyze", DurNS: time.Since(start).Nanoseconds()})
	}
	return r
}

// inferDialect picks the first dialect of ast.Dialects that admits
// every rule — a test of the index's feature mask, no diagnostics
// involved — records a Rejection per stricter dialect from that
// dialect's first violation alone, and reports E004 plus the least-bad
// dialect's violations when nothing admits the program. Arity
// conflicts are dialect-independent and stay out of it.
func inferDialect(ix *ast.Index, r *Report) {
	for _, d := range ast.Dialects {
		if ix.Admits(d) {
			r.Dialect = d
			break
		}
	}
	if r.Dialect == ast.DialectUnknown {
		// Show the violations of the least-bad candidate so the E004
		// is actionable.
		var best ast.Diagnostics
		closest := ast.Dialects[0]
		for i, d := range ast.Dialects {
			if ds := ix.DialectDiags(d); i == 0 || len(ds) < len(best) {
				closest, best = d, ds
			}
		}
		r.Diags = append(r.Diags, best...)
		r.Diags = append(r.Diags, ast.Diagnostic{
			Severity: ast.SevError,
			Code:     CodeNoDialect,
			Message:  fmt.Sprintf("no dialect of the family admits this program (closest: %s)", closest),
		})
		return
	}
	for _, d := range ast.Dialects {
		if d == r.Dialect {
			break
		}
		if !r.Dialect.Includes(d) {
			continue // incomparable, not stricter
		}
		first, _ := ix.FirstViolation(d)
		r.Rejections = append(r.Rejections, Rejection{Dialect: d, Pos: first.Pos, Reason: first.Message})
		r.Diags = append(r.Diags, ast.Diagnostic{
			Pos:      first.Pos,
			Severity: ast.SevInfo,
			Code:     CodeRejection,
			Message:  fmt.Sprintf("not %s: %s", d, first.Message),
		})
	}
}

// negCycleDiag renders a negative-cycle witness path: the finding the
// stratified engine's "recursion through negation" error becomes,
// with one Related entry per edge of the cycle.
func negCycleDiag(cycle []stratify.Edge) ast.Diagnostic {
	var path strings.Builder
	path.WriteString(cycle[0].From)
	for _, e := range cycle {
		if e.Negative {
			path.WriteString(" ¬→ ")
		} else {
			path.WriteString(" → ")
		}
		path.WriteString(e.To)
	}
	d := ast.Diagnostic{
		Pos:      cycle[0].Pos,
		Severity: ast.SevWarn,
		Code:     CodeNotStratifiable,
		Message:  fmt.Sprintf("not stratifiable: recursion through negation (%s); the stratified engine rejects this program, use well-founded semantics", path.String()),
	}
	for _, e := range cycle {
		dep := "depends on"
		if e.Negative {
			dep = "negatively depends on"
		}
		d.Related = append(d.Related, ast.Related{
			Pos:     e.Pos,
			Message: fmt.Sprintf("%s %s %s (rule %d)", e.From, dep, e.To, e.Rule+1),
		})
	}
	return d
}

// graphDiags flags the derived predicates never read by any body
// (I003: the intended answer relation, or dead rules) and those that
// can never hold a fact (W003, ast.Index.Underivable with positive
// atoms under ∀ counted).
func graphDiags(ix *ast.Index) ast.Diagnostics {
	var ds ast.Diagnostics
	under := ix.Underivable(true)
	for id := range ix.Preds {
		pi := &ix.Preds[id]
		n := pi.Name
		if !pi.IDB() {
			continue
		}
		if len(pi.Readers) == 0 {
			ds = append(ds, ast.Diagnostic{
				Pos:      pi.HeadPos,
				Severity: ast.SevInfo,
				Code:     CodeUnused,
				Message:  fmt.Sprintf("%s is derived but never read (the answer relation, or dead rules)", n),
			})
		}
		if under[id] {
			ds = append(ds, ast.Diagnostic{
				Pos:      pi.HeadPos,
				Severity: ast.SevWarn,
				Code:     CodeUnderivable,
				Message:  fmt.Sprintf("%s can never be derived: every rule for it depends on an underivable relation", n),
			})
		}
	}
	return ds
}

// terminationDiags implements the flip-flop heuristic of Section 4.2
// vs Theorem 4.8: a predicate that is both derived and retracted
// warns (W002) unless every derive/retract rule is guarded by a
// negated monotone sentinel — a relation that is derived but never
// retracted, so once it holds, the flip-flop shuts off for good.
// That guarded shape is the ordered-database counter (I004, info).
func terminationDiags(ix *ast.Index) ast.Diagnostics {
	var ds ast.Diagnostics
	for id := range ix.Preds {
		pi := &ix.Preds[id]
		n := pi.Name
		if len(pi.Derive) == 0 || len(pi.Retract) == 0 {
			continue
		}
		rules := ix.Prog.Rules
		retractPos, derivePos := rules[pi.Retract[0]].SrcPos, rules[pi.Derive[0]].SrcPos
		if sentinel := commonSentinel(ix, int32(id)); sentinel != "" {
			ds = append(ds, ast.Diagnostic{
				Pos:      retractPos,
				Severity: ast.SevInfo,
				Code:     CodeOrderedCounter,
				Message:  fmt.Sprintf("%s is alternately derived and retracted under sentinel guard !%s (ordered-database counter, Theorem 4.8): stages are bounded, evaluation terminates once %s holds", n, sentinel, sentinel),
				Related:  []ast.Related{{Pos: derivePos, Message: fmt.Sprintf("%s derived here", n)}},
			})
			continue
		}
		ds = append(ds, ast.Diagnostic{
			Pos:      retractPos,
			Severity: ast.SevWarn,
			Code:     CodeNonTermination,
			Message:  fmt.Sprintf("%s is alternately derived and retracted with no stopping guard (the Section 4.2 flip-flop): noninflationary evaluation may not terminate", n),
			Related:  []ast.Related{{Pos: derivePos, Message: fmt.Sprintf("%s derived here", n)}},
		})
	}
	return ds
}

// commonSentinel returns the first predicate by name S (≠ n) that
// every rule deriving or retracting n guards with a negated body
// atom, where S itself is never retracted — or "" when no such
// sentinel exists. Any sentinel guards the first deriving rule, so
// that rule's guards are the candidates.
func commonSentinel(ix *ast.Index, n int32) string {
	guards := func(ri, s int32) bool {
		for _, o := range ix.Body(int(ri)) {
			if o.Pred == s && o.Lit.Neg {
				return true
			}
		}
		return false
	}
	pi, best := &ix.Preds[n], ""
candidates:
	for _, c := range ix.Body(int(pi.Derive[0])) {
		name := ix.Preds[c.Pred].Name
		if !c.Lit.Neg || c.Pred == n || len(ix.Preds[c.Pred].Retract) > 0 || (best != "" && name >= best) {
			continue
		}
		for _, rules := range [2][]int32{pi.Derive[1:], pi.Retract} {
			for _, ri := range rules {
				if !guards(ri, c.Pred) {
					continue candidates
				}
			}
		}
		best = name
	}
	return best
}

// recommend picks the cheapest sound engine for the inferred class
// (the names are the facade's canonical -semantics spellings).
func recommend(ix *ast.Index, r *Report) (string, bool) {
	switch r.Dialect {
	case ast.DialectDatalog:
		return "minimal-model", true
	case ast.DialectDatalogNeg:
		if negationOnInputsOnly(ix) {
			return "semi-positive", true
		}
		if r.Stratifiable {
			return "stratified", true
		}
		return "well-founded", true
	case ast.DialectDatalogNegNeg:
		return "noninflationary", true
	case ast.DialectDatalogNew:
		return "invent", true
	case ast.DialectNDatalogNeg, ast.DialectNDatalogNegNeg:
		return "ndatalog", false
	case ast.DialectNDatalogBot:
		return "ndatalog-bottom", false
	case ast.DialectNDatalogAll:
		return "ndatalog-forall", false
	case ast.DialectNDatalogNew:
		return "ndatalog-new", false
	default:
		return "", false
	}
}

// negationOnInputsOnly reports whether every negated body atom is on
// an input-fed relation — the semi-positive class of Theorem 4.7.
func negationOnInputsOnly(ix *ast.Index) bool {
	for ri := range ix.Rules {
		for _, o := range ix.Body(ri) {
			if o.Lit.Neg && len(ix.Preds[o.Pred].Derive) > 0 {
				return false
			}
		}
	}
	return true
}

// classDiag renders the report summary as the I001 info diagnostic.
func classDiag(r *Report) ast.Diagnostic {
	var b strings.Builder
	fmt.Fprintf(&b, "dialect: %s", r.Dialect)
	if r.Dialect == ast.DialectDatalogNeg {
		if r.Stratifiable {
			b.WriteString(" (stratifiable)")
		} else {
			b.WriteString(" (not stratifiable)")
		}
	}
	if r.Semantics != "" {
		fmt.Fprintf(&b, "; recommended semantics: %s", r.Semantics)
		if !r.Deterministic {
			b.WriteString(" (nondeterministic)")
		}
	}
	return ast.Diagnostic{Severity: ast.SevInfo, Code: CodeProgramClass, Message: b.String()}
}
