// Package opt implements the static program optimizer: a multi-pass,
// analysis-driven source-to-source rewrite pipeline over ast.Program.
// Where internal/analyze only *reports* facts about a program, opt
// *acts* on them, rewriting rules before any engine runs so that every
// engine benefits at once.
//
// The passes, in pipeline order (see docs/OPTIMIZER.md for the full
// catalog with preservation proofs):
//
//   - constprop: constant propagation and eq folding inside each rule
//     body — equality literals binding a variable to a constant (or to
//     another variable) are substituted through the rule, ground
//     equalities are folded to true/false, duplicate body literals are
//     dropped. Stage-exact for every engine.
//   - dead: rule elimination — rules whose body contains a ground
//     false literal (unsat), rules reading predicates that are
//     underivable and assumed to carry no input facts, and rules
//     unreachable from the declared output roots. Stage-exact on the
//     fragment the caller observes.
//   - subsume: θ-subsumption-based duplicate/redundant-rule removal —
//     a rule whose head matches and whose body maps into another
//     rule's body under a substitution makes that other rule
//     redundant at every stage.
//   - inline: non-recursive, single-rule, negation-free predicates
//     are expanded into their (positive) callers. This changes the
//     *stage* at which facts appear, so it is only legal for
//     semantics whose result is stage-timing independent and only
//     when no stage bound is in force; callers gate it with
//     Options.NoInline.
//
// No pass orders a rule body: the join order is the planner's decision
// (internal/eval), taken at enumeration time against live
// cardinalities.
//
// Every rewrite is recorded as a Rewrite (for -explain narration) and
// as a positioned, analyze-style diagnostic with a stable O-code: each
// pass has one code, so the diagnostics are made from the rewrites.
//
// # Assumptions and fallback
//
// This repository allows input facts on IDB predicates. Two rewrites
// are only sound when specific predicates carry no input facts:
// underivable-rule elimination (an "underivable" predicate with input
// facts is very much derivable) and inlining (the inlined body only
// accounts for the defining rule, not for input facts). Rather than
// forbid these rewrites, Optimize records the predicates whose
// emptiness it assumed in Result.RequiresEmptyInput; callers must
// check the actual input instance against that list and fall back to
// the unoptimized program if any listed predicate has facts.
// Optimize itself never sees the instance — it is memoized per
// program (the daemon caches one Result per sha256 program entry).
//
// Rewrite passes never mutate the input program: rules and literal
// slices are copied on write (the astmut vet analyzer enforces this
// mechanically for every package).
package opt

import (
	"fmt"
	"sort"

	"unchained/internal/ast"
	"unchained/internal/stratify"
	"unchained/internal/value"
)

// Level turns the pipeline off or on.
type Level int

// The optimization levels, mirroring the CLI's -O flag.
const (
	// O0 disables the optimizer entirely.
	O0 Level = 0
	// O2 runs every pass the Options admit: inlining unless NoInline
	// or NoAssume, reachability elimination when Roots are declared.
	O2 Level = 2
)

// Diagnostic codes emitted by the passes. They extend the analyzer's
// code space (E/W/I) with an O-prefixed family so machine consumers
// can tell rewrites from observations.
const (
	CodeDeadRule    = "O001" // rule removed (unsat, underivable input, or unreachable)
	CodeInlined     = "O002" // predicate inlined into a call site
	CodeConstProp   = "O003" // constants propagated / literals folded in a rule
	CodeSubsumed    = "O004" // rule subsumed by another rule
	CodeDomainGuard = "O006" // rewrites discarded: active-domain-sensitive program
)

// Options configures a pipeline run.
type Options struct {
	// Level O0 returns the program unchanged; O2 runs the pipeline.
	Level Level

	// Roots are the output predicates the caller will read (query
	// predicate, -answer list). When non-empty, rules that cannot
	// reach any root are eliminated; the caller thereby promises not
	// to observe any other predicate.
	Roots []string

	// NoInline disables the inlining pass. Callers must set it for
	// stage-timing-sensitive semantics (inflationary, noninflationary,
	// invent) and whenever a MaxStages bound is in force: inlining
	// makes facts appear at earlier stages.
	NoInline bool

	// NoAssume disables every rewrite that assumes some predicate
	// carries no input facts (underivable elimination, inlining).
	// Incremental maintenance sets it: future deltas may insert facts
	// on any predicate, so the assumption is uncheckable up front.
	NoAssume bool
}

// maxPasses bounds the rewrite fixpoint iterations.
const maxPasses = 4

// Rewrite records one applied transformation, in application order,
// for -explain narration.
type Rewrite struct {
	Pass string  `json:"pass"`
	Pos  ast.Pos `json:"pos"`
	Note string  `json:"note"`
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Program is the optimized program; it aliases the input program
	// when nothing changed.
	Program *ast.Program
	// Changed reports whether any rewrite fired.
	Changed bool
	// Passes counts pipeline iterations executed.
	Passes int
	// Rewrites lists every applied rewrite in order.
	Rewrites []Rewrite
	// RulesRemoved counts rules eliminated by dead/subsume passes.
	RulesRemoved int
	// RequiresEmptyInput lists predicates (sorted) that the rewrites
	// assumed carry no input facts. Callers must verify the actual
	// instance and fall back to the original program on violation.
	RequiresEmptyInput []string
	// Diags carries one positioned info diagnostic per rewrite.
	Diags ast.Diagnostics
}

// note records a rewrite; Optimize derives its twin diagnostic.
func (res *Result) note(pass string, pos ast.Pos, msg string) {
	res.Rewrites = append(res.Rewrites, Rewrite{Pass: pass, Pos: pos, Note: msg})
}

// passCode is the diagnostic code of a rewrite pass.
func passCode(pass string) string {
	switch pass {
	case "constprop":
		return CodeConstProp
	case "dead":
		return CodeDeadRule
	case "subsume":
		return CodeSubsumed
	}
	return CodeInlined
}

// Optimize runs the rewrite pipeline on p and returns the result. The
// input program is never mutated; u is used only to render constants
// in notes and diagnostics. A nil o means O2 with defaults.
func Optimize(p *ast.Program, u *value.Universe, o *Options) *Result {
	if o == nil {
		o = &Options{Level: O2}
	}
	res := &Result{Program: p}
	if p == nil || len(p.Rules) == 0 || o.Level <= O0 {
		return res
	}
	// The rule index every pass reads, of the current program. A pass
	// that rewrites the program hands back the next one's index,
	// derived from this one (ast.Index.Update); orig stays the input's.
	orig := ast.NewIndex(p)
	ix := orig
	assumed := map[string]bool{} // preds assumed to have no input facts

	changed := false
	step := func(next *ast.Index) {
		if next != ix {
			ix, changed = next, true
		}
	}
	for i := 0; i < maxPasses; i++ {
		res.Passes++
		changed = false
		step(constprop(ix, u, res))
		step(deadUnsat(ix, u, res))
		if !o.NoAssume {
			step(deadUnderivable(ix, res, assumed))
		}
		step(subsume(ix, res))
		if !o.NoInline && !o.NoAssume {
			step(inline(ix, res, assumed))
		}
		if len(o.Roots) > 0 {
			step(deadUnreachable(ix, o.Roots, res))
		}
		if !changed {
			break
		}
		res.Changed = true
	}

	// A removed rule takes its constants with it, shrinking the
	// active domain adom(P, K). For programs that valuate some
	// variable by enumerating that domain (unsafe negation, unbound
	// equality or head variables, ∀-literals), the constant set is
	// semantically observable, so any rewrite sequence that changed it
	// is discarded wholesale: the original program is returned with a
	// single diagnostic recording why.
	if res.Changed && !sameConstSet(p, ix.Prog) && domainSensitive(p) {
		ix = orig
		res.Changed = false
		res.Rewrites = nil
		res.RulesRemoved = 0
		res.Diags = ast.Diagnostics{{
			Severity: ast.SevInfo, Code: CodeDomainGuard,
			Message: "optimization suppressed: the program enumerates the active domain (unsafe negation or ∀), and the rewrites would change its constant set",
		}}
		for q := range assumed {
			delete(assumed, q)
		}
	}

	// Removing a predicate's last deriving rule takes it out of the
	// IDB, which changes which relations the default answer
	// restriction prints — unless the caller pinned explicit roots,
	// in which case unreachable predicates are unobservable by
	// contract. Guard the difference with an emptiness assumption.
	if res.Changed {
		var reach []bool
		if len(o.Roots) > 0 {
			reach = reachableFrom(orig, o.Roots)
		}
		for id := range orig.Preds {
			q := &orig.Preds[id]
			if !q.IDB() {
				continue
			}
			if fid, ok := ix.ID(q.Name); ok && ix.Preds[fid].IDB() {
				continue
			}
			if reach != nil && !reach[id] {
				continue // unobservable: caller reads only the roots
			}
			assumed[q.Name] = true
		}
	}

	if len(res.Rewrites) > 0 {
		res.Diags = make(ast.Diagnostics, len(res.Rewrites))
		for i, rw := range res.Rewrites {
			res.Diags[i] = ast.Diagnostic{Pos: rw.Pos, Severity: ast.SevInfo, Code: passCode(rw.Pass), Message: rw.Note}
		}
	}

	res.Program = ix.Prog
	res.RequiresEmptyInput = sortedPreds(assumed)
	res.Diags.Sort()
	return res
}

// rewriteRules returns the index of ix.Prog with every rule that
// rewrite changes replaced, copy-on-write, derived from ix; ix itself
// when no rule changes.
func rewriteRules(ix *ast.Index, rewrite func(ri int) (ast.Rule, bool)) *ast.Index {
	var out []ast.Rule
	var from []int32 // as ast.Index.Update takes it: -1 marks a replaced rule
	for ri := range ix.Prog.Rules {
		r, ok := rewrite(ri)
		if !ok {
			continue
		}
		if out == nil {
			out, from = append(out, ix.Prog.Rules...), make([]int32, len(ix.Prog.Rules))
			for i := range from {
				from[i] = int32(i)
			}
		}
		out[ri], from[ri] = r, -1
	}
	if out == nil {
		return ix
	}
	return ix.Update(&ast.Program{Rules: out}, from)
}

// reachableFrom marks, by predicate id, the predicates reachable from
// roots in the dependency graph (head depends on body, either
// polarity). A rule with a ⊥ head constrains global consistency, so
// its body predicates are always reachable.
func reachableFrom(ix *ast.Index, roots []string) []bool {
	reach := make([]bool, len(ix.Preds))
	var queue []int32
	pushBody := func(ri int) {
		for _, o := range ix.Body(ri) {
			if !reach[o.Pred] {
				reach[o.Pred] = true
				queue = append(queue, o.Pred)
			}
		}
	}
	for _, r := range roots {
		if id, ok := ix.ID(r); ok && !reach[id] {
			reach[id] = true
			queue = append(queue, id)
		}
	}
	for ri := range ix.Rules {
		if ix.Rules[ri].Mask&ast.FeatBottom != 0 {
			pushBody(ri)
		}
	}
	for len(queue) > 0 {
		q := &ix.Preds[queue[len(queue)-1]]
		queue = queue[:len(queue)-1]
		for _, rules := range [2][]int32{q.Derive, q.Retract} {
			for _, ri := range rules {
				pushBody(int(ri))
			}
		}
	}
	return reach
}

func sortedPreds(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// Opportunities reports optimizer opportunities as analyzer-style
// info diagnostics without rewriting anything. It backs the analyzer
// codes I005 (inlinable predicate) and I006 (dead rule: the
// assumption-free cases, unsatisfiable body and subsumption; the
// analyzer's W003 already covers underivable predicates). It needs no
// universe: messages name predicates and positions only.
func Opportunities(ix *ast.Index, g *stratify.Graph) ast.Diagnostics {
	var diags ast.Diagnostics
	rules := ix.Prog.Rules
	for _, c := range inlineCandidates(ix, g) {
		if c.callSites == 0 {
			continue
		}
		diags = append(diags, ast.Diagnostic{
			Pos:      c.rule.SrcPos,
			Severity: ast.SevInfo,
			Code:     "I005",
			Message: fmt.Sprintf("predicate %s is inlinable: single non-recursive negation-free rule with %d call site(s)",
				c.pred, c.callSites),
		})
	}

	ok := subsumables(ix)
	var m matcher
	for ri := range rules {
		r := &rules[ri]
		if _, ok := groundFalseLiteral(r); ok {
			diags = append(diags, ast.Diagnostic{
				Pos:      r.SrcPos,
				Severity: ast.SevInfo,
				Code:     "I006",
				Message:  fmt.Sprintf("rule for %s is dead: its body contains a ground-false equality", headPred(r)),
			})
			continue
		}
		if !ok[ri] {
			continue
		}
		// The first subsumer in source order; of two variants the
		// earlier one stands, as in the subsume pass.
		for _, rj := range ix.Preds[ix.Heads(ri)[0].Pred].Derive {
			by := &rules[rj]
			if int(rj) == ri || !ok[rj] || !m.subsumes(by, r) || (int(rj) > ri && m.subsumes(r, by)) {
				continue
			}
			d := ast.Diagnostic{
				Pos:      r.SrcPos,
				Severity: ast.SevInfo,
				Code:     "I006",
				Message:  fmt.Sprintf("rule is dead: subsumed by the rule for %s at %s", headPred(by), by.SrcPos),
			}
			if by.SrcPos.IsValid() {
				d.Related = []ast.Related{{Pos: by.SrcPos, Message: "subsuming rule"}}
			}
			diags = append(diags, d)
			break
		}
	}

	diags.Sort()
	return diags
}

func headPred(r *ast.Rule) string {
	for _, h := range r.Head {
		if h.Kind == ast.LitAtom {
			return h.Atom.Pred
		}
	}
	return "?"
}
