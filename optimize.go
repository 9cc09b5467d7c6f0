// The optimizer facade: Session.Optimize and the WithOptimize
// evaluation option, thin wrappers over internal/opt (the static
// program optimizer). See docs/OPTIMIZER.md for the pass catalog and
// the preservation conditions the facade enforces here.
package unchained

import (
	"unchained/internal/opt"
)

// Re-exported optimizer types.
type (
	// OptLevel selects how aggressive the rewrite pipeline is
	// (mirrors the CLI -O flag).
	OptLevel = opt.Level
	// OptimizeResult is the pipeline outcome: the rewritten program,
	// the applied rewrites with positions and the emptiness assumptions.
	OptimizeResult = opt.Result
	// OptRewrite is one applied rewrite (for -explain narration).
	OptRewrite = opt.Rewrite
	// OptOptions is the full pipeline configuration (Session.Optimize
	// covers the common cases; use OptimizeFor for the rest).
	OptOptions = opt.Options
)

// The optimization levels.
const (
	// OptNone disables the optimizer.
	OptNone = opt.O0
	// Opt2 runs every rewrite the semantics, the stage bound and the
	// roots admit: constant propagation and folding, dead-rule
	// elimination, subsumption, inlining where OptInlineSafe, and
	// reachability elimination against declared roots.
	Opt2 = opt.O2
)

// WithOptimize runs the static optimizer at the given level before
// evaluation (EvalContext and QueryContext). The facade gates each
// pass by the preservation conditions of the selected semantics —
// inlining is disabled for stage-timing-sensitive semantics
// (inflationary, noninflationary, invent) and under WithMaxStages —
// and falls back to the unoptimized program when a rewrite's
// no-input-facts assumption fails against the actual instance.
// Nondeterministic runs (RunNondet/Effects) are never optimized:
// their computation trees key on concrete rule indices.
func WithOptimize(l OptLevel) Opt { return func(cfg *evalConfig) { cfg.optimize = l } }

// OptInlineSafe reports whether inlining preserves the result of an
// evaluation under sem with the stage bound maxStages (0 for none).
// Inlining makes facts appear at earlier stages. The result of a
// stage-independent semantics (minimal model, stratified,
// well-founded, semi-positive) does not depend on that, unless a stage
// bound cuts the run short; inflationary / noninflationary / invent
// programs can observe the shift (a negation evaluated at stage n sees
// different intermediate states). OptimizeFor and WithOptimize apply
// this gate themselves; it is exported for callers that memoize
// optimized programs (the daemon's parse cache) and must pick the
// variant up front.
func OptInlineSafe(sem Semantics, maxStages int) bool {
	if maxStages > 0 {
		return false
	}
	switch sem {
	case MinimalModel, Stratified, WellFounded, SemiPositive:
		return true
	}
	return false
}

// OptimizeFor runs the rewrite pipeline against a target semantics
// with explicit options. Timing-gated passes are forced off when the
// semantics requires it, whatever o says; o may be nil for defaults
// (level Opt2). The caller remains responsible for checking
// Result.RequiresEmptyInput against the instance it will evaluate —
// OptAssumptionsHold does that — and for setting NoInline when it
// will evaluate under a stage bound (!OptInlineSafe(sem, maxStages)).
func (s *Session) OptimizeFor(p *Program, sem Semantics, o *OptOptions) *OptimizeResult {
	var oo OptOptions
	if o != nil {
		oo = *o
	} else {
		oo.Level = Opt2
	}
	if !OptInlineSafe(sem, 0) {
		oo.NoInline = true
	}
	return opt.Optimize(p, s.U, &oo)
}

// Optimize runs the rewrite pipeline for the given semantics and
// level, with the given output roots (none meaning "every relation is
// observable"). The boolean reports whether Result.Program may be
// used in place of p against in: it is false when a rewrite assumed
// some predicate has no input facts and in violates that. The result
// always carries the rewrites and diagnostics either way.
func (s *Session) Optimize(p *Program, in *Instance, sem Semantics, level OptLevel, roots ...string) (*OptimizeResult, bool) {
	res := s.OptimizeFor(p, sem, &OptOptions{Level: level, Roots: roots})
	return res, OptAssumptionsHold(res, in)
}

// OptAssumptionsHold reports whether every predicate the rewrites
// assumed empty is in fact empty in in (a nil instance is empty).
func OptAssumptionsHold(res *OptimizeResult, in *Instance) bool {
	if res == nil || len(res.RequiresEmptyInput) == 0 || in == nil {
		return true
	}
	for _, q := range res.RequiresEmptyInput {
		if rel := in.Relation(q); rel != nil && !rel.Empty() {
			return false
		}
	}
	return true
}

// optimizeEval applies the WithOptimize configuration for an
// EvalContext-family call: run the pipeline gated for sem (and for
// the stage bound), verify the assumptions against in, and return the
// program to evaluate.
func (s *Session) optimizeEval(p *Program, in *Instance, sem Semantics, cfg *evalConfig) *Program {
	if cfg.optimize <= OptNone || p == nil {
		return p
	}
	o := &OptOptions{Level: cfg.optimize, Roots: cfg.optRoots, NoInline: !OptInlineSafe(sem, cfg.opt.MaxStages)}
	res := s.OptimizeFor(p, sem, o)
	if !res.Changed || !OptAssumptionsHold(res, in) {
		return p
	}
	return res.Program
}
