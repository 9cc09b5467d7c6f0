// Package while implements the imperative while and fixpoint
// languages of Section 2: relation variables, FO assignments, and the
// "while change do" looping construct.
//
//   - fixpoint programs use only cumulative assignments (R += φ),
//     which guarantees termination in polynomial time;
//   - while programs also allow destructive assignment (R := φ) and
//     may diverge; the interpreter detects state cycles and reports
//     ErrNonTerminating.
//
// Following the standard convention (Abiteboul–Hull–Vianu), the
// active domain is fixed at program start: adom(program constants,
// input). Destructive assignments may remove values from relations,
// but quantifiers and negations keep ranging over the initial domain.
package while

import (
	"errors"
	"fmt"

	"unchained/internal/engine"
	"unchained/internal/eval"
	"unchained/internal/fo"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// ErrNonTerminating reports a while program whose state sequence
// revisits a previous state at the loop head.
var ErrNonTerminating = errors.New("while: program does not terminate (state cycle)")

// ErrIterLimit reports exceeding the iteration bound (Options.MaxStages,
// default 1<<20).
var ErrIterLimit = errors.New("while: iteration limit exceeded")

// Stmt is a program statement.
type Stmt interface{ stmt() }

// Assign evaluates an FO formula and stores the result in a relation
// variable: destructive (R := φ) or cumulative (R += φ). Vars fixes
// the output column order and must list exactly the free variables
// of F.
type Assign struct {
	Rel        string
	Vars       []string
	F          fo.Formula
	Cumulative bool
}

func (Assign) stmt() {}

// Loop is "while change do body": the body is iterated until an
// iteration leaves every relation unchanged.
type Loop struct {
	Body []Stmt
}

func (Loop) stmt() {}

// Program is a sequence of statements.
type Program struct {
	Stmts []Stmt
	// Consts lists constants used by formulas, to be included in the
	// active domain.
	Consts []value.Value
}

// Fixpoint reports whether the program is in the fixpoint fragment:
// every assignment, including inside loops, is cumulative.
func (p *Program) Fixpoint() bool {
	var ok func(ss []Stmt) bool
	ok = func(ss []Stmt) bool {
		for _, s := range ss {
			switch st := s.(type) {
			case Assign:
				if !st.Cumulative {
					return false
				}
			case Loop:
				if !ok(st.Body) {
					return false
				}
			}
		}
		return true
	}
	return ok(p.Stmts)
}

// Options is the unified engine configuration (see engine.Options).
// The interpreter honors Ctx (deadline/cancellation between loop-body
// iterations), MaxStages (the iteration bound, default 1<<20) and
// Stats: each assignment counts as a firing and each loop-body
// iteration as a stage. A nil *Options is valid.
type Options = engine.Options

// Result is the outcome of running a program: the final instance (input
// relations plus program variables) and the loop-body iterations
// executed, as Stages.
type Result = engine.Result

type interp struct {
	adom  []value.Value
	limit int
	iters int
	col   *stats.Collector
	opt   *Options
}

// Run executes the program on the input (which is not mutated). When
// the Options context is canceled or its deadline passes, Run returns
// the typed engine error together with the partially-computed state.
func Run(p *Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	col := opt.Collector()
	col.Reset("while", 0, nil)
	state := in.SnapshotWith(col.Cow())
	it := &interp{
		adom:  eval.ActiveDomain(u, p.Consts, in),
		limit: opt.StageLimit(1 << 20),
		col:   col,
		opt:   opt,
	}
	err := it.seq(p.Stmts, state)
	return engine.Finish(state, it.iters, col, err)
}

func (it *interp) seq(ss []Stmt, state *tuple.Instance) error {
	for _, s := range ss {
		switch st := s.(type) {
		case Assign:
			if err := it.assign(st, state); err != nil {
				return err
			}
		case Loop:
			if err := it.loop(st, state); err != nil {
				return err
			}
		default:
			return fmt.Errorf("while: unknown statement %T", s)
		}
	}
	return nil
}

func (it *interp) assign(a Assign, state *tuple.Instance) error {
	// One assignment is one "firing"; the Facts bookkeeping only runs
	// with a live collector.
	before := 0
	if it.col.Enabled() {
		before = state.Facts()
	}
	rel, err := fo.Eval(a.F, state, it.adom, a.Vars)
	if err != nil {
		return fmt.Errorf("while: assignment to %s: %w", a.Rel, err)
	}
	if a.Cumulative {
		state.Ensure(a.Rel, rel.Arity()).UnionInPlace(rel)
		if it.col.Enabled() {
			it.col.Fired(-1, 1, uint64(state.Facts()-before), 0)
		}
		return nil
	}
	// Destructive: replace the relation wholesale.
	cur := state.Ensure(a.Rel, rel.Arity())
	var drop []tuple.Tuple
	cur.Each(func(t tuple.Tuple) bool {
		if !rel.Contains(t) {
			drop = append(drop, t.Clone())
		}
		return true
	})
	for _, t := range drop {
		cur.Delete(t)
	}
	cur.UnionInPlace(rel)
	if it.col.Enabled() {
		it.col.Retracted(len(drop))
		it.col.Fired(-1, 1, uint64(state.Facts()-before+len(drop)), 0)
	}
	return nil
}

func (it *interp) loop(l Loop, state *tuple.Instance) error {
	// Brent's cycle detection over loop-head states gives exact
	// non-termination detection for the deterministic body.
	cycle := engine.NewCycle(state)
	_, err := it.opt.Loop(it.col, 0, nil, func(int) (engine.Outcome, error) {
		before := state.Clone()
		if err := it.seq(l.Body, state); err != nil {
			return engine.Outcome{}, err
		}
		var out engine.Outcome
		if it.col.Enabled() {
			out.Delta = state.Facts() - before.Facts()
		}
		// The bound is on the program's total iterations, across nested
		// and successive loops, so it is checked here against it.iters
		// and not by each loop's own driver.
		it.iters++
		switch {
		case it.iters >= it.limit:
			out.Err = fmt.Errorf("%w (after %d iterations)", ErrIterLimit, it.iters)
		case state.Equal(before):
			out.Status = engine.Last // no change: loop ends
		default:
			if n := cycle.Visit(state); n > 0 {
				out.Err = fmt.Errorf("%w (cycle of length %d)", ErrNonTerminating, n)
			}
		}
		return out, nil
	})
	return err
}
