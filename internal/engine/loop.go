package engine

import (
	"unchained/internal/stats"
	"unchained/internal/tuple"
)

// Status is a step's verdict on the pass it just ran. The engines
// count stages under two conventions, both pinned by goldens; a step
// picks one by how it reports its last pass.
type Status uint8

const (
	// More: the pass changed the instance. It counts as a stage and
	// the loop goes on.
	More Status = iota
	// Last: the pass counts as a stage and ends the loop. This is the
	// convention of the semi-naive engines (the round that yields an
	// empty delta is a round) and of the while language (the iteration
	// that changes nothing is an iteration).
	Last
	// Confirm: the pass changed nothing and is not a stage. This is
	// the convention of the forward-chaining engines, whose stage count
	// excludes the final no-change confirmation pass. The pass's span
	// stays open for Collector.Summary to close with Confirm set; its
	// firings still land in the totals.
	Confirm
)

// Outcome is what a step reports for one pass.
type Outcome struct {
	Status Status
	// Delta is the net instance change recorded with the stage.
	Delta int
	// State, if non-nil, is what Options.Trace is shown for the stage.
	State *tuple.Instance
	// Err, if non-nil, ends the loop once the stage has been counted
	// and recorded: a failure found in the state the stage produced (a
	// revisited state, an exhausted budget), as opposed to a failure
	// of the pass itself, which is the step's error result.
	Err error
}

// Step runs the pass that will be stage n (1-based) if it counts.
type Step func(n int) (Outcome, error)

// Loop is the stage-loop driver every engine runs on: it repeats step
// until step reports Last or Confirm, fails, or is stopped from
// outside. Loop owns the whole protocol around the step:
//
//   - the options are validated before anything runs
//     (ErrInvalidOptions);
//   - the context is polled before every pass, and a done context ends
//     the loop with ErrCanceled/ErrDeadline stamped with the number of
//     stages completed;
//   - the pass is bracketed by col.BeginStage and, when it counts,
//     col.EndStage(Delta); a nil col records nothing, which suits loops
//     that are polled but are not stages (an exhaustive state search);
//   - a counted stage is shown to Options.Trace when the step hands
//     over its State;
//   - after a counted stage that is not the Last, reaching limit ends
//     the loop with limitErr(stages); limit <= 0 means unbounded.
//
// It returns the number of counted stages together with the error, so
// the engine can attach its partial progress to an interruption
// (IsInterrupt).
func (o *Options) Loop(col *stats.Collector, limit int, limitErr func(stages int) error, step Step) (int, error) {
	return o.ChooseLoop(col, limit, limitErr, nil, step)
}

// ChooseLoop is Loop for the engines that fire one instantiation per
// stage (a sampled nondeterministic run, an ECA cascade): choose runs
// after the poll and before the stage opens, picks what step will fire
// and reports whether there was anything to pick. When there was not,
// the loop ends with no stage open.
func (o *Options) ChooseLoop(col *stats.Collector, limit int, limitErr func(stages int) error, choose func() bool, step Step) (int, error) {
	if err := o.Validate(); err != nil {
		return 0, err
	}
	stages := 0
	for {
		if err := o.interrupted(stages); err != nil {
			return stages, err
		}
		if choose != nil && !choose() {
			return stages, nil
		}
		col.BeginStage()
		out, err := step(stages + 1)
		if err != nil || out.Status == Confirm {
			return stages, err
		}
		stages++
		col.EndStage(out.Delta)
		if out.State != nil && o != nil && o.Trace != nil {
			o.Trace(stages, out.State)
		}
		switch {
		case out.Err != nil:
			return stages, out.Err
		case out.Status == Last:
			return stages, nil
		case limit > 0 && stages >= limit:
			return stages, limitErr(stages)
		}
	}
}

// Cycle is Brent's cycle detector over the instance states of a
// deterministic stage sequence. The current state is compared with a
// saved one that is refreshed at power-of-two distances, so a
// repeating sequence is caught within a constant factor of its period
// for one Clone per doubling — exact non-termination detection for
// Datalog¬¬ and the while language.
type Cycle struct {
	saved      *tuple.Instance
	power, lam int
}

// NewCycle starts a detector at the sequence's first state.
func NewCycle(start *tuple.Instance) *Cycle {
	return &Cycle{saved: start.Clone(), power: 1}
}

// Visit records the next state of the sequence and returns the length
// of the cycle it closes, or 0 when it repeats nothing yet.
func (c *Cycle) Visit(cur *tuple.Instance) int {
	c.lam++
	if cur.Equal(c.saved) {
		return c.lam
	}
	if c.lam == c.power {
		c.saved = cur.Clone()
		c.power *= 2
		c.lam = 0
	}
	return 0
}
