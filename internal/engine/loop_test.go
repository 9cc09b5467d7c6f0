package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"unchained/internal/stats"
	"unchained/internal/trace"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

var errLimit = errors.New("test: limit")

func limitErr(stages int) error { return fmt.Errorf("%w (after %d)", errLimit, stages) }

// script returns a step that replays the given outcomes, one per pass.
func script(outs ...Outcome) Step {
	return func(n int) (Outcome, error) {
		if n > len(outs) {
			return Outcome{}, fmt.Errorf("script exhausted at pass %d", n)
		}
		return outs[n-1], nil
	}
}

// stageEvents runs a scripted loop under a recording tracer and returns
// the counted stages plus the begin/end stage events of the stream,
// closed by Summary the way an engine closes its run.
func stageEvents(t *testing.T, o *Options, limit int, step Step) (int, error, []trace.Event) {
	t.Helper()
	rec := trace.NewRecorder(0)
	col := stats.New()
	col.SetTracer(rec)
	col.Reset("test", 0, nil)
	stages, err := o.Loop(col, limit, limitErr, step)
	if sum := col.Summary(); sum.Stages != stages {
		t.Errorf("collector counted %d stages, loop returned %d", sum.Stages, stages)
	}
	var evs []trace.Event
	for _, ev := range rec.Events() {
		if ev.Span == trace.SpanStage {
			evs = append(evs, ev)
		}
	}
	return stages, err, evs
}

// TestLoopConfirmConvention: the forward-chaining convention. The
// final no-change pass is bracketed but not counted; its span is closed
// by Summary with Confirm set.
func TestLoopConfirmConvention(t *testing.T) {
	stages, err, evs := stageEvents(t, nil, 0, script(Outcome{Delta: 3}, Outcome{Delta: 1}, Outcome{Status: Confirm}))
	if err != nil || stages != 2 {
		t.Fatalf("stages=%d err=%v, want 2 <nil>", stages, err)
	}
	if len(evs) != 6 {
		t.Fatalf("want 3 begin/end pairs, got %d events", len(evs))
	}
	for i, want := range []struct {
		ev      string
		stage   int
		delta   int64
		confirm bool
	}{
		{trace.EvBegin, 1, 0, false}, {trace.EvEnd, 1, 3, false},
		{trace.EvBegin, 2, 0, false}, {trace.EvEnd, 2, 1, false},
		{trace.EvBegin, 3, 0, false}, {trace.EvEnd, 3, 0, true},
	} {
		got := evs[i]
		if got.Ev != want.ev || got.Stage != want.stage || got.Delta != want.delta || got.Confirm != want.confirm {
			t.Errorf("event %d = %+v, want %+v", i, got, want)
		}
	}
}

// TestLoopLastConvention: the semi-naive/while convention. The last
// pass is a stage like the others; nothing is left for Summary to
// close.
func TestLoopLastConvention(t *testing.T) {
	stages, err, evs := stageEvents(t, nil, 0, script(Outcome{Delta: 3}, Outcome{Delta: 1}, Outcome{Status: Last}))
	if err != nil || stages != 3 {
		t.Fatalf("stages=%d err=%v, want 3 <nil>", stages, err)
	}
	if len(evs) != 6 {
		t.Fatalf("want 3 begin/end pairs, got %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.Confirm {
			t.Errorf("event %d: a counted last stage must not read as a confirmation pass", i)
		}
		if want := i/2 + 1; ev.Stage != want {
			t.Errorf("event %d: stage %d, want %d", i, ev.Stage, want)
		}
	}
}

// TestLoopLimit: the limit error fires after the stage that reaches
// the limit, not before, and only when the loop would go on.
func TestLoopLimit(t *testing.T) {
	passes := 0
	forever := func(int) (Outcome, error) { passes++; return Outcome{Delta: 1}, nil }
	stages, err, _ := stageEvents(t, nil, 4, forever)
	if !errors.Is(err, errLimit) || stages != 4 || passes != 4 {
		t.Fatalf("stages=%d passes=%d err=%v, want the limit error after exactly 4", stages, passes, err)
	}
	if !strings.Contains(err.Error(), "after 4") {
		t.Fatalf("limitErr must receive the stage count: %v", err)
	}
	// A loop that ends on the limit-th stage is within its budget.
	stages, err, _ = stageEvents(t, nil, 2, script(Outcome{}, Outcome{Status: Last}))
	if err != nil || stages != 2 {
		t.Fatalf("Last on the limit-th stage: stages=%d err=%v", stages, err)
	}
	// limit <= 0 is unbounded.
	stages, err, _ = stageEvents(t, nil, 0, script(Outcome{}, Outcome{}, Outcome{}, Outcome{Status: Confirm}))
	if err != nil || stages != 3 {
		t.Fatalf("unbounded loop: stages=%d err=%v", stages, err)
	}
}

// TestLoopInterrupted: a done context stops the loop before the next
// pass with the typed error, stamped with the stages completed so far.
func TestLoopInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o := &Options{Ctx: ctx}
	stages, err, evs := stageEvents(t, o, 0, func(n int) (Outcome, error) {
		if n == 3 {
			cancel()
		}
		return Outcome{Delta: 1}, nil
	})
	if !errors.Is(err, ErrCanceled) || !IsInterrupt(err) || stages != 3 {
		t.Fatalf("stages=%d err=%v, want ErrCanceled after 3", stages, err)
	}
	if !strings.Contains(err.Error(), "after 3 stages") {
		t.Fatalf("message = %q", err.Error())
	}
	if len(evs) != 6 {
		t.Fatalf("an interrupted loop must not open another stage: %d events", len(evs))
	}

	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	<-dctx.Done()
	stages, err = (&Options{Ctx: dctx}).Loop(nil, 0, nil, script())
	if !errors.Is(err, ErrDeadline) || stages != 0 {
		t.Fatalf("stages=%d err=%v, want ErrDeadline before the first pass", stages, err)
	}
	if !strings.Contains(err.Error(), "deadline exceeded after 0 stages") {
		t.Fatalf("message = %q", err.Error())
	}
}

// TestLoopStepErrors: a failure of the pass comes back as is and the
// pass is not counted; a failure carried by the outcome comes back
// after the stage has been counted and recorded.
func TestLoopStepErrors(t *testing.T) {
	boom := errors.New("boom")
	stages, err, evs := stageEvents(t, nil, 0, func(n int) (Outcome, error) {
		if n == 2 {
			return Outcome{}, boom
		}
		return Outcome{Delta: 1}, nil
	})
	if err != boom || stages != 1 {
		t.Fatalf("stages=%d err=%v, want the step's error after 1", stages, err)
	}
	if last := evs[len(evs)-1]; last.Ev != trace.EvEnd || last.Stage != 2 || !last.Confirm {
		t.Fatalf("the failed pass stays open for Summary to close: %+v", last)
	}

	stages, err, evs = stageEvents(t, nil, 0, script(Outcome{Delta: 1}, Outcome{Delta: 7, Err: boom}))
	if err != boom || stages != 2 {
		t.Fatalf("stages=%d err=%v, want Outcome.Err after 2", stages, err)
	}
	if last := evs[len(evs)-1]; last.Ev != trace.EvEnd || last.Stage != 2 || last.Delta != 7 || last.Confirm {
		t.Fatalf("the failing stage must be recorded first: %+v", last)
	}
}

// TestLoopValidates: the driver is where options are validated, so no
// engine can forget to.
func TestLoopValidates(t *testing.T) {
	called := false
	stages, err := (&Options{MaxStages: -1}).Loop(nil, 0, nil, func(int) (Outcome, error) {
		called = true
		return Outcome{Status: Last}, nil
	})
	if !errors.Is(err, ErrInvalidOptions) || stages != 0 || called {
		t.Fatalf("stages=%d called=%v err=%v, want ErrInvalidOptions before any pass", stages, called, err)
	}
}

// TestLoopNilOptionsAndCollector: a nil *Options and a nil collector
// are both valid; the loop then only counts.
func TestLoopNilOptionsAndCollector(t *testing.T) {
	var o *Options
	stages, err := o.Loop(nil, 0, nil, script(Outcome{}, Outcome{State: tuple.NewInstance()}, Outcome{Status: Last}))
	if err != nil || stages != 3 {
		t.Fatalf("stages=%d err=%v", stages, err)
	}
}

// TestLoopTrace: Options.Trace sees every counted stage whose step
// hands over a state, with the stage's number, and nothing else.
func TestLoopTrace(t *testing.T) {
	a, b := tuple.NewInstance(), tuple.NewInstance()
	var seen []int
	var states []*tuple.Instance
	o := &Options{Trace: func(stage int, state *tuple.Instance) {
		seen = append(seen, stage)
		states = append(states, state)
	}}
	if _, err := o.Loop(nil, 0, nil, script(Outcome{State: a}, Outcome{}, Outcome{State: b}, Outcome{Status: Confirm, State: a})); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 3 || states[0] != a || states[1] != b {
		t.Fatalf("trace saw stages %v", seen)
	}
}

// TestChooseLoop: choose runs after the poll and before the stage
// opens; when it finds nothing the loop ends with no stage open.
func TestChooseLoop(t *testing.T) {
	rec := trace.NewRecorder(0)
	col := stats.New()
	col.SetTracer(rec)
	col.Reset("test", 0, nil)
	var order []string
	left := 2
	stages, err := (*Options)(nil).ChooseLoop(col, 0, nil,
		func() bool {
			order = append(order, "choose")
			return left > 0
		},
		func(n int) (Outcome, error) {
			order = append(order, fmt.Sprint("step", n))
			left--
			return Outcome{Delta: 1}, nil
		})
	if err != nil || stages != 2 {
		t.Fatalf("stages=%d err=%v", stages, err)
	}
	if got := strings.Join(order, " "); got != "choose step1 choose step2 choose" {
		t.Fatalf("order = %q", got)
	}
	col.Summary()
	for _, ev := range rec.Events() {
		if ev.Span == trace.SpanStage && (ev.Stage > 2 || ev.Confirm) {
			t.Fatalf("the fruitless choose must not open a stage: %+v", ev)
		}
	}
}

// TestCycle: Brent's detector reports the period of a repeating state
// sequence and stays silent on a progressing one.
func TestCycle(t *testing.T) {
	state := func(n int) *tuple.Instance {
		in := tuple.NewInstance()
		in.Insert("S", tuple.Tuple{value.Value(n + 1)})
		return in
	}
	// A sequence with a tail of 3 states and a period of 4.
	seq := func(i int) *tuple.Instance {
		if i < 3 {
			return state(i)
		}
		return state(3 + (i-3)%4)
	}
	c := NewCycle(seq(0))
	for i := 1; ; i++ {
		if i > 64 {
			t.Fatal("cycle not detected")
		}
		if n := c.Visit(seq(i)); n != 0 {
			if n != 4 {
				t.Fatalf("cycle length %d, want 4", n)
			}
			break
		}
	}
	c = NewCycle(state(0))
	for i := 1; i < 40; i++ {
		if n := c.Visit(state(i)); n != 0 {
			t.Fatalf("false cycle of length %d at state %d", n, i)
		}
	}
}
