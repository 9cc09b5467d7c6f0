package stats

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"unchained/internal/trace"
)

// TestNilCollectorIsNoOp exercises every method on a nil receiver:
// engines thread the collector unconditionally, so all of these must
// be safe and free.
func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatalf("nil collector reports Enabled")
	}
	reset(c, "x", "r")
	c.BeginStage()
	c.Fired(0, 1, 1, 2)
	c.Retracted(3)
	c.Conflict()
	c.Invented(4)
	c.ProbeBatch(1, 1)
	filePlan(c, "r", "a ⋈ b")
	c.EndStage(5)
	if c.PlanWanted() {
		t.Fatalf("nil collector wants plans")
	}
	if s := c.Summary(); s != nil {
		t.Fatalf("nil collector Summary = %v, want nil", s)
	}
}

func TestStageSnapshots(t *testing.T) {
	c := New()
	reset(c, "test", "r0", "r1")

	c.BeginStage()
	c.Fired(0, 1, 3, 0)
	c.Fired(1, 1, 1, 2)
	c.ProbeBatch(1, 0)
	c.EndStage(4)

	c.BeginStage()
	c.Fired(0, 1, 0, 3)
	c.Fired(1, 1, 1, 1)
	c.Retracted(2)
	c.Conflict()
	c.Invented(5)
	c.ProbeBatch(0, 1)
	c.EndStage(-1)

	// Confirmation pass: firings land in totals but no stage closes.
	c.Fired(0, 1, 0, 4)

	s := c.Summary()
	if s.Engine != "test" || s.Stages != 2 {
		t.Fatalf("engine/stages = %s/%d, want test/2", s.Engine, s.Stages)
	}
	if s.Firings != 5 || s.Derived != 5 || s.Rederived != 10 {
		t.Fatalf("totals = %d/%d/%d, want 5/5/10", s.Firings, s.Derived, s.Rederived)
	}
	if s.Retractions != 2 || s.Conflicts != 1 || s.Invented != 5 {
		t.Fatalf("retractions/conflicts/invented = %d/%d/%d", s.Retractions, s.Conflicts, s.Invented)
	}
	if s.IndexProbes != 1 || s.FullScans != 1 {
		t.Fatalf("probes/scans = %d/%d, want 1/1", s.IndexProbes, s.FullScans)
	}
	if len(s.PerStage) != 2 {
		t.Fatalf("per-stage entries = %d, want 2", len(s.PerStage))
	}
	st1, st2 := s.PerStage[0], s.PerStage[1]
	if st1.Stage != 1 || st1.Firings != 2 || st1.Derived != 4 || st1.Rederived != 2 || st1.Delta != 4 {
		t.Fatalf("stage 1 = %+v", st1)
	}
	if st2.Stage != 2 || st2.Firings != 2 || st2.Derived != 1 || st2.Rederived != 4 || st2.Delta != -1 {
		t.Fatalf("stage 2 = %+v", st2)
	}
	if st2.Retractions != 2 || st2.Conflicts != 1 || st2.Invented != 5 {
		t.Fatalf("stage 2 sliced counters = %+v", st2)
	}
	if len(s.PerRule) != 2 {
		t.Fatalf("per-rule entries = %d, want 2", len(s.PerRule))
	}
	if r0 := s.PerRule[0]; r0.Rule != "r0" || r0.Firings != 3 || r0.Derived != 3 || r0.Rederived != 7 {
		t.Fatalf("rule 0 = %+v", r0)
	}
}

// TestUnattributedRuleIndex checks that Fired with -1 (and any
// out-of-range index) only feeds the totals.
func TestUnattributedRuleIndex(t *testing.T) {
	c := New()
	reset(c, "test", "r0")
	c.Fired(-1, 1, 1, 0)
	c.Fired(7, 1, 1, 0)
	s := c.Summary()
	if s.Firings != 2 || s.Derived != 2 {
		t.Fatalf("totals = %d/%d, want 2/2", s.Firings, s.Derived)
	}
	if len(s.PerRule) != 0 {
		t.Fatalf("per-rule = %+v, want empty (rule 0 never fired)", s.PerRule)
	}
}

func TestStageTruncation(t *testing.T) {
	c := New()
	c.Reset("test", 0, nil)
	for i := 0; i < maxStageEntries+10; i++ {
		c.BeginStage()
		c.Fired(-1, 1, 1, 0)
		c.EndStage(1)
	}
	s := c.Summary()
	if s.Stages != maxStageEntries+10 {
		t.Fatalf("stage count = %d, want %d", s.Stages, maxStageEntries+10)
	}
	if len(s.PerStage) != maxStageEntries {
		t.Fatalf("per-stage entries = %d, want cap %d", len(s.PerStage), maxStageEntries)
	}
	if !s.StagesTruncated {
		t.Fatalf("StagesTruncated not set")
	}
	if s.Derived != uint64(maxStageEntries+10) {
		t.Fatalf("totals stopped at the cap: derived = %d", s.Derived)
	}
}

// TestStageWallCountsPastTheCap walks 2 048 stages: the summary lists
// the first 1 024, and its stage-wall total keeps the other half.
func TestStageWallCountsPastTheCap(t *testing.T) {
	c := New()
	c.Reset("test", 0, nil)
	for i := 0; i < 2*maxStageEntries; i++ {
		c.BeginStage()
		for spin := time.Now(); time.Since(spin) < time.Microsecond; {
		}
		c.EndStage(1)
	}
	s := c.Summary()
	var listed int64
	for _, st := range s.PerStage {
		listed += st.WallNS
	}
	if len(s.PerStage) != maxStageEntries || s.StageWallNS <= listed {
		t.Fatalf("stage_wall_ns %d over %d stages, the %d listed sum to %d: the total stopped at the cap",
			s.StageWallNS, s.Stages, len(s.PerStage), listed)
	}
	if s.StageWallNS > s.WallNS {
		t.Fatalf("stage_wall_ns %d exceeds the run's wall_ns %d", s.StageWallNS, s.WallNS)
	}
}

// TestPlansFiledInOrderAndBounded: the summary carries the plans in
// the order they were filed, only plans, and at most maxPlans of them;
// without a tracer the collector stops wanting them at the bound, with
// one every plan is still mirrored to the stream.
func TestPlansFiledInOrderAndBounded(t *testing.T) {
	c := New()
	reset(c, "test", "r")
	c.BeginStage()
	filePlan(c, "p", "a ⋈ b")
	c.Fired(0, 1, 1, 0) // not a plan
	filePlan(c, "q", "c ⋈ d")
	c.EndStage(1)
	if got := c.Summary().Plans; len(got) != 2 || got[0] != (PlanStats{"p", "a ⋈ b"}) || got[1].Rule != "q" {
		t.Fatalf("plans = %+v", got)
	}
	for i := 0; i < 2*maxPlans; i++ {
		if want := len(c.Summary().Plans) < maxPlans; c.PlanWanted() != want {
			t.Fatalf("after %d plans PlanWanted = %v", i+2, !want)
		}
		filePlan(c, "r", "x")
	}
	if n := len(c.Summary().Plans); n != maxPlans {
		t.Fatalf("summary kept %d plans, want bound %d", n, maxPlans)
	}
	rec := trace.NewRecorder(0)
	c.SetTracer(rec)
	if !c.PlanWanted() {
		t.Fatal("a traced run stopped reporting plans at the summary's bound")
	}
	filePlan(c, "s", "y")
	if evs := rec.Events(); len(evs) != 1 || evs[0].Span != trace.SpanPlan || evs[0].Rule != "s" {
		t.Fatalf("stream = %+v", evs)
	}
	c.Reset("again", 0, nil)
	if s := c.Summary(); len(s.Plans) != 0 {
		t.Fatalf("Reset kept plans: %+v", s.Plans)
	}
}

func TestResetClears(t *testing.T) {
	c := New()
	reset(c, "first", "r")
	c.BeginStage()
	c.Fired(0, 1, 1, 0)
	c.EndStage(1)
	c.Reset("second", 0, nil)
	s := c.Summary()
	if s.Engine != "second" || s.Stages != 0 || s.Firings != 0 || len(s.PerRule) != 0 {
		t.Fatalf("Reset did not clear: %+v", s)
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	c := New()
	reset(c, "json", "r")
	c.BeginStage()
	c.Fired(0, 1, 2, 1)
	c.Retracted(1)
	c.EndStage(1)
	var got Summary
	if err := json.Unmarshal([]byte(c.Summary().JSON()), &got); err != nil {
		t.Fatalf("JSON() is not valid JSON: %v", err)
	}
	if got.Engine != "json" || got.Stages != 1 || got.Firings != 1 || got.Derived != 2 || got.Retractions != 1 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if len(got.PerStage) != 1 || got.PerStage[0].Firings != 1 {
		t.Fatalf("per-stage round-trip mismatch: %+v", got.PerStage)
	}
}

// TestConcurrentCounters hammers the counter methods from several
// goroutines, holding the documented promise that they are safe for
// concurrent use (no engine of the repository relies on it); run under
// -race.
func TestConcurrentCounters(t *testing.T) {
	c := New()
	reset(c, "race", "r0", "r1", "r2", "r3")
	c.BeginStage()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Fired(w%4, 1, 1, 1)
				c.ProbeBatch(uint64(i%2), uint64(1-i%2))
				c.Retracted(1)
			}
		}(w)
	}
	wg.Wait()
	c.EndStage(0)
	s := c.Summary()
	const total = workers * per
	if s.Firings != total || s.Derived != total || s.Rederived != total || s.Retractions != total {
		t.Fatalf("lost updates: %+v", s)
	}
	if s.IndexProbes+s.FullScans != total {
		t.Fatalf("probes+scans = %d, want %d", s.IndexProbes+s.FullScans, total)
	}
	var ruleTotal uint64
	for _, r := range s.PerRule {
		ruleTotal += r.Firings
	}
	if ruleTotal != total {
		t.Fatalf("per-rule firings = %d, want %d", ruleTotal, total)
	}
}

// reset resets c for a run of rules with the given texts.
func reset(c *Collector, engine string, names ...string) {
	c.Reset(engine, len(names), func(i int) string { return names[i] })
}

// filePlan files the plan join of rule through the collector's plan
// buffer, as eval does.
func filePlan(c *Collector, rule, join string) {
	c.PlanSpan(rule, append(c.PlanText(), join...))
}

// A summary shares the collector's stage and plan lists, and what the
// collector records after it does not show in it; a rule's text is
// formatted once, and only for a rule the summary lists.
func TestSummarySharesAndNamesLazily(t *testing.T) {
	c := New()
	calls := make([]int, 3)
	c.Reset("lazy", 3, func(i int) string { calls[i]++; return []string{"r0", "r1", "r2"}[i] })
	c.BeginStage()
	c.Fired(1, 2, 2, 0)
	filePlan(c, "p", "a#0 est=1 act=1")
	c.EndStage(2)
	first := c.Summary()
	if len(first.PerRule) != 1 || first.PerRule[0].Rule != "r1" || calls[0] != 0 || calls[1] != 1 || calls[2] != 0 {
		t.Fatalf("per-rule %+v after namer calls %v", first.PerRule, calls)
	}
	c.BeginStage()
	filePlan(c, "q", "b#1 est=2 act=0 ⋈ c#0 est=4 act=0")
	c.EndStage(0)
	second := c.Summary()
	if len(first.PerStage) != 1 || len(first.Plans) != 1 || first.Plans[0] != (PlanStats{"p", "a#0 est=1 act=1"}) {
		t.Fatalf("the first summary changed: %+v, %+v", first.PerStage, first.Plans)
	}
	if len(second.PerStage) != 2 || len(second.Plans) != 2 || second.Plans[1] != (PlanStats{"q", "b#1 est=2 act=0 ⋈ c#0 est=4 act=0"}) {
		t.Fatalf("the second summary: %+v, %+v", second.PerStage, second.Plans)
	}
	if calls[1] != 1 {
		t.Fatalf("r1 formatted %d times, want once", calls[1])
	}
}
