package unchained_test

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"unchained"
	"unchained/internal/flight"
	"unchained/internal/trace"
)

// TestEvaluationViewsAgree runs the corpus under every deterministic
// semantics that admits the program, with a collector and a recorder
// attached, and holds the three views of each run to each other: the
// span stream (the collector's live mirror), the stats summary (the
// record of the evaluation) and the flight record (a view of the
// summary). They are one tally read three ways, so they agree exactly:
// engine name, stage count, counter totals and join plans.
func TestEvaluationViewsAgree(t *testing.T) {
	runs := 0
	for _, c := range plannerCases {
		for _, name := range plannerSemantics {
			sem := unchained.SemanticsByName[name]
			t.Run(c.prog+"/"+name, func(t *testing.T) {
				s, p, in := loadCase(t, c.prog, c.facts)
				if c.order {
					in = s.WithOrder(in)
				}
				stream := unchained.NewTraceRecorder(1 << 16)
				res, _ := s.EvalContext(context.Background(), p, in, sem,
					unchained.WithMaxStages(c.maxStages),
					unchained.WithStats(unchained.NewStatsCollector()),
					unchained.WithTracer(stream))
				if res == nil || res.Stats == nil {
					t.Skip("the semantics does not admit the program")
				}
				if stream.Dropped() != 0 {
					t.Fatalf("recorder dropped %d events", stream.Dropped())
				}
				runs++
				sum := res.Stats

				// The stream, folded.
				var engines []string
				var plans []unchained.TraceEvent
				var staged, total trace.Event
				stages := 0
				for _, ev := range stream.Events() {
					switch {
					case ev.Span == trace.SpanEval:
						engines = append(engines, ev.Engine)
						if ev.Ev == trace.EvEnd {
							total = ev
						}
					case ev.Span == trace.SpanPlan:
						plans = append(plans, ev)
					case ev.Span == trace.SpanStage && ev.Ev == trace.EvEnd:
						// The confirmation pass is no stage, but its
						// firings are in the totals.
						if !ev.Confirm {
							stages++
						}
						staged.Firings += ev.Firings
						staged.Derived += ev.Derived
						staged.Rederived += ev.Rederived
						staged.Retractions += ev.Retractions
						staged.Conflicts += ev.Conflicts
						staged.Invented += ev.Invented
					}
				}

				// The record, as its readers see it: on the wire.
				rec := flight.NewRecord("id", "test", time.Now())
				rec.SetSummary(sum)
				b, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				var wire struct {
					Engine                           string
					Stages                           int
					Firings, Derived, Rederived      uint64
					Retractions, Conflicts, Invented uint64
					StageWallNS                      int64             `json:"stage_wall_ns"`
					PerStage                         []json.RawMessage `json:"per_stage"`
					Plans                            []struct{ Rule, Join string }
				}
				if err := json.Unmarshal(b, &wire); err != nil {
					t.Fatal(err)
				}

				if len(engines) != 2 || engines[0] != sum.Engine || engines[1] != sum.Engine || wire.Engine != sum.Engine {
					t.Errorf("engine: stream %q, summary %q, record %q", engines, sum.Engine, wire.Engine)
				}
				if stages != sum.Stages || total.Stages != sum.Stages || wire.Stages != sum.Stages {
					t.Errorf("stages: %d stage spans, eval end %d, summary %d, record %d", stages, total.Stages, sum.Stages, wire.Stages)
				}
				type tally struct{ firings, derived, rederived, retractions, conflicts, invented uint64 }
				want := tally{sum.Firings, sum.Derived, sum.Rederived, sum.Retractions, sum.Conflicts, sum.Invented}
				for view, got := range map[string]tally{
					"Σ stage ends": {staged.Firings, staged.Derived, staged.Rederived, staged.Retractions, staged.Conflicts, staged.Invented},
					"eval end":     {total.Firings, total.Derived, total.Rederived, total.Retractions, total.Conflicts, total.Invented},
					"record":       {wire.Firings, wire.Derived, wire.Rederived, wire.Retractions, wire.Conflicts, wire.Invented},
				} {
					if got != want {
						t.Errorf("%s %+v, summary %+v", view, got, want)
					}
				}
				if wire.StageWallNS != sum.StageWallNS || len(wire.PerStage) != min(len(sum.PerStage), 64) {
					t.Errorf("record stage view: stage_wall_ns %d of %d, %d entries of %d", wire.StageWallNS, sum.StageWallNS, len(wire.PerStage), len(sum.PerStage))
				}
				if len(plans) > 64 {
					plans = plans[:64]
				}
				if len(sum.Plans) != len(plans) || len(wire.Plans) != len(plans) {
					t.Fatalf("plans: %d spans (capped at 64), summary %d, record %d", len(plans), len(sum.Plans), len(wire.Plans))
				}
				for i, ev := range plans {
					if sum.Plans[i].Rule != ev.Rule || sum.Plans[i].Join != ev.Name || wire.Plans[i].Join != ev.Name {
						t.Errorf("plan %d: span %s %q, summary %+v, record %+v", i, ev.Rule, ev.Name, sum.Plans[i], wire.Plans[i])
					}
				}
			})
		}
	}
	if runs < len(plannerCases) {
		t.Errorf("only %d of the corpus runs produced a summary", runs)
	}
}
