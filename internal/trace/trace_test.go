package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRecorderStampsAndOrders(t *testing.T) {
	r := NewRecorder(16)
	r.Emit(Event{Ev: EvBegin, Span: SpanEval, Engine: "x"})
	r.Emit(Event{Ev: EvBegin, Span: SpanStage, Stage: 1})
	r.Emit(Event{Ev: EvEnd, Span: SpanStage, Stage: 1, DurNS: 5})
	r.Emit(Event{Ev: EvEnd, Span: SpanEval, Engine: "x", Stages: 1})
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.TNS < 0 {
			t.Errorf("event %d: negative timestamp", i)
		}
	}
	if r.Dropped() != 0 {
		t.Errorf("dropped %d, want 0", r.Dropped())
	}
}

func TestRecorderRingKeepsNewest(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Emit(Event{Ev: EvPoint, Kind: KindRetract, N: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(7 + i); ev.N != want {
			t.Errorf("event %d: N=%d, want %d (newest-kept ring)", i, ev.N, want)
		}
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped %d, want 6", r.Dropped())
	}
}

func TestJSONLStreamsEvents(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(Event{Ev: EvBegin, Span: SpanEval, Engine: "while"})
	j.Emit(Event{Ev: EvEnd, Span: SpanEval, Engine: "while", Stages: 3})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 2 || ev.Stages != 3 {
		t.Errorf("second line %+v, want seq 2 stages 3", ev)
	}
}

func TestMultiFansOutAndDropsNil(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of no live sinks should be nil")
	}
	a := NewRecorder(4)
	if Multi(nil, a) != Tracer(a) {
		t.Error("Multi of one live sink should be that sink")
	}
	b := NewRecorder(4)
	m := Multi(a, nil, b)
	m.Emit(Event{Ev: EvPoint, Kind: KindInvent, N: 7})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Errorf("fan-out: a=%d b=%d events, want 1/1", len(a.Events()), len(b.Events()))
	}
}

func TestNarrateDeterministicAndDurationFree(t *testing.T) {
	evs := []Event{
		{Ev: EvBegin, Span: SpanEval, Engine: "noninflationary"},
		{Ev: EvBegin, Span: SpanStage, Stage: 1},
		{Ev: EvSpan, Span: SpanRule, Stage: 1, Rule: "T(1) :- T(0).", Firings: 1, Derived: 1, DurNS: 123456},
		{Ev: EvPoint, Kind: KindRetract, Stage: 1, N: 1},
		{Ev: EvEnd, Span: SpanStage, Stage: 1, Firings: 2, Derived: 2, Retractions: 1, Delta: 2, DurNS: 99999},
		{Ev: EvBegin, Span: SpanStage, Stage: 2},
		{Ev: EvEnd, Span: SpanStage, Stage: 2, Confirm: true, DurNS: 11},
		{Ev: EvEnd, Span: SpanEval, Engine: "noninflationary", Stages: 1, Firings: 2, Derived: 2, Retractions: 1, DurNS: 1},
	}
	var buf bytes.Buffer
	if err := Narrate(evs, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"== eval: engine noninflationary ==",
		"stage 1: firings=2 derived=2 retracted=1 (delta +2)",
		"rule fired 1x (1 derived): T(1) :- T(0).",
		"retracted 1 fact",
		"stage 2: no change — fixpoint confirmed",
		"== done: 1 stage, 2 firings, 2 derived retracted=1 ==",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("narrative missing %q:\n%s", want, got)
		}
	}
	for _, forbidden := range []string{"123456", "99999", "ns"} {
		if strings.Contains(got, forbidden) {
			t.Errorf("narrative leaks duration %q (breaks golden determinism):\n%s", forbidden, got)
		}
	}
}
