package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"unchained/internal/stats"
	"unchained/internal/trace"
)

func TestRecorderRingAndTopK(t *testing.T) {
	r := NewRecorder(Options{RingSize: 4, TopK: 2})
	for i := 1; i <= 10; i++ {
		r.Observe(&Record{ID: strings.Repeat("0", 31) + string(rune('0'+i%10)), WallNS: int64(i) * 1000})
	}
	recent := r.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring kept %d records, want 4", len(recent))
	}
	if recent[0].WallNS != 10000 || recent[3].WallNS != 7000 {
		t.Fatalf("ring order wrong: newest=%d oldest=%d", recent[0].WallNS, recent[3].WallNS)
	}
	slow := r.Slowest()
	if len(slow) != 2 {
		t.Fatalf("topK kept %d records, want 2", len(slow))
	}
	if slow[0].WallNS != 10000 || slow[1].WallNS != 9000 {
		t.Fatalf("topK wrong: %d, %d", slow[0].WallNS, slow[1].WallNS)
	}
	if total, _ := r.Totals(); total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
}

func TestRecorderSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(Options{SlowThreshold: time.Millisecond, SlowLog: &buf})
	r.Observe(&Record{ID: "aa", WallNS: 500_000, Outcome: "ok"})   // fast
	r.Observe(&Record{ID: "bb", WallNS: 5_000_000, Outcome: "ok"}) // slow
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log has %d lines, want 1: %q", len(lines), buf.String())
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow log line is not a Record: %v", err)
	}
	if rec.ID != "bb" || rec.WallNS != 5_000_000 {
		t.Fatalf("wrong record logged: %+v", rec)
	}
	if _, slow := r.Totals(); slow != 1 {
		t.Fatalf("slowTotal = %d, want 1", slow)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(Options{RingSize: 8, TopK: 4, SlowThreshold: time.Nanosecond, SlowLog: &safeWriter{w: &buf}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Observe(&Record{ID: "cc", WallNS: int64(g*100 + i)})
				r.Recent()
				r.Slowest()
			}
		}(g)
	}
	wg.Wait()
	if total, _ := r.Totals(); total != 800 {
		t.Fatalf("total = %d, want 800", total)
	}
}

type safeWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *safeWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestTenantsBoundedCardinality(t *testing.T) {
	tn := NewTenants(2)
	tn.Observe("aaa", 100, 10)
	tn.Observe("bbb", 200, 20)
	tn.Observe("ccc", 300, 30) // over the bound -> other
	tn.ObserveShed("ddd")      // over the bound -> other
	snap := tn.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d buckets, want 3 (2 tenants + other): %+v", len(snap), snap)
	}
	if snap[len(snap)-1].Tenant != OtherTenant {
		t.Fatalf("last bucket = %q, want %q", snap[len(snap)-1].Tenant, OtherTenant)
	}
	other := snap[len(snap)-1]
	if other.Requests != 2 || other.Shed != 1 || other.EvalNS != 300 || other.Derived != 30 {
		t.Fatalf("other bucket wrong: %+v", other)
	}
	for _, s := range snap[:2] {
		if s.Tenant != "aaa" && s.Tenant != "bbb" {
			t.Fatalf("unexpected named bucket %q", s.Tenant)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	if len(tid) != 32 || len(sid) != 16 {
		t.Fatalf("id lengths: trace=%d span=%d", len(tid), len(sid))
	}
	h := FormatTraceparent(tid, sid)
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("round trip failed: %q -> (%q, %q, %v)", h, gotT, gotS, ok)
	}
	bad := []string{
		"",
		"00-short-span-01",
		"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", // all-zero trace id
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", // all-zero span id
		"ff-" + tid + "-" + sid + "-01",                     // invalid version
		"00-" + strings.ToUpper(tid) + "-" + sid + "-01",    // uppercase hex
		"00-" + tid + "-" + sid + "-01-extra",               // version 00 with extra part
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Fatalf("ParseTraceparent accepted %q", h)
		}
	}
	// A future version may carry extra segments.
	if _, _, ok := ParseTraceparent("cc-" + tid + "-" + sid + "-01-what-ever"); !ok {
		t.Fatalf("ParseTraceparent rejected future-version header")
	}
}

func TestPlanSinkFiltersAndBounds(t *testing.T) {
	var s PlanSink
	s.Emit(trace.Event{Ev: trace.EvSpan, Span: trace.SpanPlan, Rule: "p", Name: "a ⋈ b"})
	s.Emit(trace.Event{Ev: trace.EvSpan, Span: trace.SpanRule, Rule: "q"}) // filtered
	s.Emit(trace.Event{Ev: trace.EvBegin, Span: trace.SpanStage})          // filtered
	got := s.Plans()
	if len(got) != 1 || got[0].Rule != "p" || got[0].Join != "a ⋈ b" {
		t.Fatalf("plans = %+v", got)
	}
	for i := 0; i < 2*maxPlanSpans; i++ {
		s.Emit(trace.Event{Ev: trace.EvSpan, Span: trace.SpanPlan, Rule: "r", Name: "x"})
	}
	if n := len(s.Plans()); n != maxPlanSpans {
		t.Fatalf("plan sink kept %d spans, want bound %d", n, maxPlanSpans)
	}
}

func TestFromSummary(t *testing.T) {
	sum := &stats.Summary{
		Engine:  "core_semi_naive",
		Stages:  3,
		Firings: 100, Derived: 50, Rederived: 10,
		ShardRounds: 2, ShardFactsMerged: 40,
		CowSnapshots: 4, CowPromotions: 1,
		PerStage: []stats.StageStats{
			{Stage: 1, WallNS: 1000, Derived: 30},
			{Stage: 2, WallNS: 2000, Derived: 20},
		},
		PerShard: []stats.ShardStats{
			{Shard: 0, Rounds: 2, WallNS: 1500, Facts: 25},
			{Shard: 1, Rounds: 2, WallNS: 1400, Facts: 15},
		},
	}
	var rec Record
	rec.FromSummary(sum)
	if rec.Engine != "core_semi_naive" || rec.Stages != 3 || rec.Derived != 50 {
		t.Fatalf("totals not folded: %+v", rec)
	}
	if rec.StageWallNS != 3000 || len(rec.PerStage) != 2 {
		t.Fatalf("stage breakdown wrong: wall=%d n=%d", rec.StageWallNS, len(rec.PerStage))
	}
	if len(rec.PerShard) != 2 || rec.PerShard[1].WallNS != 1400 {
		t.Fatalf("shard breakdown wrong: %+v", rec.PerShard)
	}
	// Truncation: a summary with more stages than the record bound.
	big := &stats.Summary{}
	for i := 1; i <= maxRecordStages+5; i++ {
		big.PerStage = append(big.PerStage, stats.StageStats{Stage: i, WallNS: 1})
	}
	var r2 Record
	r2.FromSummary(big)
	if len(r2.PerStage) != maxRecordStages || !r2.StagesTruncated {
		t.Fatalf("stage cap not applied: n=%d trunc=%v", len(r2.PerStage), r2.StagesTruncated)
	}
	if r2.StageWallNS != int64(maxRecordStages+5) {
		t.Fatalf("StageWallNS should count past the cap: %d", r2.StageWallNS)
	}
	var r3 Record
	r3.FromSummary(nil) // nil summary is a no-op
	if r3.Engine != "" {
		t.Fatalf("nil summary mutated record")
	}
}
