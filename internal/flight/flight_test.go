package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"unchained/internal/stats"
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

// TestRecordIsAViewOfTheSummary: a record built through the
// constructor reads its evaluation from the summary it is handed —
// the same value, not a copy, while it is inside the record's bounds —
// and its JSON keeps the record schema's keys, the request's wall_ns
// shadowing the engine's.
func TestRecordIsAViewOfTheSummary(t *testing.T) {
	sum := &stats.Summary{
		Engine:  "core_semi_naive",
		Stages:  3,
		Firings: 100, Derived: 50, Rederived: 10,
		WallNS:       7000,
		CowSnapshots: 4, CowPromotions: 1,
		Plans: []stats.PlanStats{{Rule: "T", Join: "E#0 est=4 act=4 ⋈ T#1 est=16 act=9"}},
		PerStage: []stats.StageStats{
			{Stage: 1, WallNS: 1000, Derived: 30},
			{Stage: 2, WallNS: 2000, Derived: 20},
		},
		StageWallNS: 3500, // a third stage ran past what is listed
	}
	start := time.Unix(0, 42)
	rec := NewRecord("aa", "/v1/eval", start)
	if rec.ID != "aa" || rec.Endpoint != "/v1/eval" || rec.StartUnixNS != 42 || rec.Outcome != "ok" || rec.Summary != nil {
		t.Fatalf("fresh record: %+v", rec)
	}
	rec.SetSummary(nil) // nil summary is a no-op
	if rec.Summary != nil {
		t.Fatalf("nil summary set something: %+v", rec.Summary)
	}
	rec.Phases = Phases{DecodeNS: 1, ResolveNS: 2, QueueNS: 3, FactsNS: 4, OptimizeNS: 5, EvalNS: 6, FormatNS: 7}
	rec.WallNS = rec.Phases.Total()
	rec.SetSummary(sum)
	if rec.Summary != sum {
		t.Fatal("a summary inside the bounds was copied")
	}
	if rec.Engine != "core_semi_naive" || rec.Stages != 3 || rec.Derived != 50 || rec.StageWallNS != 3500 ||
		len(rec.PerStage) != 2 || rec.PerStage[1].WallNS != 2000 || rec.Plans[0].Rule != "T" {
		t.Fatalf("record does not read the summary: %+v", rec)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"id", "endpoint", "outcome", "wall_ns", "phases", "engine", "stages", "firings",
		"derived", "rederived", "cow_snapshots", "cow_promotions",
		"plans", "per_stage", "stage_wall_ns"} {
		if _, ok := wire[key]; !ok {
			t.Errorf("record JSON lost %q: %s", key, b)
		}
	}
	if wire["wall_ns"] != float64(28) {
		t.Errorf("wall_ns = %v, want the request's 28 (the phases' sum), not the engine's", wire["wall_ns"])
	}
	var back Record
	if err := json.Unmarshal(b, &back); err != nil || back.WallNS != 28 || back.Engine != sum.Engine || back.Phases != rec.Phases {
		t.Fatalf("round trip: %v %+v", err, back)
	}

	// The bounds. More stages than a record keeps: the first
	// maxRecordStages, in a list of their own (not a window onto the
	// summary's), with the totals past the cap intact.
	big := &stats.Summary{Stages: maxRecordStages + 5, StageWallNS: maxRecordStages + 5}
	for i := 1; i <= maxRecordStages+5; i++ {
		big.PerStage = append(big.PerStage, stats.StageStats{Stage: i, WallNS: 1})
	}
	r2 := NewRecord("bb", "cli", start)
	r2.SetSummary(big)
	if len(r2.PerStage) != maxRecordStages || cap(r2.PerStage) >= len(big.PerStage) || !r2.StagesTruncated {
		t.Fatalf("stage cap not applied: n=%d cap=%d trunc=%v", len(r2.PerStage), cap(r2.PerStage), r2.StagesTruncated)
	}
	if r2.StageWallNS != maxRecordStages+5 || r2.Stages != maxRecordStages+5 {
		t.Fatalf("totals should count past the cap: %d over %d stages", r2.StageWallNS, r2.Stages)
	}
	if big.StagesTruncated || len(big.PerStage) != maxRecordStages+5 {
		t.Fatalf("bounding the record changed the summary: %+v", big)
	}
	// The per-rule breakdown is as long as the client's program: a
	// retained record drops it, the summary keeps it.
	ruled := &stats.Summary{Engine: "inflationary", PerRule: []stats.RuleStats{{Rule: "P(X) :- Q(X).", Firings: 1}}}
	r3 := NewRecord("cc", "cli", start)
	r3.SetSummary(ruled)
	if r3.PerRule != nil || r3.Engine != "inflationary" || len(ruled.PerRule) != 1 {
		t.Fatalf("per-rule bound: record %+v summary %+v", r3.PerRule, ruled.PerRule)
	}
}
