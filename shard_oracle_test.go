package unchained_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"unchained"
	"unchained/programs"
)

// TestShardedStatsMatchSerial pins the observability contract: a
// sharded run must report the same derivation totals (firings,
// derived, re-derived, stages) as the serial run, because workers
// classify facts against their pre-round snapshots exactly as the
// serial merge does. Only the shard_* counters may differ.
func TestShardedStatsMatchSerial(t *testing.T) {
	run := func(shards int) *unchained.StatsSummary {
		s, p, in := load(t, programs.Case{Program: "tc.dl", Facts: "chain.facts"})
		col := unchained.NewStatsCollector()
		if _, err := s.EvalContext(context.Background(), p, in,
			unchained.SemanticsByName["minimal-model"],
			unchained.WithStats(col),
			unchained.WithParallel(unchained.Parallel{Shards: shards})); err != nil {
			t.Fatal(err)
		}
		return col.Summary()
	}
	serial := run(1)
	sharded := run(8)
	if sharded.Firings != serial.Firings || sharded.Derived != serial.Derived ||
		sharded.Rederived != serial.Rederived || sharded.Stages != serial.Stages {
		t.Errorf("sharded stats diverge:\nserial:  %+v\nsharded: %+v", serial, sharded)
	}
	if serial.ShardRounds != 0 {
		t.Errorf("serial run reported %d shard rounds", serial.ShardRounds)
	}
	if sharded.ShardRounds == 0 {
		t.Errorf("sharded run reported no shard rounds: %+v", sharded)
	}
}

// TestShardedCancellationNoGoroutineLeak cancels sharded evaluations
// mid-flight — including mid-merge — and checks that no shard worker
// or merge goroutine outlives its round. The engine must
// surface the typed cancellation error with partial progress.
func TestShardedCancellationNoGoroutineLeak(t *testing.T) {
	s := unchained.NewSession()
	// A heavy recursive join: enough per-round work that the deadline
	// lands inside a shard round, not between rounds.
	var facts strings.Builder
	for i := 0; i < 220; i++ {
		fmt.Fprintf(&facts, "G(n%d,n%d). ", i, (i+1)%220)
		fmt.Fprintf(&facts, "G(n%d,m%d). ", i, (i*7)%220)
	}
	p := s.MustParse("T(X,Y) :- G(X,Y).\nT(X,Z) :- G(X,Y), T(Y,Z).")
	in := s.MustFacts(facts.String())

	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i)*time.Millisecond)
		_, err := s.EvalContext(ctx, p, in, unchained.MinimalModel,
			unchained.WithParallel(unchained.Parallel{Shards: 8}))
		cancel()
		if err == nil {
			t.Skip("workload finished before the deadline; nothing to interrupt")
		}
		if !strings.Contains(err.Error(), "deadline") && !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("want typed interruption, got %v", err)
		}
	}
	// Workers poll cancellation every few hundred firings; give them a
	// moment to join before counting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDerivedCountsFacts pins what "derived" means for the engines that
// run one insert-only fixpoint: a fact counts once, at the stage it
// enters, however many firings of that stage emit it. Over the corpus
// (and a diamond, where two firings of one round emit the same fact),
// serial and sharded alike: Σ derived = Σ stage deltas = |out| − |in|.
func TestDerivedCountsFacts(t *testing.T) {
	type input struct {
		name string
		load func() (*unchained.Session, *unchained.Program, *unchained.Instance)
	}
	inputs := []input{{"diamond", func() (*unchained.Session, *unchained.Program, *unchained.Instance) {
		s := unchained.NewSession()
		return s, s.MustParse("T(X,Y) :- G(X,Y).\nT(X,Y) :- G(X,Z), T(Z,Y)."),
			s.MustFacts("G(a,b). G(a,c). G(b,d). G(c,d). G(d,e). G(e,f).")
	}}}
	for _, c := range programs.Cases {
		if c.Deterministic() {
			inputs = append(inputs, input{c.Program, func() (*unchained.Session, *unchained.Program, *unchained.Instance) { return load(t, c) }})
		}
	}
	ran := 0
	for _, c := range inputs {
		for _, name := range []string{"minimal-model", "stratified", "inflationary"} {
			for _, shards := range []int{1, 2, 8} {
				s, p, in := c.load()
				col := unchained.NewStatsCollector()
				res, err := s.EvalContext(context.Background(), p, in, unchained.SemanticsByName[name],
					unchained.WithStats(col), unchained.WithParallel(unchained.Parallel{Shards: shards}))
				if err != nil {
					continue // the engine's dialect rejects the program
				}
				ran++
				sum, deltas := col.Summary(), int64(0)
				for _, st := range sum.PerStage {
					deltas += st.Delta
				}
				if added := res.Out.Facts() - in.Facts(); int(sum.Derived) != added || int(deltas) != added {
					t.Errorf("%s/%s, %d shards: derived=%d rederived=%d, stage deltas sum to %d, the run added %d facts",
						c.name, name, shards, sum.Derived, sum.Rederived, deltas, added)
				}
			}
		}
	}
	if ran < 30 {
		t.Fatalf("only %d runs were accepted", ran)
	}
}
