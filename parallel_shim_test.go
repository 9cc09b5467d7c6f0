package unchained_test

// The deprecated WithParallel shim. Every delta round is serial, so the
// option must change nothing a run reports, and a run given it must
// stop on cancellation as a serial run does. These tests go with the
// shim.

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

// shards is the deprecated option, which does nothing.
func shards(n int) unchained.Opt { return unchained.WithParallel(unchained.Parallel{Shards: n}) }

// TestShardedStatsMatchSerial pins the observability contract of the
// shim: a run given WithParallel reports the same derivation totals
// (firings, derived, re-derived, stages) as a run without it.
func TestShardedStatsMatchSerial(t *testing.T) {
	run := func(opts ...unchained.Opt) *unchained.StatsSummary {
		s, p, in := load(t, programs.Case{Program: "tc.dl", Facts: "chain.facts"})
		col := unchained.NewStatsCollector()
		if _, err := s.EvalContext(context.Background(), p, in,
			unchained.SemanticsByName["minimal-model"],
			append(opts, unchained.WithStats(col))...); err != nil {
			t.Fatal(err)
		}
		return col.Summary()
	}
	serial := run()
	sharded := run(shards(8))
	if sharded.Firings != serial.Firings || sharded.Derived != serial.Derived ||
		sharded.Rederived != serial.Rederived || sharded.Stages != serial.Stages {
		t.Errorf("stats diverge under WithParallel:\nserial:  %+v\nsharded: %+v", serial, sharded)
	}
}

// TestShardedCancellationNoGoroutineLeak cancels evaluations given
// WithParallel mid-flight and checks that no goroutine outlives them.
// The engine must surface the typed cancellation error.
func TestShardedCancellationNoGoroutineLeak(t *testing.T) {
	s := unchained.NewSession()
	// A heavy recursive join: enough per-round work that the deadline
	// lands inside a round, not between rounds.
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
		_, err := s.EvalContext(ctx, p, in, unchained.MinimalModel, shards(8))
		cancel()
		if err == nil {
			t.Skip("workload finished before the deadline; nothing to interrupt")
		}
		if !strings.Contains(err.Error(), "deadline") && !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("want typed interruption, got %v", err)
		}
	}
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
