package unchained_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"unchained"
	"unchained/internal/engine"
	"unchained/internal/queries"
)

// TestSemanticsRoundTrip checks that the naming table is closed under
// round-trips: every semantics prints a canonical name that parses
// back to itself, every canonical name is listed, and every row has an
// engine that EvalOptions reaches (auto is resolved before the table,
// it is not a row).
func TestSemanticsRoundTrip(t *testing.T) {
	s := unchained.NewSession()
	prog, in := s.MustParse(`T(X) :- G(X).`), s.MustFacts(`G(a).`)
	all := []unchained.Semantics{
		unchained.MinimalModel, unchained.Stratified, unchained.WellFounded,
		unchained.Inflationary, unchained.NonInflationary, unchained.Invent,
		unchained.SemiPositive, unchained.SemanticsAuto,
	}
	names := unchained.SemanticsNames()
	if len(names) != len(all) {
		t.Fatalf("SemanticsNames lists %d names, want %d", len(names), len(all))
	}
	listed := map[string]bool{}
	for _, n := range names {
		listed[n] = true
	}
	for _, sem := range all {
		name := sem.String()
		if strings.HasPrefix(name, "Semantics(") {
			t.Errorf("%d has no canonical name", sem)
			continue
		}
		got, ok := unchained.SemanticsByName[name]
		if !ok || got != sem {
			t.Errorf("round-trip of %v failed: SemanticsByName[%q] = %v, %v", sem, name, got, ok)
		}
		if !listed[name] {
			t.Errorf("canonical name %q missing from SemanticsNames", name)
		}
		res, err := s.EvalOptions(prog, in, sem, &engine.Options{Stats: unchained.NewStatsCollector()})
		if sem == unchained.SemanticsAuto {
			if err == nil {
				t.Error("EvalOptions ran auto, which is no row of the table")
			}
			continue
		}
		// The engines name themselves as the table does, hyphen aside.
		if err != nil || s.Format(res.Out) != "G(a).\nT(a).\n" || res.Stats.Engine != strings.ReplaceAll(name, "well-founded", "wellfounded") {
			t.Errorf("EvalOptions under %v: %v, %+v", sem, err, res)
		}
	}
	if s := unchained.Semantics(99).String(); s != "Semantics(99)" {
		t.Errorf("out-of-range String = %q", s)
	}
	if _, ok := unchained.SemanticsByName["nope"]; ok {
		t.Error("unknown name must not parse")
	}
}

// TestEvalContextOptions exercises the functional-options surface:
// stats collection and a stage bound.
func TestEvalContextOptions(t *testing.T) {
	s := unchained.NewSession()
	p := s.MustParse(`
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
	`)
	in := s.MustFacts(`G(a,b). G(b,c). G(c,d).`)
	col := unchained.NewStatsCollector()
	res, err := s.EvalContext(context.Background(), p, in, unchained.MinimalModel,
		unchained.WithStats(col))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.Engine != "minimal-model" {
		t.Fatalf("stats not collected: %+v", res.Stats)
	}
	if res.Stages == 0 || res.Out == nil {
		t.Fatalf("empty result: %+v", res)
	}
	if !res.Out.Has("T", unchained.Tuple{s.Sym("a"), s.Sym("d")}) {
		t.Fatal("T(a,d) missing")
	}
}

// TestEvalContextDeadline runs a 30-bit binary counter (2^30 stages,
// Theorem 4.8's exponential witness) under a short deadline and
// checks the typed error and the partial progress it carries.
func TestEvalContextDeadline(t *testing.T) {
	s := unchained.NewSession()
	p := s.MustParse(queries.Counter(30))
	edb := s.MustFacts(``)
	edb.Ensure("One", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	col := unchained.NewStatsCollector()
	start := time.Now()
	res, err := s.EvalContext(ctx, p, edb, unchained.NonInflationary,
		unchained.WithStats(col))
	if !errors.Is(err, unchained.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not honored: took %v", elapsed)
	}
	if !strings.Contains(err.Error(), "deadline exceeded after") {
		t.Fatalf("message = %q", err.Error())
	}
	if res == nil || res.Stages == 0 || res.Stats == nil || res.Stats.Stages == 0 {
		t.Fatalf("partial progress missing: %+v", res)
	}
}

// TestEvalContextDeadlineInsideAStage bounds evaluations whose first
// stage, or first round after it, is a single join of 40^6 (or 40^5)
// valuations over a complete K (minutes of work) by a 200 ms deadline:
// the matcher's poll stops the stage within 256 firings of the
// deadline, under every engine on the semi-naive kernel and Datalog¬¬,
// in round one and in a delta round. Every variable of the join reaches
// the head or a later literal, so no existential cut shortens it. The
// stopped stage is not counted, and its facts are not applied.
func TestEvalContextDeadlineInsideAStage(t *testing.T) {
	var facts strings.Builder
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			fmt.Fprintf(&facts, "K(c%d,c%d). ", i, j)
		}
	}
	facts.WriteString("S(c0).")
	const heavy = "P(A,F) :- K(A,B), K(B,C), K(C,D), K(D,E), K(E,F)."
	for _, c := range []struct {
		program string
		sem     unchained.Semantics
		stages  int // stages completed before the deadline
	}{
		{heavy, unchained.MinimalModel, 0},
		{heavy, unchained.Stratified, 0},
		{heavy, unchained.WellFounded, 0},
		{heavy, unchained.Inflationary, 0},
		{heavy, unchained.NonInflationary, 0},
		// Round two, the delta of T, is the heavy one.
		{"T(X) :- S(X).\nP(A,F) :- T(A), K(A,B), K(B,C), K(C,D), K(D,E), K(E,F).", unchained.MinimalModel, 1},
	} {
		s := unchained.NewSession()
		p, in := s.MustParse(c.program), s.MustFacts(facts.String())
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		start := time.Now()
		res, err := s.EvalContext(ctx, p, in, c.sem)
		elapsed := time.Since(start)
		cancel()
		name := fmt.Sprintf("%v, %d stages", c.sem, c.stages)
		if !errors.Is(err, unchained.ErrDeadline) {
			t.Fatalf("%s: want ErrDeadline, got %v", name, err)
		}
		if elapsed > 20*time.Second {
			t.Fatalf("%s: the deadline stopped the stage after %v", name, elapsed)
		}
		if want := fmt.Sprintf("after %d stages", c.stages); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q, want %q", name, err, want)
		}
		if res == nil || res.Out.Relation("P") != nil && res.Out.Relation("P").Len() > 0 {
			t.Fatalf("%s: the stopped stage was applied: %+v", name, res)
		}
	}
}

// TestEvalContextCancelNoGoroutineLeak cancels a long evaluation and
// checks both the typed error and that no evaluation goroutines
// outlive the call.
func TestEvalContextCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := unchained.NewSession()
	p := s.MustParse(queries.Counter(30))
	edb := s.MustFacts(``)
	edb.Ensure("One", 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.EvalContext(ctx, p, edb, unchained.NonInflationary)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, unchained.ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the evaluation")
	}
	// Give the runtime a moment to retire the worker goroutine, then
	// compare with tolerance: unrelated runtime goroutines may come
	// and go.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentForkedEvaluations runs well over 8 concurrent
// evaluations over programs parsed once in the base session; each
// goroutine evaluates against its own Fork. Run with -race.
func TestConcurrentForkedEvaluations(t *testing.T) {
	base := unchained.NewSession()
	tc := base.MustParse(`
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
	`)
	win := base.MustParse(`Win(X) :- Move(X,Y), !Win(Y).`)
	edb := base.MustFacts(`G(a,b). G(b,c). G(c,d). G(d,e).
		Move(a,b). Move(b,a). Move(b,c). Move(c,d).`)

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := base.Fork()
			var err error
			switch i % 3 {
			case 0:
				var res *unchained.EvalResult
				res, err = s.EvalContext(context.Background(), tc, edb, unchained.MinimalModel)
				if err == nil && !res.Out.Has("T", unchained.Tuple{base.Sym("a"), base.Sym("e")}) {
					err = errors.New("T(a,e) missing")
				}
			case 1:
				_, err = s.EvalWellFounded3Context(context.Background(), win, edb)
			case 2:
				var res *unchained.EvalResult
				res, err = s.EvalContext(context.Background(), tc, edb, unchained.Inflationary,
					unchained.WithStats(unchained.NewStatsCollector()))
				if err == nil && res.Stats == nil {
					err = errors.New("stats missing")
				}
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
}

// TestForkIsolation checks that interning in a fork never leaks into
// the base universe.
func TestForkIsolation(t *testing.T) {
	base := unchained.NewSession()
	a := base.Sym("a")
	f := base.Fork()
	if f.Sym("a") != a {
		t.Fatal("pre-fork values must coincide")
	}
	f.Sym("only-in-fork")
	if base.U.Lookup("only-in-fork") != 0 {
		t.Fatal("fork interning leaked into the base universe")
	}
}
