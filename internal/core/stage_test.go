package core

import (
	"errors"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/parser"
	"unchained/internal/stats"
	"unchained/internal/value"
)

// sharedRelSrc has several rules reading and writing the same
// relations, with cross-rule duplicate derivations (A(b) from both P
// and Q; every C fact from two symmetric rules) — the shapes that
// stress a stage's duplicate handling.
const sharedRelSrc = `
	A(X) :- P(X).
	A(X) :- Q(X).
	B(X) :- A(X), P(X).
	B(X) :- A(X), Q(X).
	C(X,Y) :- A(X), B(Y).
	C(X,Y) :- B(X), A(Y).
`

// TestStageDuplicateAbsorption: several rules emit the same head fact
// in one stage, and the stage must absorb the duplicates rather than
// double-count them in the delta.
func TestStageDuplicateAbsorption(t *testing.T) {
	u := value.New()
	p := parser.MustParse(sharedRelSrc, u)
	in := parser.MustParseFacts(`P(a). P(b). Q(b). Q(c).`, u)
	res, err := EvalInflationary(p, in, u, &Options{Stats: stats.New()})
	if err != nil {
		t.Fatal(err)
	}
	// Per-stage deltas count facts actually inserted, so duplicate
	// emissions must not inflate them past the instance growth.
	var deltaSum int64
	for _, st := range res.Stats.PerStage {
		deltaSum += st.Delta
	}
	if want := int64(res.Out.Facts() - in.Facts()); deltaSum != want {
		t.Fatalf("stage deltas sum to %d, instance grew by %d", deltaSum, want)
	}
}

// TestInflationaryEmptyProgram: no rules means no stages and the input
// handed back.
func TestInflationaryEmptyProgram(t *testing.T) {
	u := value.New()
	in := parser.MustParseFacts(`G(a,b). G(b,c).`, u)
	res, err := EvalInflationary(&ast.Program{}, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages != 0 || !res.Out.Equal(in) {
		t.Fatalf("empty program: stages=%d", res.Stages)
	}
}

func TestOptionsValidation(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	pNeg := parser.MustParse(flipFlopSrc, u)
	pNew := parser.MustParse(`Cell(N,X) :- P(X).`, u)
	in := parser.MustParseFacts(`G(a,b). P(a).`, u)
	inNeg := parser.MustParseFacts(`T(0).`, u)

	cases := []struct {
		name string
		opt  *Options
		ok   bool
	}{
		{"nil options", nil, true},
		{"zero options", &Options{}, true},
		{"MaxStages -1", &Options{MaxStages: -1}, false},
		{"MaxStages 0", &Options{MaxStages: 0}, true},
		{"MaxStages 1", &Options{MaxStages: 1}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := EvalInflationary(p, in, u, c.opt)
			if c.ok {
				// MaxStages 1 legitimately hits the stage limit; only
				// ErrInvalidOptions would be a failure.
				if errors.Is(err, ErrInvalidOptions) {
					t.Fatalf("EvalInflationary rejected valid options: %v", err)
				}
			} else if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("EvalInflationary(%s) err = %v, want ErrInvalidOptions", c.name, err)
			}
		})
	}

	// The other two forward-chaining entry points validate too.
	if _, err := EvalNonInflationary(pNeg, inNeg, u, &Options{MaxStages: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("EvalNonInflationary accepted MaxStages -1: %v", err)
	}
	if _, err := EvalInvent(pNew, in, u, &Options{MaxStates: -2}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("EvalInvent accepted MaxStates -2: %v", err)
	}
}

func TestConflictPolicyString(t *testing.T) {
	cases := []struct {
		p    ConflictPolicy
		want string
	}{
		{PreferPositive, "prefer-positive"},
		{PreferNegative, "prefer-negative"},
		{NoOp, "no-op"},
		{Inconsistent, "inconsistent"},
		{ConflictPolicy(4), "ConflictPolicy(4)"},
		{ConflictPolicy(255), "ConflictPolicy(255)"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("ConflictPolicy(%d).String() = %q, want %q", uint8(c.p), got, c.want)
		}
	}
}

// TestNonInflationaryStats checks the Datalog¬¬-specific counters:
// retractions and conflict resolutions.
func TestNonInflationaryStats(t *testing.T) {
	u := value.New()
	// One stage retracts T(1) (no conflict), the next infers nothing.
	p := parser.MustParse(`!T(1) :- T(1), Done().`, u)
	in := parser.MustParseFacts(`T(1). Done().`, u)
	col := stats.New()
	res, err := EvalNonInflationary(p, in, u, &Options{Stats: col})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Retractions != 1 {
		t.Fatalf("retractions = %d, want 1", res.Stats.Retractions)
	}
	if res.Stats.Stages != res.Stages {
		t.Fatalf("Stats.Stages = %d, Result.Stages = %d", res.Stats.Stages, res.Stages)
	}

	// A and ¬A in the same stage: one conflict, resolved by the
	// default prefer-positive policy (A stays).
	pc := parser.MustParse("A() :- P().\n\t!A() :- P().", u)
	inc := parser.MustParseFacts(`P().`, u)
	colc := stats.New()
	resc, err := EvalNonInflationary(pc, inc, u, &Options{Stats: colc})
	if err != nil {
		t.Fatal(err)
	}
	if resc.Stats.Conflicts == 0 {
		t.Fatalf("conflict not counted: %+v", resc.Stats)
	}
	if resc.Out.Relation("A") == nil {
		t.Fatalf("prefer-positive dropped A")
	}
}

// TestInventStats checks invention accounting and that Skolemized
// re-firings do not invent twice.
func TestInventStats(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`Cell(N,X) :- P(X).`, u)
	in := parser.MustParseFacts(`P(a). P(b).`, u)
	col := stats.New()
	res, err := EvalInvent(p, in, u, &Options{Stats: col})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Invented != 2 {
		t.Fatalf("invented = %d, want 2 (one per P fact, reused on re-firing)", res.Stats.Invented)
	}
	if res.Stats.Stages != res.Stages {
		t.Fatalf("Stats.Stages = %d, Result.Stages = %d", res.Stats.Stages, res.Stages)
	}
}

// TestStatsProbesFollowScanOption pins the index-probe/full-scan
// attribution to the Ctx.Scan branch.
func TestStatsProbesFollowScanOption(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,d).`, u)
	probeCol, scanCol := stats.New(), stats.New()
	if _, err := EvalInflationary(p, in, u, &Options{Stats: probeCol}); err != nil {
		t.Fatal(err)
	}
	if _, err := EvalInflationary(p, in, u, &Options{Scan: true, Stats: scanCol}); err != nil {
		t.Fatal(err)
	}
	ps, ss := probeCol.Summary(), scanCol.Summary()
	if ps.IndexProbes == 0 || ps.FullScans != 0 {
		t.Fatalf("indexed run: probes=%d scans=%d", ps.IndexProbes, ps.FullScans)
	}
	if ss.FullScans == 0 || ss.IndexProbes != 0 {
		t.Fatalf("scan run: probes=%d scans=%d", ss.IndexProbes, ss.FullScans)
	}
}
