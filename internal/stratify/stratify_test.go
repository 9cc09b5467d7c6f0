package stratify

import (
	"slices"
	"strings"
	"testing"

	"unchained/internal/parser"
	"unchained/internal/value"
)

func TestStratifyTCAndComplement(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
		CT(X,Y) :- !T(X,Y).
	`, u)
	s, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	if stratum(s, "T") >= stratum(s, "CT") {
		t.Fatalf("CT must live strictly above T: %+v", s)
	}
	if stratum(s, "G") != 0 {
		t.Fatalf("EDB should be at stratum 0")
	}
	if got := s[stratum(s, "CT")].Rules; len(got) != 1 || got[0] != 2 {
		t.Fatalf("CT's stratum has rules %v, want [2]", got)
	}
}

// stratum returns the index of the group holding pred, or -1.
func stratum(groups []Group, pred string) int {
	for i, g := range groups {
		for _, p := range g.Preds {
			if p == pred {
				return i
			}
		}
	}
	return -1
}

func TestStratifyRejectsWin(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`Win(X) :- Moves(X,Y), !Win(Y).`, u)
	if _, err := Stratify(p); err == nil {
		t.Fatalf("win program stratified")
	}
}

func TestStratifyMutualRecursionPositive(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`
		Even(X) :- Zero(X).
		Even(X) :- Succ(Y,X), Odd(Y).
		Odd(X) :- Succ(Y,X), Even(Y).
	`, u)
	s, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	if stratum(s, "Even") != stratum(s, "Odd") {
		t.Fatalf("mutually recursive preds must share a stratum")
	}
}

func TestStratifyMutualRecursionThroughNegation(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`
		A(X) :- P(X), !B(X).
		B(X) :- P(X), !A(X).
	`, u)
	if _, err := Stratify(p); err == nil {
		t.Fatalf("negative mutual recursion stratified")
	}
}

func TestStratifyChainOfNegations(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`
		B(X) :- P(X), !A(X).
		C(X) :- P(X), !B(X).
		D(X) :- P(X), !C(X).
		A(X) :- P(X), Q(X).
	`, u)
	s, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	if !(stratum(s, "A") < stratum(s, "B") && stratum(s, "B") < stratum(s, "C") && stratum(s, "C") < stratum(s, "D")) {
		t.Fatalf("levels not strictly increasing: %+v", s)
	}
	if len(s) != stratum(s, "D")+1 {
		t.Fatalf("strata count %d vs max level %d", len(s), stratum(s, "D"))
	}
}

func TestStratifyNegationUnderForall(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`A(X) :- forall Y (P(X), !A(Y)).`, u)
	if _, err := Stratify(p); err == nil {
		t.Fatalf("negative self-dependency under forall stratified")
	}
}

// TestGroupsSplitOffNegativeCycles: the win component is a group of its
// own, strictly above the closure it reads and strictly below what reads
// it; a level's cyclic groups come before the rest of the level, so Iso
// (level 1, beside Win) comes after Win and P/Q before the closure.
func TestGroupsSplitOffNegativeCycles(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
		Win(X) :- T(X,Y), !Win(Y).
		Lose(X) :- N(X), !Win(X).
		Reach(X) :- Lose(X).
		Reach(Y) :- Reach(X), T(X,Y).
		Iso(X) :- N(X), !T(X,X).
		P :- !Q.
		Q :- !P.
	`, u)
	type want struct {
		preds  string
		rules  []int
		reads  []int
		cyclic bool
	}
	wants := []want{
		{"P Q", []int{7, 8}, nil, true},
		{"G N T", []int{0, 1}, nil, false},
		{"Win", []int{2}, []int{1}, true},
		{"Iso", []int{6}, []int{1}, false},
		{"Lose Reach", []int{3, 4, 5}, []int{1, 2}, false},
	}
	groups := BuildGraph(p).Groups()
	if len(groups) != len(wants) {
		t.Fatalf("%d groups, want %d: %+v", len(groups), len(wants), groups)
	}
	for i, w := range wants {
		g := groups[i]
		if strings.Join(g.Preds, " ") != w.preds || !slices.Equal(g.Rules, w.rules) || !slices.Equal(g.Reads, w.reads) || g.Cyclic != w.cyclic {
			t.Errorf("group %d = %+v, want %+v", i, g, w)
		}
	}
	if _, err := Stratify(p); err == nil || !strings.Contains(err.Error(), "Win and Win") {
		t.Fatalf("Stratify: %v, want the Win self-negation named", err)
	}
}

func TestGraphEdgesPolarity(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`A(X) :- B(X), !C(X).`, u)
	g := BuildGraph(p)
	var posE, negE int
	for _, e := range g.Edges {
		if e.From != "A" {
			t.Fatalf("unexpected edge source %s", e.From)
		}
		if e.Negative {
			negE++
			if e.To != "C" {
				t.Fatalf("negative edge to %s", e.To)
			}
		} else {
			posE++
			if e.To != "B" {
				t.Fatalf("positive edge to %s", e.To)
			}
		}
	}
	if posE != 1 || negE != 1 {
		t.Fatalf("edges: %d pos, %d neg", posE, negE)
	}
}

func TestNegativeCycleWitness(t *testing.T) {
	u := value.New()
	// Example 3.2: Win(X) :- Moves(X,Y), !Win(Y) — a negative self-cycle.
	p := parser.MustParse("Win(X) :- Moves(X,Y), !Win(Y).", u)
	g := BuildGraph(p)
	cyc := g.NegativeCycle()
	if len(cyc) != 1 {
		t.Fatalf("witness has %d edges, want 1: %+v", len(cyc), cyc)
	}
	e := cyc[0]
	if e.From != "Win" || e.To != "Win" || !e.Negative {
		t.Fatalf("wrong witness edge: %+v", e)
	}
	if e.Rule != 0 || !e.Pos.IsValid() {
		t.Fatalf("witness edge lacks rule/pos: %+v", e)
	}

	// A longer cycle: P -!-> Q -> P.
	p2 := parser.MustParse("P(X) :- !Q(X).\nQ(X) :- P(X).", u)
	cyc2 := BuildGraph(p2).NegativeCycle()
	if len(cyc2) != 2 {
		t.Fatalf("witness has %d edges, want 2: %+v", len(cyc2), cyc2)
	}
	if cyc2[0].From != "P" || cyc2[0].To != "Q" || !cyc2[0].Negative {
		t.Fatalf("wrong first edge: %+v", cyc2[0])
	}
	if cyc2[1].From != "Q" || cyc2[1].To != "P" || cyc2[1].Negative {
		t.Fatalf("wrong closing edge: %+v", cyc2[1])
	}

	// Stratifiable: no witness.
	p3 := parser.MustParse("T(X,Y) :- G(X,Y).\nCT(X,Y) :- !T(X,Y).", u)
	if cyc := BuildGraph(p3).NegativeCycle(); cyc != nil {
		t.Fatalf("stratifiable program has witness: %+v", cyc)
	}
}
