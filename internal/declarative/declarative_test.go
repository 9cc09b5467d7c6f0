package declarative

import (
	"sort"
	"strings"
	"testing"

	"unchained/internal/parser"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

const tcSrc = `
	T(X,Y) :- G(X,Y).
	T(X,Y) :- G(X,Z), T(Z,Y).
`

const ctSrc = tcSrc + `
	CT(X,Y) :- !T(X,Y).
`

// winSrc is the nonstratifiable program of Example 3.2.
const winSrc = `Win(X) :- Moves(X,Y), !Win(Y).`

// movesE32 is the instance K of Example 3.2.
const movesE32 = `
	Moves(b,c). Moves(c,a). Moves(a,b). Moves(a,d).
	Moves(d,e). Moves(d,f). Moves(f,g).
`

func rel(t *testing.T, in *tuple.Instance, u *value.Universe, pred string) []string {
	t.Helper()
	r := in.Relation(pred)
	if r == nil {
		return nil
	}
	var out []string
	for _, tp := range r.SortedTuples(u) {
		out = append(out, tp.String(u))
	}
	return out
}

func TestEvalTransitiveClosureChain(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,d).`, u)
	res, err := Eval(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := rel(t, res.Out, u, "T")
	want := []string{"(a,b)", "(a,c)", "(a,d)", "(b,c)", "(b,d)", "(c,d)"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("T = %v, want %v", got, want)
	}
	if in.Relation("T") != nil {
		t.Fatalf("input instance mutated")
	}
}

func TestEvalCycle(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,a).`, u)
	res, err := Eval(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.Relation("T").Len() != 4 {
		t.Fatalf("T on 2-cycle = %d tuples, want 4", res.Out.Relation("T").Len())
	}
}

func TestNaiveMatchesSemiNaive(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`
		G(a,b). G(b,c). G(c,d). G(d,a). G(b,e). G(e,f).
	`, u)
	r1, err := Eval(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := EvalNaive(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Out.Equal(r2.Out) {
		t.Fatalf("naive and semi-naive disagree:\n%s\nvs\n%s", r1.Out.String(u), r2.Out.String(u))
	}
}

func TestScanMatchesIndexed(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,a). G(c,d).`, u)
	r1, err := Eval(p, in, u, &Options{Stats: stats.New()})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Eval(p, in, u, &Options{Scan: true, Stats: stats.New()})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Out.Equal(r2.Out) {
		t.Fatalf("scan and indexed evaluation disagree")
	}
	// The ablation is visible in the summary: the indexed run matches
	// with probes only, the scan run with scans only.
	if r1.Stats.FullScans != 0 || r2.Stats.IndexProbes != 0 {
		t.Fatalf("indexed run scans=%d, scan run probes=%d, want 0 and 0", r1.Stats.FullScans, r2.Stats.IndexProbes)
	}
}

func TestEvalRejectsNegation(t *testing.T) {
	u := value.New()
	p := parser.MustParse(ctSrc, u)
	if _, err := Eval(p, tuple.NewInstance(), u, nil); err == nil {
		t.Fatalf("positive engine accepted negation")
	}
}

func TestStratifiedComplementOfTC(t *testing.T) {
	u := value.New()
	p := parser.MustParse(ctSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c).`, u)
	res, err := EvalStratified(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	// T = {(a,b),(b,c),(a,c)}; CT = 9 - 3 = 6 pairs.
	if res.Out.Relation("CT").Len() != 6 {
		t.Fatalf("CT = %d tuples, want 6", res.Out.Relation("CT").Len())
	}
	if res.Out.Has("CT", tuple.Tuple{u.Sym("a"), u.Sym("c")}) {
		t.Fatalf("CT contains (a,c), which is in T")
	}
	if !res.Out.Has("CT", tuple.Tuple{u.Sym("b"), u.Sym("a")}) {
		t.Fatalf("CT missing (b,a)")
	}
}

func TestStratifiedRejectsWin(t *testing.T) {
	u := value.New()
	p := parser.MustParse(winSrc, u)
	in := parser.MustParseFacts(movesE32, u)
	if _, err := EvalStratified(p, in, u, nil); err == nil {
		t.Fatalf("stratified engine accepted recursion through negation")
	}
}

func TestStratifiedMultiLevel(t *testing.T) {
	u := value.New()
	// Three strata: T, then CT, then D over CT.
	p := parser.MustParse(ctSrc+`
		D(X) :- CT(X,X).
		E(X) :- !D(X), Node(X).
	`, u)
	in := parser.MustParseFacts(`G(a,b). G(b,a). Node(a). Node(b). Node(c).`, u)
	res, err := EvalStratified(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	// T on the 2-cycle contains (a,a),(b,b): D empty for a,b? T =
	// {(a,b),(b,a),(a,a),(b,b)}; CT(x,x) only for c... but c is in
	// adom via Node. CT over adom {a,b,c}: all pairs involving c,
	// so D = {c}, E = {a,b}.
	if got := rel(t, res.Out, u, "D"); strings.Join(got, " ") != "(c)" {
		t.Fatalf("D = %v", got)
	}
	if got := rel(t, res.Out, u, "E"); strings.Join(got, " ") != "(a) (b)" {
		t.Fatalf("E = %v", got)
	}
}

func TestWellFoundedWinExample32(t *testing.T) {
	u := value.New()
	p := parser.MustParse(winSrc, u)
	in := parser.MustParseFacts(movesE32, u)
	res, err := EvalWellFounded(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	tv := func(s string) TruthValue {
		return res.Truth("Win", tuple.Tuple{u.Sym(s)})
	}
	// Paper: true win(d), win(f); false win(e), win(g);
	// unknown win(a), win(b), win(c).
	for s, want := range map[string]TruthValue{
		"d": True, "f": True,
		"e": False, "g": False,
		"a": Unknown, "b": Unknown, "c": Unknown,
	} {
		if got := tv(s); got != want {
			t.Errorf("Win(%s) = %v, want %v", s, got, want)
		}
	}
	if res.Total() {
		t.Errorf("model should not be total")
	}
	unk := res.UnknownFacts("Win")
	if len(unk) != 3 {
		t.Errorf("unknown facts = %d, want 3", len(unk))
	}
}

func TestWellFoundedTotalOnStratified(t *testing.T) {
	u := value.New()
	p := parser.MustParse(ctSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,a). G(c,d).`, u)
	wfs, err := EvalWellFounded(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !wfs.Total() {
		t.Fatalf("WFS of a stratified program must be total")
	}
	strat, err := EvalStratified(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !wfs.True.Equal(strat.Out) {
		t.Fatalf("WFS and stratified semantics disagree on a stratified program:\n%s\nvs\n%s",
			wfs.True.String(u), strat.Out.String(u))
	}
}

func TestWellFoundedWinOnChain(t *testing.T) {
	// A simple chain a->b->c: c loses (no moves), so b wins, so a
	// loses. Fully determined: total model.
	u := value.New()
	p := parser.MustParse(winSrc, u)
	in := parser.MustParseFacts(`Moves(a,b). Moves(b,c).`, u)
	res, err := EvalWellFounded(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Total() {
		t.Fatalf("chain game should be total")
	}
	if res.Truth("Win", tuple.Tuple{u.Sym("b")}) != True {
		t.Fatalf("Win(b) should be true")
	}
	if res.Truth("Win", tuple.Tuple{u.Sym("a")}) != False {
		t.Fatalf("Win(a) should be false")
	}
}

func TestWellFoundedEmptyInput(t *testing.T) {
	u := value.New()
	p := parser.MustParse(winSrc, u)
	res, err := EvalWellFounded(p, tuple.NewInstance(), u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Total() || res.True.Facts() != 0 {
		t.Fatalf("empty input should give empty total model")
	}
}

func TestRoundsCounted(t *testing.T) {
	u := value.New()
	p := parser.MustParse(tcSrc, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,d). G(d,e).`, u)
	semi, err := Eval(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := EvalNaive(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if semi.Stages < 2 || naive.Stages < 2 {
		t.Fatalf("rounds look wrong: semi=%d naive=%d", semi.Stages, naive.Stages)
	}
}

func TestStratifiedSamegeneration(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`
		Sg(X,Y) :- Flat(X,Y).
		Sg(X,Y) :- Up(X,U), Sg(U,V), Down(V,Y).
	`, u)
	in := parser.MustParseFacts(`
		Up(a,b). Up(c,b). Flat(b,b). Down(b,d). Down(b,e).
	`, u)
	res, err := EvalStratified(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tp := range res.Out.Relation("Sg").SortedTuples(u) {
		got = append(got, tp.String(u))
	}
	sort.Strings(got)
	for _, want := range []string{"(a,d)", "(a,e)", "(c,d)", "(c,e)", "(b,b)"} {
		found := false
		for _, g := range got {
			if g == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Sg missing %s (got %v)", want, got)
		}
	}
}
