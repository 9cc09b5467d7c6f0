package analyze

import (
	"strings"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/parser"
	"unchained/internal/trace"
	"unchained/internal/value"
	"unchained/programs"
)

func mustAnalyzeFile(t *testing.T, name string) *Report {
	t.Helper()
	p, err := parser.Parse(programs.Source(name), value.New())
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(p, nil)
}

func hasCode(ds ast.Diagnostics, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

// TestClassification pins the documented class of every stock
// program: the dialect inference, recommended semantics, and the
// headline diagnostics of the satellite spec (win → stratification
// witness, flip_flop → non-termination warning, counter →
// ordered-database counter info).
func TestClassification(t *testing.T) {
	cases := []struct {
		file         string
		dialect      ast.Dialect
		semantics    string
		stratifiable bool
		codes        []string // must be present
		absent       []string // must not be present
	}{
		{"tc.dl", ast.DialectDatalog, "minimal-model", true, nil, []string{CodeNotStratifiable, CodeNonTermination}},
		{"same_generation.dl", ast.DialectDatalog, "minimal-model", true, nil, nil},
		{"ct.dl", ast.DialectDatalogNeg, "stratified", true, []string{CodeUnused}, []string{CodeNotStratifiable}},
		{"closer.dl", ast.DialectDatalogNeg, "stratified", true, nil, nil},
		{"delayed_ct.dl", ast.DialectDatalogNeg, "stratified", true, nil, nil},
		{"even_ordered.dl", ast.DialectDatalogNeg, "semi-positive", true, nil, nil},
		{"win.dl", ast.DialectDatalogNeg, "well-founded", false, []string{CodeNotStratifiable}, []string{CodeNonTermination}},
		{"good_nodes.dl", ast.DialectDatalogNeg, "well-founded", false, []string{CodeNotStratifiable}, nil},
		{"flip_flop.dl", ast.DialectDatalogNegNeg, "noninflationary", true, []string{CodeNonTermination}, []string{CodeOrderedCounter}},
		{"counter.dl", ast.DialectDatalogNegNeg, "noninflationary", false, []string{CodeOrderedCounter}, []string{CodeNonTermination, CodeNotStratifiable}},
		{"counter4.dl", ast.DialectDatalogNegNeg, "noninflationary", false, []string{CodeOrderedCounter}, []string{CodeNonTermination}},
		{"orientation.dl", ast.DialectDatalogNegNeg, "noninflationary", true, nil, []string{CodeNonTermination, CodeOrderedCounter}},
		{"choice.dl", ast.DialectNDatalogNeg, "ndatalog", false, nil, nil},
		{"diff_bottom.dl", ast.DialectNDatalogBot, "ndatalog-bottom", true, nil, nil},
		{"diff_forall.dl", ast.DialectNDatalogAll, "ndatalog-forall", true, nil, nil},
		{"hamiltonian.dl", ast.DialectNDatalogAll, "ndatalog-forall", false, nil, nil},
		{"tag.dl", ast.DialectNDatalogNew, "ndatalog-new", false, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			r := mustAnalyzeFile(t, tc.file)
			if r.Dialect != tc.dialect {
				t.Errorf("dialect %s, want %s", r.Dialect, tc.dialect)
			}
			if r.Semantics != tc.semantics {
				t.Errorf("semantics %q, want %q", r.Semantics, tc.semantics)
			}
			if r.Stratifiable != tc.stratifiable {
				t.Errorf("stratifiable %v, want %v", r.Stratifiable, tc.stratifiable)
			}
			if r.Diags.HasErrors() {
				t.Errorf("unexpected errors: %v", r.Diags)
			}
			for _, c := range tc.codes {
				if !hasCode(r.Diags, c) {
					t.Errorf("missing %s in %v", c, r.Diags)
				}
			}
			for _, c := range tc.absent {
				if hasCode(r.Diags, c) {
					t.Errorf("unexpected %s in %v", c, r.Diags)
				}
			}
		})
	}
}

// TestWinWitnessPath checks the W001 witness: win.dl's negative
// self-cycle on Win with rule and position attached.
func TestWinWitnessPath(t *testing.T) {
	r := mustAnalyzeFile(t, "win.dl")
	for _, d := range r.Diags {
		if d.Code != CodeNotStratifiable {
			continue
		}
		if !strings.Contains(d.Message, "Win ¬→ Win") {
			t.Errorf("witness path missing from %q", d.Message)
		}
		if len(d.Related) != 1 || !d.Related[0].Pos.IsValid() {
			t.Errorf("witness edge lacks position: %+v", d.Related)
		}
		return
	}
	t.Fatalf("no W001 diagnostic: %v", r.Diags)
}

// TestRejections checks the stricter-dialect explanations: win.dl is
// not plain Datalog because of its negated body literal, with the
// literal's position.
func TestRejections(t *testing.T) {
	r := mustAnalyzeFile(t, "win.dl")
	if len(r.Rejections) != 1 {
		t.Fatalf("rejections: %+v", r.Rejections)
	}
	rej := r.Rejections[0]
	if rej.Dialect != ast.DialectDatalog || !strings.Contains(rej.Reason, "negation in bodies") || !rej.Pos.IsValid() {
		t.Fatalf("wrong rejection: %+v", rej)
	}
	if !hasCode(r.Diags, CodeRejection) {
		t.Fatalf("no I002 diagnostic: %v", r.Diags)
	}
}

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src, value.New())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestArityConflictsAggregated: every conflict is reported, each with
// a Related pointing at the first use.
func TestArityConflictsAggregated(t *testing.T) {
	r := Analyze(mustParse(t, "P(X) :- G(X).\nP(X,Y) :- G(X), G(Y).\nQ :- P(a,b,c), G(b,c).\n"), nil)
	var got []ast.Diagnostic
	for _, d := range r.Diags {
		if d.Code == ast.CodeArity {
			got = append(got, d)
		}
	}
	// P: arity 1 then 2 then 3 (two conflicts against the first use);
	// G: arity 1 then 2 (one conflict).
	if len(got) != 3 {
		t.Fatalf("got %d arity conflicts, want 3: %v", len(got), got)
	}
	for _, d := range got {
		if len(d.Related) != 1 || !d.Related[0].Pos.IsValid() || !d.Pos.IsValid() {
			t.Errorf("conflict lacks witness positions: %+v", d)
		}
	}
}

// TestUnsafeVariableWitness: E002 points at the head variable when a
// dialect is pinned; under inference the head-only variable instead
// pushes the program into the invention dialect, with the rejection
// reasons carrying the same witness.
func TestUnsafeVariableWitness(t *testing.T) {
	p := mustParse(t, "P(X, Y) :- G(X).\n")
	found := false
	for _, d := range p.ValidateDiags(ast.DialectDatalog) {
		if d.Code == ast.CodeUnsafeVar {
			found = true
			if d.Pos != (ast.Pos{Line: 1, Col: 6}) {
				t.Errorf("witness at %s, want 1:6 (the Y)", d.Pos)
			}
		}
	}
	if !found {
		t.Fatalf("no E002 under pinned Datalog: %v", p.ValidateDiags(ast.DialectDatalog))
	}
	r := Analyze(p, nil)
	if r.Dialect != ast.DialectDatalogNew {
		t.Fatalf("dialect %s: %v", r.Dialect, r.Diags)
	}
	if len(r.Rejections) == 0 || !strings.Contains(r.Rejections[0].Reason, "head variable Y") {
		t.Fatalf("rejections lack the unsafe-variable witness: %+v", r.Rejections)
	}
}

// TestNoAdmittingDialect: head negation plus value invention fits no
// dialect of the family.
func TestNoAdmittingDialect(t *testing.T) {
	r := Analyze(mustParse(t, "!P(X) :- Q(Y).\n"), nil)
	if r.Dialect != ast.DialectUnknown {
		t.Fatalf("dialect %s, want unknown", r.Dialect)
	}
	if !hasCode(r.Diags, CodeNoDialect) || !r.Diags.HasErrors() {
		t.Fatalf("no E004: %v", r.Diags)
	}
	if r.Semantics != "" {
		t.Fatalf("semantics %q for inadmissible program", r.Semantics)
	}
}

// TestUnderivable: mutual recursion with no base case can never fire.
func TestUnderivable(t *testing.T) {
	r := Analyze(mustParse(t, "A(X) :- B(X).\nB(X) :- A(X).\nAns(X) :- A(X).\n"), nil)
	n := 0
	for _, d := range r.Diags {
		if d.Code == CodeUnderivable {
			n++
		}
	}
	if n != 3 { // A, B, and Ans (which needs A)
		t.Fatalf("got %d underivable, want 3: %v", n, r.Diags)
	}
}

// TestUnused: ct.dl's CT is derived but never read.
func TestUnused(t *testing.T) {
	r := mustAnalyzeFile(t, "ct.dl")
	for _, d := range r.Diags {
		if d.Code == CodeUnused {
			if !strings.Contains(d.Message, "CT") {
				t.Errorf("unused diagnostic names %q, want CT", d.Message)
			}
			return
		}
	}
	t.Fatalf("no I003: %v", r.Diags)
}

// TestHandBuiltProgram: zero positions everywhere must not panic and
// must sort deterministically.
func TestHandBuiltProgram(t *testing.T) {
	p := ast.NewProgram(
		ast.R(ast.PosLit(ast.NewAtom("T", ast.V("X"))), ast.PosLit(ast.NewAtom("G", ast.V("X")))),
	)
	r := Analyze(p, nil)
	if r.Dialect != ast.DialectDatalog || r.Semantics != "minimal-model" {
		t.Fatalf("report: %+v", r)
	}
	for _, d := range r.Diags {
		if d.Pos.IsValid() {
			t.Errorf("hand-built program produced positioned diagnostic %+v", d)
		}
	}
}

// TestAnalyzeTraceSpans: the analyzer emits a balanced analyze span
// with one child span per pass.
func TestAnalyzeTraceSpans(t *testing.T) {
	rec := trace.NewRecorder(64)
	Analyze(mustParse(t, "T(X) :- G(X).\n"), &Options{Tracer: rec})
	evs := rec.Events()
	var begin, end, passes int
	var names []string
	for _, ev := range evs {
		if ev.Span != trace.SpanAnalyze {
			continue
		}
		switch ev.Ev {
		case trace.EvBegin:
			begin++
		case trace.EvEnd:
			end++
		case trace.EvSpan:
			passes++
			names = append(names, ev.Name)
		}
	}
	if begin != 1 || end != 1 {
		t.Fatalf("unbalanced analyze span: %d begin, %d end", begin, end)
	}
	want := []string{"validate", "dialect", "depgraph", "opportunities", "termination"}
	if len(names) != len(want) {
		t.Fatalf("pass spans %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("pass spans %v, want %v", names, want)
		}
	}
}
