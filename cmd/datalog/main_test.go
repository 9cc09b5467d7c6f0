package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unchained/internal/flight"
	"unchained/internal/queries"
	"unchained/internal/stats"
	"unchained/internal/trace"
)

// write creates a temp file with the given contents.
func write(t *testing.T, dir, name, contents string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb, io.Discard)
	return sb.String(), err
}

// runCLIStats also captures the -stats stderr stream.
func runCLIStats(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var sb, eb strings.Builder
	err := run(args, &sb, &eb)
	return sb.String(), eb.String(), err
}

func TestCLIStratified(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", `
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
	`)
	facts := write(t, dir, "g.facts", `G(a,b). G(b,c).`)
	out, err := runCLI(t, "-program", prog, "-facts", facts, "-semantics", "stratified")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "T(a,c).") {
		t.Fatalf("missing T(a,c):\n%s", out)
	}
	if strings.Contains(out, "G(a,b).") {
		t.Fatalf("EDB leaked into answer:\n%s", out)
	}
}

func TestCLIAnswerRestriction(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "p.dl", `
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
		CT(X,Y) :- !T(X,Y).
	`)
	facts := write(t, dir, "g.facts", `G(a,b).`)
	out, err := runCLI(t, "-program", prog, "-facts", facts, "-answer", "CT")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "T(a,b)") {
		t.Fatalf("-answer filter ignored:\n%s", out)
	}
	if !strings.Contains(out, "CT(b,a).") {
		t.Fatalf("missing CT row:\n%s", out)
	}
}

func TestCLIWellFoundedThreeValued(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "win.dl", `Win(X) :- Moves(X,Y), !Win(Y).`)
	facts := write(t, dir, "game.facts", `Moves(a,b). Moves(b,a). Moves(a,c).`)
	out, err := runCLI(t, "-program", prog, "-facts", facts, "-semantics", "wellfounded", "-three")
	if err != nil {
		t.Fatal(err)
	}
	// a can move to c (c loses: no moves) so Win(a) is true; b's only
	// move is to a (winning), so b is losing: false (not printed);
	// nothing is unknown here.
	if !strings.Contains(out, "true    Win(a).") {
		t.Fatalf("expected true Win(a):\n%s", out)
	}
	if strings.Contains(out, "Win(b)") {
		t.Fatalf("losing state printed:\n%s", out)
	}
}

func TestCLIInflationaryStages(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", `
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
	`)
	facts := write(t, dir, "g.facts", `G(a,b). G(b,c). G(c,d).`)
	out, err := runCLI(t, "-program", prog, "-facts", facts, "-semantics", "inflationary", "-stages")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "% stage 1:") || !strings.Contains(out, "% fixpoint after 3 stages") {
		t.Fatalf("stage trace missing:\n%s", out)
	}
}

func TestCLINondetSeedReproducible(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "o.dl", `!G(X,Y) :- G(X,Y), G(Y,X).`)
	facts := write(t, dir, "g.facts", `G(a,b). G(b,a).`)
	out1, err := runCLI(t, "-program", prog, "-facts", facts, "-semantics", "ndatalog", "-seed", "5", "-answer", "G")
	if err != nil {
		t.Fatal(err)
	}
	out2, err := runCLI(t, "-program", prog, "-facts", facts, "-semantics", "ndatalog", "-seed", "5", "-answer", "G")
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatalf("same seed, different output:\n%s\nvs\n%s", out1, out2)
	}
}

func TestCLIEffects(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "o.dl", `!G(X,Y) :- G(X,Y), G(Y,X).`)
	facts := write(t, dir, "g.facts", `G(a,b). G(b,a).`)
	out, err := runCLI(t, "-program", prog, "-facts", facts, "-semantics", "effects", "-answer", "G")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "eff(P) has 2 terminal states") {
		t.Fatalf("effects summary missing:\n%s", out)
	}
	if !strings.Contains(out, "% poss:") || !strings.Contains(out, "% cert:") {
		t.Fatalf("poss/cert missing:\n%s", out)
	}
}

func TestCLIWhileLanguage(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.wl", `
		T(X,Y) += G(X,Y);
		while change do {
			T(X,Y) += exists Z (T(X,Z) and G(Z,Y));
		}
	`)
	facts := write(t, dir, "g.facts", `G(a,b). G(b,c).`)
	out, err := runCLI(t, "-program", prog, "-facts", facts, "-language", "while")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fixpoint program") || !strings.Contains(out, "T(a,c).") {
		t.Fatalf("while run wrong:\n%s", out)
	}
}

func TestCLIOrderFlag(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "even.dl", `
		OddUpto(X)  :- First(X), R(X).
		EvenUpto(X) :- First(X), !R(X).
		OddUpto(Y)  :- Succ(X,Y), EvenUpto(X), R(Y).
		OddUpto(Y)  :- Succ(X,Y), OddUpto(X), !R(Y).
		EvenUpto(Y) :- Succ(X,Y), OddUpto(X), R(Y).
		EvenUpto(Y) :- Succ(X,Y), EvenUpto(X), !R(Y).
		EvenAns :- Last(X), EvenUpto(X).
	`)
	facts := write(t, dir, "r.facts", `R(a). R(b).`)
	out, err := runCLI(t, "-program", prog, "-facts", facts, "-order", "-answer", "EvenAns")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "EvenAns().") {
		t.Fatalf("|R|=2 should be even:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "bad.dl", `T(X) :- G(X,Y`)
	facts := write(t, dir, "g.facts", `G(a,b).`)
	if _, err := runCLI(t, "-program", prog, "-facts", facts); err == nil {
		t.Fatalf("parse error not propagated")
	}
	good := write(t, dir, "good.dl", `T(X) :- G(X,X).`)
	if _, err := runCLI(t, "-program", good, "-facts", facts, "-semantics", "nope"); err == nil {
		t.Fatalf("unknown semantics accepted")
	}
	if _, err := runCLI(t, "-facts", facts); err == nil {
		t.Fatalf("missing -program accepted")
	}
	if _, err := runCLI(t, "-program", filepath.Join(dir, "absent.dl")); err == nil {
		t.Fatalf("missing file accepted")
	}
}

func TestCLIInventCounts(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "inv.dl", `Cell(N,X) :- P(X).`)
	facts := write(t, dir, "p.facts", `P(a). P(b).`)
	out, err := runCLI(t, "-program", prog, "-facts", facts, "-semantics", "invent")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(2 values invented)") {
		t.Fatalf("invention count missing:\n%s", out)
	}
	if !strings.Contains(out, "Cell($") {
		t.Fatalf("invented values not printed:\n%s", out)
	}
}

// TestCLIStatsJSON pins the -stats contract: one valid JSON summary
// on stderr, whose stage count matches the printed fixpoint stage
// count.
func TestCLIStatsJSON(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", `
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
	`)
	facts := write(t, dir, "g.facts", `G(a,b). G(b,c). G(c,d).`)

	out, errOut, err := runCLIStats(t, "-program", prog, "-facts", facts, "-semantics", "inflationary", "-stats")
	if err != nil {
		t.Fatal(err)
	}
	var sum stats.Summary
	if err := json.Unmarshal([]byte(errOut), &sum); err != nil {
		t.Fatalf("-stats stderr is not valid JSON: %v\n%s", err, errOut)
	}
	if sum.Engine != "inflationary" {
		t.Fatalf("engine = %q", sum.Engine)
	}
	if want := fmt.Sprintf("%% fixpoint after %d stages", sum.Stages); !strings.Contains(out, want) {
		t.Fatalf("stats stages=%d does not match printed stage count:\n%s", sum.Stages, out)
	}
	if len(sum.PerStage) != sum.Stages {
		t.Fatalf("per_stage has %d entries, stages=%d", len(sum.PerStage), sum.Stages)
	}
	if sum.Firings == 0 || sum.Derived == 0 || len(sum.PerRule) != 2 {
		t.Fatalf("implausible summary: %+v", sum)
	}

	// Without -stats, stderr stays silent.
	_, errOut, err = runCLIStats(t, "-program", prog, "-facts", facts, "-semantics", "inflationary")
	if err != nil {
		t.Fatal(err)
	}
	if errOut != "" {
		t.Fatalf("unexpected stderr without -stats: %q", errOut)
	}
}

// TestCLIStatsAllSemantics smoke-tests that every semantics flag value
// emits exactly one JSON line under -stats.
func TestCLIStatsAllSemantics(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", `
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
	`)
	facts := write(t, dir, "g.facts", `G(a,b). G(b,c).`)
	orient := write(t, dir, "o.dl", `!G(X,Y) :- G(X,Y), G(Y,X).`)
	ofacts := write(t, dir, "g2.facts", `G(a,b). G(b,a).`)
	inv := write(t, dir, "inv.dl", `Cell(N,X) :- P(X).`)
	pfacts := write(t, dir, "p.facts", `P(a). P(b).`)
	wl := write(t, dir, "tc.wl", `
		T(X,Y) += G(X,Y);
		while change do {
			T(X,Y) += exists Z (T(X,Z) and G(Z,Y));
		}
	`)

	cases := [][]string{
		{"-program", prog, "-facts", facts, "-semantics", "datalog"},
		{"-program", prog, "-facts", facts, "-semantics", "stratified"},
		{"-program", prog, "-facts", facts, "-semantics", "semi-positive"},
		{"-program", prog, "-facts", facts, "-semantics", "wellfounded"},
		{"-program", prog, "-facts", facts, "-semantics", "inflationary"},
		{"-program", orient, "-facts", ofacts, "-semantics", "noninflationary"},
		{"-program", inv, "-facts", pfacts, "-semantics", "invent"},
		{"-program", orient, "-facts", ofacts, "-semantics", "ndatalog", "-seed", "3"},
		{"-program", orient, "-facts", ofacts, "-semantics", "effects"},
		{"-program", prog, "-facts", facts, "-query", "T(a,Y)"},
		{"-program", wl, "-facts", facts, "-language", "while"},
	}
	for _, args := range cases {
		_, errOut, err := runCLIStats(t, append(args, "-stats")...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		lines := strings.Split(strings.TrimSpace(errOut), "\n")
		if len(lines) != 1 {
			t.Fatalf("%v: want one stats line, got %d:\n%s", args, len(lines), errOut)
		}
		var sum stats.Summary
		if err := json.Unmarshal([]byte(lines[0]), &sum); err != nil {
			t.Fatalf("%v: invalid stats JSON: %v", args, err)
		}
		if sum.Engine == "" {
			t.Fatalf("%v: summary lacks engine name: %s", args, lines[0])
		}
	}
}

func TestCLIQueryMagic(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", `
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
	`)
	facts := write(t, dir, "g.facts", `G(a,b). G(b,c). G(x,y).`)
	out, err := runCLI(t, "-program", prog, "-facts", facts, "-query", "T(a,Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "T(a,b).") || !strings.Contains(out, "T(a,c).") {
		t.Fatalf("query answers missing:\n%s", out)
	}
	if strings.Contains(out, "T(x,y)") {
		t.Fatalf("irrelevant answer leaked:\n%s", out)
	}
	// One run, three views, one engine name: the span stream's eval
	// begin and end, the -stats summary and the -profile record.
	_, errOut, err := runCLIStats(t, "-program", prog, "-facts", facts, "-query", "T(a,Y)", "-trace", "-", "-stats", "-profile")
	if err != nil {
		t.Fatal(err)
	}
	named := 0
	for _, line := range strings.Split(strings.TrimSpace(errOut), "\n") {
		var view struct {
			Span, Engine, Endpoint string
		}
		if err := json.Unmarshal([]byte(line), &view); err != nil {
			t.Fatalf("stderr line %q: %v", line, err)
		}
		if view.Span != "" && view.Span != trace.SpanEval {
			continue // only eval spans name the engine
		}
		if named++; view.Engine != "magic" {
			t.Errorf("engine %q, want magic, in %s", view.Engine, line)
		}
	}
	if named != 4 {
		t.Errorf("%d views named an engine, want 4 (eval begin, eval end, summary, record):\n%s", named, errOut)
	}
	if _, err := runCLI(t, "-program", prog, "-facts", facts, "-query", "!T(a,Y)"); err == nil {
		t.Fatalf("negated query accepted")
	}
	// A goal on an input relation, and input facts on an intensional
	// one, are answered as full evaluation answers them.
	idbFacts := write(t, dir, "idb.facts", `G(a,b). G(b,c). T(c,d).`)
	for _, tc := range []struct{ facts, query, want string }{
		{facts, "G(a,Y)", "% 1 answers (magic-sets evaluation)\nG(a,b).\n"},
		{idbFacts, "T(a,Y)", "% 3 answers (magic-sets evaluation)\nT(a,b).\nT(a,c).\nT(a,d).\n"},
	} {
		if out, err := runCLI(t, "-program", prog, "-facts", tc.facts, "-query", tc.query); err != nil || out != tc.want {
			t.Fatalf("-query %s: %v\n%s\nwant:\n%s", tc.query, err, out, tc.want)
		}
	}
	// The -O level never turns an answer into an error: here it removes
	// every rule of the goal's relation (Q is underivable, so P is).
	dead := write(t, dir, "dead.dl", "P(X) :- Q(X).\nQ(X) :- Q(X), E(X).\nR(X) :- E(X).\n")
	deadFacts := write(t, dir, "dead.facts", `E(a). E(b).`)
	for _, level := range []string{"-O0", "-O2"} {
		out, err := runCLI(t, "-program", dead, "-facts", deadFacts, "-query", "P(a)", level)
		if err != nil || out != "% 0 answers (magic-sets evaluation)\n" {
			t.Fatalf("%s -query P(a): %v\n%s", level, err, out)
		}
	}
}

// TestCLIRejectsOptLevel: -O is 0 or 2; any other level, in either
// spelling, exits 1 naming the valid ones.
func TestCLIRejectsOptLevel(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", "T(X,Y) :- G(X,Y).\n")
	for _, level := range [][]string{{"-O1"}, {"-O=1"}, {"-O", "3"}} {
		_, err := runCLI(t, append([]string{"-program", prog}, level...)...)
		if err == nil || err.Error() != "-O: level must be 0 or 2" || exitCode(err) != 1 {
			t.Errorf("%v: got %v, want exit 1 with \"-O: level must be 0 or 2\"", level, err)
		}
	}
}

func TestCLIWhyExplanation(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", `
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
	`)
	facts := write(t, dir, "g.facts", `G(a,b). G(b,c).`)
	out, err := runCLI(t, "-program", prog, "-facts", facts, "-semantics", "inflationary", "-why", "T(a,c)")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T(a,c)", "[input]", "rule 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explanation missing %q:\n%s", want, out)
		}
	}
	if _, err := runCLI(t, "-program", prog, "-facts", facts, "-semantics", "inflationary", "-why", "T(c,a)"); err == nil {
		t.Fatalf("underivable fact explained")
	}
	if _, err := runCLI(t, "-program", prog, "-facts", facts, "-semantics", "inflationary", "-why", "T(a,X)"); err == nil {
		t.Fatalf("non-ground -why accepted")
	}
}

// TestCLIProfile: -profile emits one flight-record JSON line on
// stderr — the CLI twin of the daemon's slow-query log schema — with
// the stage breakdown and join plans filled in.
func TestCLIProfile(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", `
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
	`)
	facts := write(t, dir, "g.facts", `G(a,b). G(b,c). G(c,d).`)
	out, errOut, err := runCLIStats(t, "-program", prog, "-facts", facts, "-semantics", "datalog", "-profile")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "T(a,d).") {
		t.Fatalf("missing answer:\n%s", out)
	}
	var rec flight.Record
	if uerr := json.Unmarshal([]byte(strings.TrimSpace(errOut)), &rec); uerr != nil {
		t.Fatalf("-profile stderr is not one flight record: %v: %q", uerr, errOut)
	}
	if rec.Endpoint != "cli" || rec.Outcome != "ok" || len(rec.ID) != 32 {
		t.Fatalf("record identity off: %+v", rec)
	}
	if rec.Engine == "" || rec.Stages == 0 || rec.WallNS <= 0 || rec.StageWallNS <= 0 {
		t.Fatalf("record totals missing: %+v", rec)
	}
	if len(rec.PerStage) == 0 || len(rec.Plans) == 0 {
		t.Fatalf("record breakdowns missing: %+v", rec)
	}
}

// TestCLIProfileLongWalk: a run of more stages than a summary lists
// (1 024) or a record keeps (64). -stats and -profile print the same
// engine wall, and the stage-wall total covers every stage, not the
// listed ones.
func TestCLIProfileLongWalk(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "walk.dl", `R(Y) :- R(X), S(X,Y).`)
	var chain strings.Builder
	chain.WriteString("R(n0).\n")
	for i := 0; i < 2048; i++ {
		fmt.Fprintf(&chain, "S(n%d,n%d).\n", i, i+1)
	}
	facts := write(t, dir, "walk.facts", chain.String())
	_, errOut, err := runCLIStats(t, "-program", prog, "-facts", facts, "-semantics", "inflationary", "-stats", "-profile")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(errOut), "\n")
	if len(lines) != 2 {
		t.Fatalf("want a stats line and a record, got %d lines", len(lines))
	}
	var sum stats.Summary
	var rec flight.Record
	if err := json.Unmarshal([]byte(lines[0]), &sum); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if sum.Stages != 2048 || !sum.StagesTruncated || rec.Stages != 2048 || !rec.StagesTruncated {
		t.Fatalf("stages: summary %d (truncated %v), record %d (truncated %v)", sum.Stages, sum.StagesTruncated, rec.Stages, rec.StagesTruncated)
	}
	if rec.EvalNS != sum.WallNS || rec.Phases.EvalNS != sum.WallNS {
		t.Errorf("engine wall: -stats %d, -profile eval_ns %d, phases.eval_ns %d", sum.WallNS, rec.EvalNS, rec.Phases.EvalNS)
	}
	var listed int64
	for _, st := range sum.PerStage {
		listed += st.WallNS
	}
	if sum.StageWallNS <= listed || rec.StageWallNS != sum.StageWallNS {
		t.Errorf("stage_wall_ns: summary %d, record %d, the %d listed stages alone %d", sum.StageWallNS, rec.StageWallNS, len(sum.PerStage), listed)
	}
	if rec.StageWallNS > rec.EvalNS || rec.EvalNS > rec.WallNS {
		t.Errorf("want stage_wall_ns %d <= eval_ns %d <= wall_ns %d", rec.StageWallNS, rec.EvalNS, rec.WallNS)
	}
}

// TestCLIProfileDeadline: an interrupted run still profiles, with
// outcome "deadline" and the partial stage breakdown.
func TestCLIProfileDeadline(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "counter.dl", queries.Counter(30))
	_, errOut, err := runCLIStats(t, "-program", prog, "-semantics", "noninflationary", "-timeout", "50ms", "-profile")
	if err == nil {
		t.Fatal("2^30-stage counter finished under a 50ms deadline?")
	}
	lines := strings.Split(strings.TrimSpace(errOut), "\n")
	var rec flight.Record
	if uerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); uerr != nil {
		t.Fatalf("-profile stderr is not a flight record: %v: %q", uerr, errOut)
	}
	if rec.Outcome != "deadline" || rec.Error == "" {
		t.Fatalf("interrupted record: %+v", rec)
	}
}

// TestCLILiteralOrderPinsTheJoinOrderUnderO2: the planner alone
// chooses a join order. -O2 rewrites no rule body, so the plan names
// the literals by their source index; -literal-order gets the joins in
// the text's order (no plan is chosen), and the answer is the same.
func TestCLILiteralOrderPinsTheJoinOrderUnderO2(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "p.dl", "p(X) :- e(X,Y), f(Y,Z), label(Z,red).\n")
	facts := write(t, dir, "p.facts", `e(a,b). e(d,e). f(b,c). label(c,red).`)
	base := []string{"-program", prog, "-facts", facts, "-O2"}

	planned, err := runCLI(t, append(base, "-explain")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planned, "plan p: label#2 ") || strings.Contains(planned, "% -O2") {
		t.Fatalf("-O2: want the planner to join the text's third literal first and no rewrite narrated:\n%s", planned)
	}
	pinned, err := runCLI(t, append(base, "-explain", "-literal-order")...)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pinned, "plan p:") || strings.Contains(pinned, "% -O2") {
		t.Fatalf("-literal-order -O2 chose a plan or rewrote the body:\n%s", pinned)
	}

	want, err := runCLI(t, base...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runCLI(t, append(base, "-literal-order")...)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || !strings.Contains(got, "p(a).") {
		t.Fatalf("-literal-order changed the answer:\n%s\nwant:\n%s", got, want)
	}
}
