package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unchained/internal/analyze"
	"unchained/internal/gen"
)

// TestLintGoldens runs -lint over every shipped program (.dl and .wl)
// and compares against testdata/golden/lint/<base>.txt. The goldens
// document each program's classification: win.dl is the
// WFS-requiring Datalog¬ program with its stratification witness,
// flip_flop.dl is Datalog¬¬ with the non-termination warning,
// counter.dl/counter4.dl are the ordered-database counters of
// Theorem 4.8. Regenerate with -update.
func TestLintGoldens(t *testing.T) {
	progDir, err := filepath.Abs("../../programs")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, pat := range []string{"*.dl", "*.wl"} {
		m, err := filepath.Glob(filepath.Join(progDir, pat))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 15 {
		t.Fatalf("expected the full program library, found %d files", len(files))
	}
	for _, f := range files {
		f := f
		base := strings.TrimSuffix(filepath.Base(f), filepath.Ext(f))
		if filepath.Ext(f) == ".wl" {
			base += "_wl"
		}
		t.Run(base, func(t *testing.T) {
			args := []string{"-program", f, "-lint"}
			if filepath.Ext(f) == ".wl" {
				args = append(args, "-language", "while")
			}
			var sb strings.Builder
			if err := run(args, &sb, io.Discard); err != nil {
				// No shipped program carries error diagnostics.
				t.Fatalf("run: %v", err)
			}
			got := sb.String()
			goldenPath := filepath.Join("testdata", "golden", "lint", base+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestLintJSON checks the -json report round-trips through the
// analyze.Report shape and carries the witness diagnostics.
func TestLintJSON(t *testing.T) {
	progDir, _ := filepath.Abs("../../programs")
	var sb strings.Builder
	if err := run([]string{"-program", filepath.Join(progDir, "win.dl"), "-lint", "-json"}, &sb, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep analyze.Report
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, sb.String())
	}
	if rep.Semantics != "well-founded" || rep.Stratifiable {
		t.Fatalf("report: %+v", rep)
	}
	found := false
	for _, d := range rep.Diags {
		if d.Code == analyze.CodeNotStratifiable && d.Pos.Line > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("W001 with position missing from JSON report: %s", sb.String())
	}
	// Dialect names survive the round-trip as strings.
	if !strings.Contains(sb.String(), `"dialect": "Datalog¬"`) {
		t.Fatalf("dialect not marshaled by name:\n%s", sb.String())
	}
}

// TestLintExitsNonzeroOnErrors: a program no dialect admits must make
// -lint return an error (exit 1 in main) while still printing the
// diagnostics.
func TestLintExitsNonzeroOnErrors(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "bad.dl")
	if err := os.WriteFile(tmp, []byte("!P(X) :- Q(Y).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := run([]string{"-program", tmp, "-lint"}, &sb, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "error(s)") {
		t.Fatalf("want lint error, got %v", err)
	}
	if !strings.Contains(sb.String(), "E004") {
		t.Fatalf("diagnostics not printed:\n%s", sb.String())
	}
}

// TestCLILintWideProgram lints a generated 4 000-rule program
// (gen.Wide). The front end is one walk of the rules, so this takes
// about 80 ms; the 10 s bound compares no two timings, it catches a
// pass going quadratic again (17 s at this size before PR 14).
func TestCLILintWideProgram(t *testing.T) {
	prog := write(t, t.TempDir(), "wide.dl", gen.Wide(1000, 2999))
	start := time.Now()
	if _, err := runCLI(t, "-program", prog, "-lint"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("-lint of a 4000-rule program took %v, over the 10 s bound", d)
	}
}

// TestSemanticsAutoCLI: -semantics auto resolves through the analyzer
// and reaches the nondeterministic engines the facade refuses.
func TestSemanticsAutoCLI(t *testing.T) {
	progDir, _ := filepath.Abs("../../programs")
	var sb strings.Builder
	err := run([]string{
		"-program", filepath.Join(progDir, "choice.dl"),
		"-facts", filepath.Join(progDir, "facts", "pset.facts"),
		"-semantics", "auto", "-seed", "3", "-answer", "Chosen"}, &sb, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "% auto semantics: ndatalog (N-Datalog¬)") {
		t.Fatalf("auto banner missing:\n%s", out)
	}
	if !strings.Contains(out, "Chosen(") {
		t.Fatalf("no answer:\n%s", out)
	}
}
