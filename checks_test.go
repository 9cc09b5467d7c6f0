package unchained_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The repository's own rules, checked by reading its files: each test
// here fails when a rule is broken anywhere in the module, so tier-1
// "go test ./..." enforces it.

// TestFuzzTargetsListed: `make fuzz-smoke` and the nightly fuzz
// workflow are lists kept by hand; each must run every native fuzz
// target of the module, and nothing else.
func TestFuzzTargetsListed(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	nightly, err := os.ReadFile(".github/workflows/nightly-fuzz.yml")
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	targets := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir // bench/ is a module of its own
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "."
		if dir := filepath.Dir(path); dir != "." {
			pkg = "./" + filepath.ToSlash(dir)
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			targets++
			if smoke := fmt.Sprintf("$(GO) test %s -run='^$$' -fuzz='^%s$$'", pkg, m[1]); !bytes.Contains(makefile, []byte(smoke)) {
				t.Errorf("make fuzz-smoke does not run %s %s", pkg, m[1])
			}
			if job := fmt.Sprintf("{ pkg: %s, target: %s }", pkg, m[1]); !bytes.Contains(nightly, []byte(job)) {
				t.Errorf("nightly-fuzz.yml does not run %s %s", pkg, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(makefile, []byte("-fuzz='^")); n != targets {
		t.Errorf("make fuzz-smoke runs %d targets, the module has %d", n, targets)
	}
	if n := bytes.Count(nightly, []byte("target: Fuzz")); n != targets {
		t.Errorf("nightly-fuzz.yml runs %d targets, the module has %d", n, targets)
	}
}

// nonTestLines returns "path:line: text" for every line that matches re
// in a non-test Go file under roots (files, or directories walked
// whole).
func nonTestLines(t *testing.T, re *regexp.Regexp, roots ...string) []string {
	t.Helper()
	var out []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			for n := 1; sc.Scan(); n++ {
				if re.MatchString(sc.Text()) {
					out = append(out, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(path), n, strings.TrimSpace(sc.Text())))
				}
			}
			return sc.Err()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestStageProtocolOnlyInLoop: engines run their stages through the one
// driver, (*engine.Options).Loop, which is what makes a request
// deadline interrupt every one of them. No non-test BeginStage or
// EndStage call may sit anywhere else, bench/ included.
func TestStageProtocolOnlyInLoop(t *testing.T) {
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	inLoop := 0
	for _, m := range nonTestLines(t, regexp.MustCompile(`\.(BeginStage|EndStage)\(`), append(roots, "cmd", "internal", "examples", "bench")...) {
		if strings.HasPrefix(m, "internal/engine/loop.go:") {
			inLoop++
		} else {
			t.Errorf("stage protocol called outside (*engine.Options).Loop: %s", m)
		}
	}
	if inLoop == 0 {
		t.Error("no BeginStage/EndStage call found in internal/engine/loop.go: the pattern is stale")
	}
}

// TestEnginesDispatchedByTable: one way from a program to its answer.
// The CLI and the daemon reach the deterministic engines through the
// facade's semantics table (Session.EvalOptions, EvalContext), never by
// name, so a dispatch or policy bug cannot live on one route only.
func TestEnginesDispatchedByTable(t *testing.T) {
	byName := regexp.MustCompile(`(core\.Eval(Inflationary|NonInflationary|Invent)|declarative\.Eval(Stratified|SemiPositive)?)\(`)
	for _, m := range nonTestLines(t, byName, "cmd/datalog", "internal/serve") {
		t.Errorf("deterministic engine called by name, not through the semantics table: %s", m)
	}
}

// TestDocLinksResolve: the documents point at files that exist. Every
// relative Markdown link in README.md, DESIGN.md, EXPERIMENTS.md and
// docs/*.md resolves from the linking file, and every docs/<name>.md
// those documents or a non-test Go file outside bench/ names is there.
func TestDocLinksResolve(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", "DESIGN.md", "EXPERIMENTS.md")
	link := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	named := regexp.MustCompile(`docs/[\w.-]+\.md`)
	exists := func(path string) bool { _, err := os.Stat(path); return err == nil }
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range link.FindAllSubmatch(src, -1) {
			target, _, _ := strings.Cut(string(m[1]), "#")
			if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if !exists(filepath.Join(filepath.Dir(doc), target)) {
				t.Errorf("%s links to %s, which does not exist", doc, m[1])
			}
		}
		for _, m := range named.FindAll(src, -1) {
			if !exists(string(m)) {
				t.Errorf("%s names %s, which does not exist", doc, m)
			}
		}
	}
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range nonTestLines(t, named, append(roots, "cmd", "internal", "examples", "programs")...) {
		for _, m := range named.FindAllString(line, -1) {
			if !exists(m) {
				t.Errorf("%s: names %s, which does not exist", line, m)
			}
		}
	}
}
