package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles the vet tool once per test binary.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vet-unchained")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestVetToolPassesOnRepo: the engine packages satisfy every
// invariant (the acceptance criterion for `make vet-custom`).
func TestVetToolPassesOnRepo(t *testing.T) {
	bin := buildTool(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./internal/...", "./cmd/...", ".")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go vet failed on clean repo: %v\n%s", err, out)
	}
}

// TestVetToolFailsOnFixture: the deliberately-broken fixture trips
// every analyzer.
func TestVetToolFailsOnFixture(t *testing.T) {
	bin := buildTool(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin,
		"-tags", "lintfixture", "./internal/lint/fixture")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on the broken fixture:\n%s", out)
	}
	for _, want := range []string{"shared tuple payload t[0]", "shared tuple payload view[0]", "shared AST slice", "fixture.go"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("vet output missing %q:\n%s", want, out)
		}
	}
	// Scratch held as []value.Value and lent out as a tuple is how the
	// matcher reuses its buffers; tuplemut must not flag it.
	if bytes.Contains(out, []byte("scratch[0]")) {
		t.Errorf("vet flagged the reused-scratch shape:\n%s", out)
	}
}

// TestProtocolVersionAndFlags exercises the two discovery calls cmd/go
// makes before any unit: -V=full must embed a content hash, -flags
// must list the pass-through analyzer flags as JSON (there are none).
func TestProtocolVersionAndFlags(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(out), "vet-unchained version ") || !strings.Contains(string(out), "buildID=") {
		t.Fatalf("-V=full output: %q", out)
	}
	out2, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(out2) {
		t.Fatal("-V=full not deterministic")
	}

	fl, err := exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(fl)) != "[]" {
		t.Fatalf("-flags output: %q", fl)
	}
}

// TestBadInvocation: anything that is not a .cfg path is a usage
// error, not a crash.
func TestBadInvocation(t *testing.T) {
	bin := buildTool(t)
	err := exec.Command(bin, "not-a-config").Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2, got %v", err)
	}
}
