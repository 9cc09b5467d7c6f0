package unchained_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

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
