package programs

import (
	"io/fs"
	"testing"

	"unchained/internal/ast"
)

// TestCasesCoverEveryProgram: every shipped .dl file is in Cases exactly
// once, so no program can be left out of the tests that read the table.
// Every case reads (a name that is not shipped panics), and each
// nondeterministic one names a nondeterministic dialect.
func TestCasesCoverEveryProgram(t *testing.T) {
	seen := map[string]int{}
	for _, c := range Cases {
		seen[c.Program]++
		if Source(c.Program) == "" || (c.Facts != "") != (Facts(c.Facts) != "") {
			t.Errorf("%s: empty program or facts file", c.Program)
		}
		if !c.Deterministic() && c.Nondet < ast.DialectNDatalogNeg {
			t.Errorf("%s: %v is not a nondeterministic dialect", c.Program, c.Nondet)
		}
	}
	dl, err := fs.Glob(files, "*.dl")
	if err != nil || len(dl) == 0 {
		t.Fatalf("no programs: %v", err)
	}
	for _, name := range dl {
		if seen[name] != 1 {
			t.Errorf("%s is in the table %d times, want once", name, seen[name])
		}
	}
}
