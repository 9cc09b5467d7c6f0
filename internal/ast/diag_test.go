package ast

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestSortMatchesStableReference holds Diagnostics.Sort to a stable
// sort by its documented keys, over lists with many ties (a Related
// entry tells tied diagnostics apart) and unknown positions.
func TestSortMatchesStableReference(t *testing.T) {
	less := func(a, b Diagnostic) bool {
		if a.Pos != b.Pos {
			return a.Pos.Before(b.Pos)
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		ds := make(Diagnostics, n)
		for i := range ds {
			ds[i] = Diagnostic{
				Pos:      Pos{Line: rng.Intn(4), Col: rng.Intn(3)},
				Severity: Severity(rng.Intn(3)),
				Code:     fmt.Sprint("C", rng.Intn(2)),
				Message:  fmt.Sprint("m", rng.Intn(2)),
				Related:  []Related{{Message: fmt.Sprint(i)}},
			}
		}
		want := make(Diagnostics, n)
		copy(want, ds)
		sort.SliceStable(want, func(i, j int) bool { return less(want[i], want[j]) })
		ds.Sort()
		if !reflect.DeepEqual(ds, want) {
			t.Fatalf("%d diagnostics:\ngot  %v\nwant %v", n, ds, want)
		}
	}
}
