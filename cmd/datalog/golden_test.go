package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCases runs the shipped program library (../../programs)
// through the CLI and compares against golden outputs. All cases are
// deterministic: sorted dumps, fixed seeds.
var goldenCases = []struct {
	name string
	args []string
}{
	{"tc_stratified", []string{"-program", "P/tc.dl", "-facts", "P/facts/chain.facts"}},
	{"ct_stratified", []string{"-program", "P/ct.dl", "-facts", "P/facts/chain.facts", "-answer", "CT"}},
	{"win_wfs3", []string{"-program", "P/win.dl", "-facts", "P/facts/game_e32.facts", "-semantics", "wellfounded", "-three"}},
	{"closer_inflationary", []string{"-program", "P/closer.dl", "-facts", "P/facts/chain.facts", "-semantics", "inflationary", "-answer", "Closer"}},
	{"delayed_ct", []string{"-program", "P/delayed_ct.dl", "-facts", "P/facts/chain.facts", "-semantics", "inflationary", "-answer", "CT"}},
	{"good_nodes", []string{"-program", "P/good_nodes.dl", "-facts", "P/facts/cycle_tail.facts", "-semantics", "inflationary", "-answer", "Good"}},
	{"orientation_det", []string{"-program", "P/orientation.dl", "-facts", "P/facts/twocycles.facts", "-semantics", "noninflationary", "-answer", "G"}},
	{"orientation_nondet", []string{"-program", "P/orientation.dl", "-facts", "P/facts/twocycles.facts", "-semantics", "ndatalog", "-seed", "3", "-answer", "G"}},
	{"orientation_effects", []string{"-program", "P/orientation.dl", "-facts", "P/facts/twocycles.facts", "-semantics", "effects", "-answer", "G"}},
	{"diff_forall", []string{"-program", "P/diff_forall.dl", "-facts", "P/facts/pq.facts", "-semantics", "ndatalog-forall", "-seed", "1", "-answer", "Answer"}},
	{"diff_bottom", []string{"-program", "P/diff_bottom.dl", "-facts", "P/facts/pq.facts", "-semantics", "ndatalog-bottom", "-seed", "2", "-answer", "Answer"}},
	{"even_ordered", []string{"-program", "P/even_ordered.dl", "-facts", "P/facts/rset.facts", "-order", "-answer", "EvenAns,OddAns"}},
	{"tc_while", []string{"-program", "P/tc.wl", "-facts", "P/facts/chain.facts", "-language", "while"}},
	{"tc_query_magic", []string{"-program", "P/tc.dl", "-facts", "P/facts/chain.facts", "-query", "T(a,Y)"}},
	{"tc_why", []string{"-program", "P/tc.dl", "-facts", "P/facts/chain.facts", "-semantics", "inflationary", "-why", "T(a,d)"}},
	{"tc_why_stages", []string{"-program", "P/tc.dl", "-facts", "P/facts/chain.facts", "-semantics", "inflationary", "-stages", "-why", "T(a,d)"}},
	{"good_while", []string{"-program", "P/good.wl", "-facts", "P/facts/cycle_tail.facts", "-language", "while"}},
	{"same_generation", []string{"-program", "P/same_generation.dl", "-facts", "P/facts/family.facts", "-answer", "Sg"}},
	{"choice_effects", []string{"-program", "P/choice.dl", "-facts", "P/facts/pset.facts", "-semantics", "effects", "-answer", "Chosen"}},
	{"invent_pairs_stages", []string{"-program", "testdata/invent_pairs.dl", "-facts", "P/facts/chain.facts", "-semantics", "invent", "-stages"}},
	{"tag_ndatalog_new", []string{"-program", "P/tag.dl", "-facts", "P/facts/pset.facts", "-semantics", "ndatalog-new", "-seed", "4", "-answer", "Tag,Tagged"}},
}

func TestGoldenPrograms(t *testing.T) {
	progDir, err := filepath.Abs("../../programs")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			args := make([]string, len(c.args))
			for i, a := range c.args {
				args[i] = strings.Replace(a, "P/", progDir+string(filepath.Separator), 1)
			}
			var sb strings.Builder
			if err := run(args, &sb, io.Discard); err != nil {
				t.Fatalf("run: %v", err)
			}
			got := sb.String()
			goldenPath := filepath.Join("testdata", "golden", c.name+".txt")
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

// TestGoldenSeedStability pins two facts the goldens rely on: the
// nondeterministic cases are reproducible in the seed, and the
// deterministic ones are independent of it.
func TestGoldenSeedStability(t *testing.T) {
	progDir, _ := filepath.Abs("../../programs")
	runArgs := func(seed string) string {
		var sb strings.Builder
		err := run([]string{
			"-program", filepath.Join(progDir, "orientation.dl"),
			"-facts", filepath.Join(progDir, "facts", "twocycles.facts"),
			"-semantics", "ndatalog", "-seed", seed, "-answer", "G"}, &sb, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if runArgs("3") != runArgs("3") {
		t.Fatalf("seeded run not reproducible")
	}
}
