// Package programs holds the shipped program library, the .dl and .wl
// files of this directory and the facts files under facts/, so that
// internal/queries, the tests and the files the CLI reads are one text.
package programs

import (
	"embed"

	"unchained/internal/ast"
)

//go:embed *.dl *.wl facts/*.facts
var files embed.FS

// Source returns the text of the named file. A missing name panics:
// callers pass literals.
func Source(name string) string {
	b, err := files.ReadFile(name)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// Facts returns the text of the named facts file, "" for the name "".
func Facts(name string) string {
	if name == "" {
		return ""
	}
	return Source("facts/" + name)
}

// A Case is one shipped .dl program with the input it ships with.
type Case struct {
	Program   string      // the file name, e.g. "tc.dl"
	Facts     string      // the facts file under facts/, "" for none
	Order     bool        // attach the ordered-database relations first
	MaxStages int         // 0 = unbounded; bounds programs that do not terminate
	Nondet    ast.Dialect // the nondeterministic dialect; DialectDatalog for a deterministic program
}

// Cases lists every shipped .dl program exactly once.
var Cases = []Case{
	{Program: "tc.dl", Facts: "chain.facts"},
	{Program: "same_generation.dl", Facts: "family.facts"},
	{Program: "ct.dl", Facts: "chain.facts"},
	{Program: "closer.dl", Facts: "chain.facts"},
	{Program: "delayed_ct.dl", Facts: "chain.facts"},
	{Program: "even_ordered.dl", Facts: "rset.facts", Order: true},
	{Program: "win.dl", Facts: "game_e32.facts"},
	{Program: "good_nodes.dl", Facts: "cycle_tail.facts"},
	{Program: "orientation.dl", Facts: "twocycles.facts"},
	{Program: "counter4.dl"},
	{Program: "counter.dl", MaxStages: 64},   // 2^30 stages without a bound
	{Program: "flip_flop.dl", MaxStages: 16}, // never reaches a fixpoint
	{Program: "choice.dl", Facts: "pset.facts", Nondet: ast.DialectNDatalogNeg},
	{Program: "diff_bottom.dl", Facts: "pq.facts", Nondet: ast.DialectNDatalogBot},
	{Program: "diff_forall.dl", Facts: "pq.facts", Nondet: ast.DialectNDatalogAll},
	{Program: "hamiltonian.dl", Facts: "ham_c4.facts", Nondet: ast.DialectNDatalogAll},
	{Program: "tag.dl", Facts: "pset.facts", Nondet: ast.DialectNDatalogNew},
}

// Deterministic reports whether the program runs on a deterministic
// engine.
func (c Case) Deterministic() bool { return c.Nondet == ast.DialectDatalog }
