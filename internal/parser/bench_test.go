package parser

import (
	"fmt"
	"strings"
	"testing"

	"unchained/internal/value"
)

// factsSource is n edge facts over 256 constants, written as the
// benchmark's generated inputs are: "pred(name,name).", one a line.
func factsSource(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "Edge(v%d,v%d).\n", (i*37)%256, (i*101+7)%256)
	}
	return b.String()
}

// programSource is n rules with negation, equality and a comment each:
// every kind of token the rule grammar reads.
func programSource(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%% rule %d\nP%d(X,Y) :- Q%d(X,Z), !R%d(Z,Y), X != Y, S(Y, c%d, 42).\n", i, i, i, i%16, i)
	}
	return b.String()
}

// mixedSource is n facts whose constants are a name, an integer, a
// negative integer and a quoted string with an escape: the constants
// ParseFacts reads as tokens beside the names it reads off the bytes.
func mixedSource(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "Row(v%d, %d, -%d, \"s %d\\n\").\n", (i*37)%256, i%1000, (i*101+7)%256, i%64)
	}
	return b.String()
}

// BenchmarkParseFacts lexes and reads 4 700 facts into an instance, a
// little more than the largest facts file of the benchmark's tc-join
// workload (join3's 4 100); ns/fact is its ns/op over 4 700.
func BenchmarkParseFacts(b *testing.B) {
	src := factsSource(4700)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseFacts(src, value.New()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseFactsMixed reads 4 700 facts of four constants each,
// three of which are not names; ns/fact is its ns/op over 4 700.
func BenchmarkParseFactsMixed(b *testing.B) {
	src := mixedSource(4700)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseFacts(src, value.New()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseProgram parses a 256-rule program.
func BenchmarkParseProgram(b *testing.B) {
	src := programSource(256)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src, value.New()); err != nil {
			b.Fatal(err)
		}
	}
}
