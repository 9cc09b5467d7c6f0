package analyze

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/parser"
	"unchained/internal/value"
	"unchained/programs"
)

// referenceInference is dialect inference the long way round, kept as
// the oracle for the mask-based one: validate the program against
// every dialect of ast.Dialects with Program.ValidateDiags, keep all
// nine sorted lists, and read the dialect, the rejections and the
// violations to show off them. It returns what Analyze derives from
// the index instead: the report fields and diagnostics that depend on
// the dialect.
func referenceInference(p *ast.Program) *Report {
	r := &Report{Dialect: ast.DialectUnknown}
	perDialect := map[ast.Dialect]ast.Diagnostics{}
	for i, d := range ast.Dialects {
		for _, dg := range p.ValidateDiags(d) {
			switch {
			case dg.Code != ast.CodeArity:
				perDialect[d] = append(perDialect[d], dg)
			case i == 0:
				r.Diags = append(r.Diags, dg)
			}
		}
	}
	for _, d := range ast.Dialects {
		if !perDialect[d].HasErrors() {
			r.Dialect = d
			break
		}
	}
	if r.Dialect == ast.DialectUnknown {
		best, bestN := ast.Dialects[0], -1
		for _, d := range ast.Dialects {
			if n := perDialect[d].Count(ast.SevError); bestN < 0 || n < bestN {
				best, bestN = d, n
			}
		}
		r.Diags = append(r.Diags, perDialect[best]...)
		r.Diags = append(r.Diags, ast.Diagnostic{
			Severity: ast.SevError,
			Code:     CodeNoDialect,
			Message:  fmt.Sprintf("no dialect of the family admits this program (closest: %s)", best),
		})
		return r
	}
	for _, d := range ast.Dialects {
		if d == r.Dialect {
			break
		}
		if !r.Dialect.Includes(d) {
			continue
		}
		sorted := append(ast.Diagnostics(nil), perDialect[d]...)
		sorted.Sort()
		first := sorted[0]
		r.Rejections = append(r.Rejections, Rejection{Dialect: d, Pos: first.Pos, Reason: first.Message})
		r.Diags = append(r.Diags, ast.Diagnostic{
			Pos:      first.Pos,
			Severity: ast.SevInfo,
			Code:     CodeRejection,
			Message:  fmt.Sprintf("not %s: %s", d, first.Message),
		})
	}
	return r
}

// dialectPart reduces a full report to the part referenceInference
// produces, as JSON.
func dialectPart(r *Report) string {
	part := Report{Dialect: r.Dialect, Rejections: r.Rejections}
	for _, d := range r.Diags {
		switch d.Code {
		case ast.CodeDialect, ast.CodeUnsafeVar, ast.CodeArity, CodeNoDialect, CodeRejection:
			part.Diags = append(part.Diags, d)
		}
	}
	part.Diags.Sort()
	js, _ := json.Marshal(part)
	return string(js)
}

// mutate applies a few random edits to a program text: cut a span,
// splice in a fragment of syntax, duplicate a line, trade two rules'
// heads, rename a variable.
func mutate(rng *rand.Rand, src string) string {
	frags := []string{"!", "not ", "forall Y (", ")", ", ", " :- ", ".", "X", "Y", "a", "1", " = ", " != ",
		"bottom", "P(X)", "Q(X,Y)", "!Q(Y)", "_", "\n", "G(", "forall Z (P(Z), !Q(Z))", "forall Y (forall Z (P(Z)))"}
	b := []byte(src)
	for k := rng.Intn(4) + 1; k > 0 && len(b) > 2; k-- {
		lines := strings.Split(string(b), "\n")
		i, j := rng.Intn(len(lines)), rng.Intn(len(lines))
		switch rng.Intn(5) {
		case 0:
			at := rng.Intn(len(b) - 1)
			b = append(b[:at:at], b[at+1+rng.Intn(min(8, len(b)-at-1)):]...)
		case 1:
			at := rng.Intn(len(b) + 1)
			b = append(b[:at:at], append([]byte(frags[rng.Intn(len(frags))]), b[at:]...)...)
		case 2:
			b = []byte(strings.Join(append(lines[:j:j], append([]string{lines[i]}, lines[j:]...)...), "\n"))
		case 3:
			hi, bi, oki := strings.Cut(lines[i], ":-")
			hj, bj, okj := strings.Cut(lines[j], ":-")
			if oki && okj {
				lines[i], lines[j] = hj+":-"+bi, hi+":-"+bj
			}
			b = []byte(strings.Join(lines, "\n"))
		case 4:
			if at := rng.Intn(len(b)); b[at] >= 'A' && b[at] <= 'Z' {
				b[at] = "XYZWQP"[rng.Intn(6)]
			}
		}
	}
	return string(b)
}

// TestInferenceMatchesNineValidations holds the one-walk dialect
// inference to the nine-validation one on the shipped programs, the
// fixtures of this package's tests, hand-built rules (no positions, so
// every comparison falls through to the messages) and 2 000 parseable
// mutations of all of them.
func TestInferenceMatchesNineValidations(t *testing.T) {
	seeds := []string{
		"!P(X) :- Q(Y).", // no admitting dialect
		"P(X) :- G(X).\nP(X,Y).\n",
		"P(X) :- G(X).\nP(X,Y) :- G(X), G(Y).\nQ :- P(a,b,c), G(b,c).\n",
		"P(X, Y) :- G(X).\n",
		"A(X) :- B(X).\nB(X) :- A(X).\nAns(X) :- A(X).\n",
		"A(X), !B(X) :- C(X), X != Y, D(Y).\nbottom :- A(X), !C(X).\n",
		"X = Y :- P(X).\nP(X) :- forall Y (Q(X,Y), forall Z (R(Z))), bottom.\n",
	}
	for _, c := range programs.Cases {
		seeds = append(seeds, programs.Source(c.Program))
	}
	check := func(name string, p *ast.Program) {
		if got, want := dialectPart(Analyze(p, nil)), dialectPart(referenceInference(p)); got != want {
			t.Errorf("%s: inference differs from the nine-validation reference\n got %s\nwant %s", name, got, want)
		}
	}

	// Twelve hand-built rules with one unsafe variable each: "rule 10"
	// sorts before "rule 2".
	var built []ast.Rule
	for i := 0; i < 12; i++ {
		built = append(built, ast.R(ast.PosLit(ast.NewAtom("H", ast.V("X"), ast.V("N"))),
			ast.PosLit(ast.NewAtom("G", ast.V("X"))), ast.Neg(ast.NewAtom("G", ast.V("N")))))
	}
	check("hand-built", ast.NewProgram(built...))

	for i, src := range seeds {
		p, err := parser.Parse(src, value.New())
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		check(fmt.Sprintf("seed %d", i), p)
	}
	rng := rand.New(rand.NewSource(14))
	for n, tries := 0, 0; n < 2000; tries++ {
		if tries > 100000 {
			t.Fatalf("only %d of 2000 mutations parsed", n)
		}
		src := mutate(rng, seeds[rng.Intn(len(seeds))])
		p, err := parser.Parse(src, value.New())
		if err != nil {
			continue
		}
		n++
		check(fmt.Sprintf("mutation %q", src), p)
	}
}
