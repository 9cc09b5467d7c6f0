package opt

import (
	"reflect"
	"strings"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/eval"
	"unchained/internal/parser"
	"unchained/internal/value"
)

// TestEveryLiteralKind takes one literal of each kind through every
// layer that reads a literal by its kind: the parser's round trip, the
// index, the compiler, constprop's substitution and the whole pipeline
// with inlining. An equality keeps its terms in Atom.Args and a
// ∀-literal its parts behind Quant, so a reader keyed on the wrong
// kind shows here as a panic or as other text.
func TestEveryLiteralKind(t *testing.T) {
	const caller = "Out(W) :- A(W), R(W)."
	for _, c := range []struct {
		name, src string
		preds     string // the program's predicates, caller included
		renamed   string // src after substituting Z for X
		optimized string // src and caller at O2
	}{
		{"atom", "A(X) :- P(X,a).", "A Out P R", "A(Z) :- P(Z,a).",
			"A(X) :- P(X,a).\nOut(W) :- P(W,a), R(W).\n"},
		{"negated atom", "A(X) :- P(X), !Q(X,a).", "A Out P Q R", "A(Z) :- P(Z), !Q(Z,a).",
			"A(X) :- P(X), !Q(X,a).\nOut(W) :- A(W), R(W).\n"},
		{"equality", "A(X) :- P(X,Y), X = Y.", "A Out P R", "A(Z) :- P(Z,Y), Z = Y.",
			"A(Y) :- P(Y,Y).\nOut(W) :- P(W,W), R(W).\n"},
		{"inequality", "A(X) :- P(X,Y), Y != a.", "A Out P R", "A(Z) :- P(Z,Y), Y != a.",
			"A(X) :- P(X,Y), Y != a.\nOut(W) :- P(W,Y_i2), Y_i2 != a, R(W).\n"},
		{"bottom", "bottom :- P(X), !Q(X).", "A Out P Q R", "bottom :- P(Z), !Q(Z).",
			"bottom :- P(X), !Q(X).\nOut(W) :- A(W), R(W).\n"},
		{"forall", "A(X) :- P(X), forall Y (!Q(X,Y), Y != X).", "A Out P Q R", "A(Z) :- P(Z), forall Y (!Q(Z,Y), Y != Z).",
			"A(X) :- P(X), forall Y (!Q(X,Y), Y != X).\nOut(W) :- A(W), R(W).\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			u := value.New()
			prog := parser.MustParse(c.src+"\n"+caller, u)
			text := prog.String(u)
			if want := c.src + "\n" + caller + "\n"; text != want {
				t.Fatalf("renders as %q, want %q", text, want)
			}
			// The text is the source, so a parse of it has the same
			// positions: the two programs agree field for field.
			if again := parser.MustParse(text, u); !reflect.DeepEqual(again, prog) {
				t.Errorf("the program's text parses to another program:\n%#v\nnot\n%#v", again, prog)
			}
			if got := strings.Join(prog.Preds(), " "); got != c.preds {
				t.Errorf("the index names %q, want %q", got, c.preds)
			}
			for i := range prog.Rules {
				if _, err := eval.Compile(prog.Rules[i]); err != nil {
					t.Errorf("rule %d does not compile: %v", i, err)
				}
			}

			r := prog.Rules[0]
			subst := map[string]ast.Term{"X": ast.V("Z")}
			renamed := ast.Rule{Head: substAll(r.Head, subst), Body: substAll(r.Body, subst)}
			if got := renamed.String(u); got != c.renamed {
				t.Errorf("substituted: %q, want %q", got, c.renamed)
			}
			if got := r.String(u); got != c.src {
				t.Errorf("the substitution changed its input to %q", got)
			}

			res := Optimize(prog, u, &Options{Level: O2})
			if got := res.Program.String(u); got != c.optimized {
				t.Errorf("optimized to %q, want %q", got, c.optimized)
			}
			if got := prog.String(u); got != text {
				t.Errorf("optimizing changed its input to %q", got)
			}
		})
	}
}

// substAll is substLiteral over a list.
func substAll(ls []ast.Literal, subst map[string]ast.Term) []ast.Literal {
	out := make([]ast.Literal, len(ls))
	for i := range ls {
		out[i] = substLiteral(ls[i], subst)
	}
	return out
}
