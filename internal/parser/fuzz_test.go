package parser

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// seedFrom adds every file matching glob as a fuzz corpus entry; the
// checked-in programs are the richest syntax examples we have.
func seedFrom(f *testing.F, glob string) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
}

// FuzzParse checks that the rule parser never panics: arbitrary input
// must either parse or return an error. What parses must keep the list
// contract (checkSettled), its text parsing back to itself whenever
// its constants render as they parse.
func FuzzParse(f *testing.F) {
	seedFrom(f, filepath.Join("..", "..", "programs", "*.dl"))
	f.Add("T(X,Y) :- G(X,Y).")
	f.Add("P(X) :- ¬Q(X), X = a.")
	f.Add("p :- .")
	f.Add("Answer(X) :- P(X), forall Y (Q(X,Y), !R(Y)). S(X) :- Answer(X).")
	f.Add("P(X) :- Q(X, _), R(_, X), X != _.")
	f.Add("bottom :- P(X), !Q(X).")
	f.Add("A(X) :- P(X), forall Y (Q(X,Y), Y != X).")
	f.Fuzz(func(t *testing.T, src string) {
		u := value.New()
		prog, err := Parse(src, u)
		if err == nil && prog == nil {
			t.Fatal("nil program with nil error")
		}
		if err == nil {
			checkSettled(t, src)
		}
	})
}

// parseFactsViaRules is ParseFacts as it used to work, kept as the
// oracle for the streaming one: parse the whole text into rules, then
// convert each rule that is a ground fact.
func parseFactsViaRules(src string, u *value.Universe) (*tuple.Instance, error) {
	prog, err := Parse(src, u)
	if err != nil {
		return nil, err
	}
	in := tuple.NewInstance()
	for i, r := range prog.Rules {
		if len(r.Body) != 0 || len(r.Head) != 1 {
			return nil, fmt.Errorf("fact %d: not a ground fact", i+1)
		}
		h := r.Head[0]
		if h.Kind != ast.LitAtom || h.Neg {
			return nil, fmt.Errorf("fact %d: not a positive atom", i+1)
		}
		var t tuple.Tuple
		for j, a := range h.Atom.Args {
			if a.IsVar() {
				return nil, fmt.Errorf("fact %d: argument %d is a variable", i+1, j+1)
			}
			t = append(t, a.Const)
		}
		if r := in.Relation(h.Atom.Pred); r != nil && r.Arity() != len(t) {
			return nil, fmt.Errorf("fact %d: %s has arity %d here but %d earlier",
				i+1, h.Atom.Pred, len(t), r.Arity())
		}
		in.Insert(h.Atom.Pred, t)
	}
	return in, nil
}

// sameFacts compares the streaming parser with the oracle on one
// input: both fail, or both give the same instance over the same
// constants.
func sameFacts(t *testing.T, src string) (got, want error) {
	t.Helper()
	u, uo := value.New(), value.New()
	in, got := ParseFacts(src, u)
	oracle, want := parseFactsViaRules(src, uo)
	if (got == nil) != (want == nil) {
		t.Fatalf("ParseFacts(%q): error %v, the rule-parsing oracle %v", src, got, want)
	}
	if got == nil && (!in.Equal(oracle) || u.Len() != uo.Len()) {
		t.Fatalf("ParseFacts(%q) = %d facts over %d constants, the oracle %d over %d",
			src, in.Facts(), u.Len(), oracle.Facts(), uo.Len())
	}
	return got, want
}

// TestParseFactsOneDefect: an input with exactly one thing wrong with
// it gets the message it always got.
func TestParseFactsOneDefect(t *testing.T) {
	for _, bad := range []string{
		"T(X) :- G(X).", "G(a,X).", "H(_).", "!G(a,b).", "not G(a,b).", "A(a), B(b).", "a = b.", "1 = 2.",
		"bottom.", "G(a b).", "G(a,).", "G(a", "G(a,b)", "G(a,b)) .", "(a).", "H(99999999999999999999).",
		"H(\"a).", "G(a,b) :- H(", "G(a,b) :- .x", "H(-).", "not(a).", "bottom(a).", ", H(a).", "H(a)..",
		"G(b,c). G(a,b,c).", "G(b,c). G.",
	} {
		for _, src := range []string{bad, "G(a,b). P.\n" + bad, "G(a,b).\n" + bad + "\nG(b,c). Q(1,\"x y\")."} {
			got, want := sameFacts(t, src)
			if got == nil || got.Error() != want.Error() {
				t.Errorf("ParseFacts(%q): %v, want the error %v", src, got, want)
			}
		}
	}
	// Facts in their other spellings are facts to both.
	for _, ok := range []string{"", "P.", "P().", "P :- .", "P(a) :- .", "X(a).", "forall(a).", "G(a,\"b c\",-3). % done\n// too"} {
		if got, _ := sameFacts(t, ok); got != nil {
			t.Errorf("ParseFacts(%q): %v", ok, got)
		}
	}
	// A plain fact's punctuation, whitespace and lower-case names are
	// read off the bytes, its other constants as tokens, and anything
	// else by the rule grammar. Each row switches between them inside
	// one fact; a defect after the switch gets the message it always
	// got, at the line and column it always named.
	for _, row := range []struct{ src, err string }{
		{"G(a % c\n, b).", ""},
		{"G(a // c\n, b) // d\n.", ""},
		{"G(\na\n,\nb\n)\n.", ""},
		{"G(a,\r\n\tb)\r\n\t.\r\nG(c\t,d).", ""},
		{"G(\u00a0a\u0085,b)\u00a0.", ""},
		{"G(a, 1, b, -2, c, \"x\\\"y\\n\", d).", ""},
		{"G(é, a). G(aé, b). G(a, \"\").", ""},
		{"G(not, bottom). G(forall, a).", ""},
		{"G(a,b).G(b,c).", ""},
		{"G(a % c\n, b c).", "2:5: expected ')', found identifier"},
		{"G(a // c\n, b c).", "2:5: expected ')', found identifier"},
		{"G(a,\nb,\n c d).", "3:4: expected ')', found identifier"},
		{"G(a,\r\n\tb)\r\n\t.\r\nG(a\tb).", "4:5: expected ')', found identifier"},
		{"G(a,\u00a0b, c\u0085d).", "1:11: expected ')', found identifier"},
		{"G(a, 1, b, -2, c, \"x\\\"y\", d e).", "1:29: expected ')', found identifier"},
		{"G(a, 1 b).", "1:8: expected ')', found identifier"},
		{"G(a, -2 b).", "1:9: expected ')', found identifier"},
		{"G(a, \"x\" b).", "1:10: expected ')', found identifier"},
		{"G(a, é b).", "1:8: expected ')', found identifier"},
		{"G(ü, a b).", "1:8: expected ')', found identifier"},
		{"G(a, é, B).", "fact 1: argument 3 is a variable"},
		{"G(Ab, c).", "fact 1: argument 1 is a variable"},
		{"G(a, _, b).", "fact 1: argument 2 is a variable"},
		{"G(a, \"x\\q\", b).", "1:6: unknown escape \\q"},
		{"G(a, - 1).", "1:6: expected digit after '-'"},
		{"G(a, 99999999999999999999, b).", "1:6: bad integer \"99999999999999999999\""},
		{"G(not, bottom, a b).", "1:18: expected ')', found identifier"},
		{"not (a, b).", "1:5: expected predicate name, found '('"},
		{"bottom (a).", "1:8: expected '.', found '('"},
		{"G(a,b).$", "1:8: unexpected character '$'"},
		{"G(a,b).#G(b,c).", "1:8: unexpected character '#'"},
		{"G(a).\u00a0G(b)\u0085.\u00a0@", "1:14: unexpected character '@'"},
	} {
		got, _ := sameFacts(t, row.src)
		if msg := fmt.Sprint(got); row.err == "" && got != nil || row.err != "" && msg != row.err {
			t.Errorf("ParseFacts(%q): %v, want %q", row.src, got, row.err)
		}
		sameFacts(t, "G(a,b). P.\n"+row.src)
	}
}

// FuzzParseFacts holds the streaming fact-list parser to the oracle on
// arbitrary input.
func FuzzParseFacts(f *testing.F) {
	seedFrom(f, filepath.Join("..", "..", "programs", "facts", "*.facts"))
	f.Add("G(a,b). G(b,c).")
	f.Add("R(1, -2, x).")
	f.Add("P :- . Q(). !G(a). G(a,X).")
	// Where the byte path hands over to the token path or the rule
	// grammar, and back.
	f.Add("G(a % c\n, b // d\n) .\nG(c,\r\n\td).")
	f.Add("G(\u00a0a\u0085, b). G(a, 1, b, -2, c, \"x\\\"y\", d).")
	f.Add("G(é, aé, Ab). G(not, bottom). not(a). bottom(a).")
	f.Add("G(a, 1 b). G(a,b).$")
	f.Fuzz(func(t *testing.T, src string) { sameFacts(t, src) })
}
