package parser

import (
	"testing"

	"unchained/internal/ast"
	"unchained/internal/value"
)

// checkExact fails t for every list under ls whose capacity is not its
// length: an append to it would write into whatever the parser put next.
func checkExact(t *testing.T, where string, ls []ast.Literal) {
	t.Helper()
	if cap(ls) != len(ls) {
		t.Errorf("%s: %d literals with capacity %d", where, len(ls), cap(ls))
	}
	for i := range ls {
		l := &ls[i]
		if cap(l.Atom.Args) != len(l.Atom.Args) {
			t.Errorf("%s[%d] %s: %d arguments with capacity %d", where, i, l.Atom.Pred, len(l.Atom.Args), cap(l.Atom.Args))
		}
		if vars := l.ForallVars(); cap(vars) != len(vars) {
			t.Errorf("%s[%d]: %d quantified variables with capacity %d", where, i, len(vars), cap(vars))
		}
		checkExact(t, where+" ∀-body", l.ForallBody())
	}
}

// scribble overwrites every argument and literal under ls, appends to
// every list and returns the grown ls: the worst a caller may do to the
// lists of a rule it owns. (The program is the test's own parse, shared
// with nobody, so the writes go through element pointers rather than
// the index writes astmut reserves for fresh slices.)
func scribble(ls []ast.Literal) []ast.Literal {
	for i := range ls {
		l := &ls[i]
		for k := range l.Atom.Args {
			a := &l.Atom.Args[k]
			a.Var = "Zz"
		}
		l.Atom.Args = append(l.Atom.Args, ast.V("Zz"))
		if q := l.Quant; q != nil {
			for k := range q.Vars {
				v := &q.Vars[k]
				*v = "Zz"
			}
			q.Vars = append(q.Vars, "Zz")
			q.Body = scribble(q.Body)
		}
		l.Atom.Pred, l.Neg = "Zz", !l.Neg
	}
	return append(ls, ast.Bottom())
}

// checkSettled holds the program src, which must parse, to the
// parser's list contract: every Head, Body, Args, ForallVars and ForallBody has
// cap == len; scribbling over one rule's lists leaves every other rule
// as it was; and, when its constants render as they parse, the
// program's text parses back to the same text.
func checkSettled(t *testing.T, src string) {
	t.Helper()
	u := value.New()
	prog, err := Parse(src, u)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog.Rules {
		r := &prog.Rules[i]
		checkExact(t, "rule "+r.String(u)+" head", r.Head)
		checkExact(t, "rule "+r.String(u)+" body", r.Body)
	}
	if text := prog.String(u); plainConstants(prog, u) {
		u2 := value.New()
		again, err := Parse(text, u2)
		if err != nil {
			t.Fatalf("the program's own text does not parse: %v\n%s", err, text)
		}
		if got := again.String(u2); got != text {
			t.Fatalf("the program's text parses to other text:\n%s\nnot\n%s", got, text)
		}
	}
	// Scribble over the rules one at a time, first to last and then, on
	// a fresh parse, last to first. A rule is checked once every rule
	// has been scribbled over: a write from a later rule shows in the
	// first order, one from an earlier rule in the second.
	for _, backward := range []bool{false, true} {
		prog := MustParse(src, u)
		n := len(prog.Rules)
		was := make([]string, n)
		for i := range prog.Rules {
			was[i] = prog.Rules[i].String(u)
		}
		for k := 0; k < n; k++ {
			i := k
			if backward {
				i = n - 1 - k
			}
			r := &prog.Rules[i]
			r.Head, r.Body = scribble(r.Head), scribble(r.Body)
			was[i] = r.String(u)
		}
		for i := range prog.Rules {
			if got := prog.Rules[i].String(u); got != was[i] {
				t.Fatalf("scribbling over the other rules changed rule %d from %s to %s", i, was[i], got)
			}
		}
	}
}

// plainConstants reports whether every constant of prog renders as
// text that parses back to it: an integer, or a symbol spelled as an
// identifier that is not a reserved word. A string constant renders
// unquoted ("a b" as a b), which need not parse at all.
func plainConstants(prog *ast.Program, u *value.Universe) bool {
	for _, c := range prog.Constants() {
		if u.Kind(c) == value.KindInt {
			continue
		}
		name := u.Name(c)
		lx := NewLexer(name, datalogPunct)
		tok, err := lx.Next()
		if err != nil || tok.Kind != TokIdent || tok.Text != name || name == "not" || name == "bottom" || name == "forall" {
			return false
		}
		if end, err := lx.Next(); err != nil || end.Kind != TokEOF {
			return false
		}
	}
	return true
}

func TestParsedListsAreSettled(t *testing.T) {
	const src = `
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
		A(X), !B(X) :- C(X, _), X != Y, D(Y, _).
		Answer(X) :- P(X), forall Y (Q(X,Y), !R(Y), forall Z (S(Y,Z))), X = a.
		Delay :- .
		P() :- Q(), bottom.
		Z(1, -2, "s") :- Z(1, -2, "s"), 3 = X, E(X).
	`
	u := value.New()
	prog := MustParse(src, u)
	if !plainConstants(prog, u) {
		t.Fatal("the program's constants do not all render as they parse")
	}
	if n := len(prog.Rules[4].Body); n != 0 || prog.Rules[4].Body != nil {
		t.Errorf("an empty body has %d literals and is not nil", n)
	}
	if args := prog.Rules[5].Head[0].Atom.Args; args != nil {
		t.Errorf("P() has arguments %v, want nil", args)
	}
	checkSettled(t, src)

	ls, err := ParseLiterals(`InStock(Item), !Reserved(O, Item), forall Y (P(Y)), X != a`, u)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, "ParseLiterals", ls)
	a, err := ParseAtom(`Order(O, Item, 3)`, u)
	if err != nil {
		t.Fatal(err)
	}
	if cap(a.Args) != len(a.Args) {
		t.Errorf("ParseAtom: %d arguments with capacity %d", len(a.Args), cap(a.Args))
	}
}

// TestParsesShareNoStacks: a parse in flight does not see, or disturb,
// what another parse left on the recycled stacks.
func TestParsesShareNoStacks(t *testing.T) {
	u := value.New()
	first := MustParse("A(X,Y,Z) :- B(X), C(Y), D(Z), E(X,Y,Z).", u)
	want := first.String(u)
	for i := 0; i < 4; i++ {
		if _, err := Parse("F(X) :- G(X,", u); err == nil {
			t.Fatal("a truncated rule parsed")
		}
		second := MustParse("P(a) :- Q(b, c).", u)
		if got := second.String(u); got != "P(a) :- Q(b,c).\n" {
			t.Fatalf("the second parse read %q", got)
		}
	}
	if got := first.String(u); got != want {
		t.Fatalf("later parses changed the first program from %q to %q", want, got)
	}
}
