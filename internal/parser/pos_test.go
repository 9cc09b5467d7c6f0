package parser

import (
	"testing"

	"unchained/internal/ast"
	"unchained/internal/value"
)

// TestLexerColumnsCountRunes pins the rune-based column convention:
// a multi-byte rune advances the column by one, not by its byte
// width, so line:col diagnostics are correct on UTF-8 sources.
func TestLexerColumnsCountRunes(t *testing.T) {
	// "é" is two bytes but one rune/column; byte counting would put
	// X at column 9 instead of 8.
	lx := NewLexer(`P("é", X)`, datalogPunct)
	want := []struct {
		kind TokKind
		col  int
	}{
		{TokVar, 1},    // P (upper-case names lex as variables)
		{TokLParen, 2}, // (
		{TokString, 3}, // "é"
		{TokComma, 6},  // ,
		{TokVar, 8},    // X
		{TokRParen, 9}, // )
	}
	for i, w := range want {
		tok, err := lx.Next()
		if err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
		if tok.Kind != w.kind || tok.Col != w.col {
			t.Errorf("token %d: got %s at col %d, want %s at col %d",
				i, tok.Kind, tok.Col, w.kind, w.col)
		}
	}
}

// TestLexerColumnsAfterMultibyteComment checks that multi-byte runes
// inside comments do not skew positions on following lines.
func TestLexerColumnsAfterMultibyteComment(t *testing.T) {
	lx := NewLexer("% ∀∃⊥ symbols\nWin(X)", datalogPunct)
	tok, err := lx.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tok.Kind != TokVar || tok.Text != "Win" || tok.Line != 2 || tok.Col != 1 {
		t.Fatalf("got %s %q at %d:%d, want Win at 2:1", tok.Kind, tok.Text, tok.Line, tok.Col)
	}
}

// TestLexerColumnsAfterMultibyteName: a name may hold letters beyond
// ASCII, which the lexer decodes where it reads other names byte by
// byte; each is one column.
func TestLexerColumnsAfterMultibyteName(t *testing.T) {
	lx := NewLexer("Größe(ñu1, X)", datalogPunct)
	for i, w := range []struct {
		text string
		col  int
	}{{"Größe", 1}, {"", 6}, {"ñu1", 7}, {"", 10}, {"X", 12}} {
		tok, err := lx.Next()
		if err != nil || tok.Text != w.text || tok.Col != w.col {
			t.Fatalf("token %d: %q at col %d (%v), want %q at col %d", i, tok.Text, tok.Col, err, w.text, w.col)
		}
	}
}

// TestParsePositions checks that positions survive the trip from the
// lexer through the parser into the AST.
func TestParsePositions(t *testing.T) {
	u := value.New()
	src := "% header comment\nWin(X) :-\n  Moves(X, Y), !Win(Y).\n"
	prog, err := Parse(src, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 {
		t.Fatalf("parsed %d rules", len(prog.Rules))
	}
	r := prog.Rules[0]
	at := func(name string, got, want ast.Pos) {
		t.Helper()
		if got != want {
			t.Errorf("%s at %s, want %s", name, got, want)
		}
	}
	at("rule", r.SrcPos, ast.Pos{Line: 2, Col: 1})
	at("head literal", r.Head[0].SrcPos, ast.Pos{Line: 2, Col: 1})
	at("head atom", r.Head[0].Atom.SrcPos, ast.Pos{Line: 2, Col: 1})
	at("head var X", r.Head[0].Atom.Args[0].SrcPos, ast.Pos{Line: 2, Col: 5})
	at("body[0] literal", r.Body[0].SrcPos, ast.Pos{Line: 3, Col: 3})
	at("body[0] var Y", r.Body[0].Atom.Args[1].SrcPos, ast.Pos{Line: 3, Col: 12})
	// A negated literal is positioned at its '!', the atom at its name.
	at("body[1] literal", r.Body[1].SrcPos, ast.Pos{Line: 3, Col: 16})
	at("body[1] atom", r.Body[1].Atom.SrcPos, ast.Pos{Line: 3, Col: 17})
	if !r.Body[1].Neg {
		t.Fatalf("body[1] not negated: %+v", r.Body[1])
	}
}

// TestHandBuiltASTHasZeroPositions pins backward compatibility: AST
// nodes built in code carry the zero (unknown) position.
func TestHandBuiltASTHasZeroPositions(t *testing.T) {
	l := ast.PosLit(ast.Atom{Pred: "P", Args: []ast.Term{ast.V("X")}})
	if l.SrcPos.IsValid() || l.Atom.SrcPos.IsValid() || l.Atom.Args[0].SrcPos.IsValid() {
		t.Fatalf("hand-built literal has a valid position: %+v", l)
	}
	if got := l.SrcPos.String(); got != "-" {
		t.Fatalf("zero position renders %q, want -", got)
	}
}
