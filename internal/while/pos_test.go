package while

import (
	"testing"

	"unchained/internal/parser"
)

// TestWLexerColumnsCountRunes pins the rune-based column convention
// shared with internal/parser: multi-byte runes advance the column by
// one, keeping line:col diagnostics correct on UTF-8 sources.
func TestWLexerColumnsCountRunes(t *testing.T) {
	// "é" is two bytes but one rune/column; byte counting would put
	// foo at column 6 instead of 5.
	lx := parser.NewLexer(`"é" foo`, punct)
	s, err := lx.Next()
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != parser.TokString || s.Col != 1 {
		t.Fatalf("string token at col %d, want 1", s.Col)
	}
	id, err := lx.Next()
	if err != nil {
		t.Fatal(err)
	}
	if id.Kind != parser.TokIdent || id.Text != "foo" || id.Col != 5 {
		t.Fatalf("got %q at col %d, want foo at col 5", id.Text, id.Col)
	}
}

// TestWLexerLinesAfterMultibyteString checks multi-byte runes do not
// skew positions on following lines.
func TestWLexerLinesAfterMultibyteString(t *testing.T) {
	lx := parser.NewLexer("\"⊥∀\"\nwhile", punct)
	if _, err := lx.Next(); err != nil {
		t.Fatal(err)
	}
	tok, err := lx.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tok.Text != "while" || tok.Line != 2 || tok.Col != 1 {
		t.Fatalf("got %q at %d:%d, want while at 2:1", tok.Text, tok.Line, tok.Col)
	}
}
