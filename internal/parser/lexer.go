// Package parser implements the concrete syntax for the whole
// language family. One grammar covers every dialect; ast.Validate
// then restricts a parsed program to the dialect an engine supports.
//
// Syntax (Prolog-flavoured; the paper's lower-case variables are
// written upper-case here):
//
//	% a comment (also //)
//	T(X,Y) :- G(X,Y).
//	T(X,Y) :- G(X,Z), T(Z,Y).
//	CT(X,Y) :- !T(X,Y).                 % '!' or 'not' negates
//	!Win(X) :- Moves(X,Y).              % head negation (Datalog¬¬)
//	A(X), !B(X) :- C(X).                % multi-head (N-Datalog¬¬)
//	Ans(X) :- P(X), X != Y, Q(Y).       % equality literals
//	bottom :- Done, Q(X,Y), !Proj(X).   % ⊥ head (N-Datalog¬⊥)
//	Ans(X) :- forall Y (P(X), !Q(X,Y)). % ∀ body (N-Datalog¬∀)
//	Delay.                              % empty-body rule (paper: delay ←)
//	Edge(a,b).  Age("Ann", 31).         % ground facts
//
// Identifiers starting with an upper-case letter or '_' are
// variables; identifiers starting lower-case, quoted strings and
// integers are constants.
//
// Facts files are the same syntax restricted to ground positive atoms.
// ParseFacts reads a fact's punctuation, whitespace and lower-case
// names straight off the source bytes into a tuple, building no token,
// rule, atom or term for them; only its other constants are tokens, and
// the rule grammar only sees the statements that are not plainly
// "pred(const, ...).".
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokKind is the kind of a token. The scanner is shared by the
// languages of the family (this package's Datalog, internal/while's
// imperative language): whitespace, comments, strings, integers,
// identifiers and positions are the same in all of them, and each
// language names the punctuation it has (Punct).
type TokKind uint8

// The token kinds: the lexical classes every language has, then the
// punctuation of Datalog, then what the while language adds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokVar
	TokInt
	TokString
	TokLParen
	TokRParen
	TokComma
	TokDot
	TokArrow // :-
	TokBang  // !
	TokEq    // =
	TokNeq   // !=
	TokLBrace
	TokRBrace
	TokSemi
	TokAssign // :=
	TokPlusEq // +=
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokVar:
		return "variable"
	case TokInt:
		return "integer"
	case TokString:
		return "string"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokComma:
		return "','"
	case TokDot:
		return "'.'"
	case TokArrow:
		return "':-'"
	case TokBang:
		return "'!'"
	case TokEq:
		return "'='"
	case TokNeq:
		return "'!='"
	case TokLBrace:
		return "'{'"
	case TokRBrace:
		return "'}'"
	case TokSemi:
		return "';'"
	case TokAssign:
		return "':='"
	case TokPlusEq:
		return "'+='"
	default:
		return "?"
	}
}

// Token is one lexeme: its kind, its text (identifiers, variables,
// integers, and strings with their escapes resolved) and the 1-based
// line and column it starts at.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

// Punct is one punctuation token of a language: its spelling and the
// kind it scans as. In a language's table a spelling comes before its
// own prefixes ("!=" before "!"); a character that begins a spelling
// but none that matches is reported as "expected" the first of them.
type Punct struct {
	Text string
	Kind TokKind
}

// datalogPunct is the punctuation of the rule syntax. '<-' is accepted
// as an alternative arrow, matching the paper.
var datalogPunct = []Punct{
	{"(", TokLParen}, {")", TokRParen}, {",", TokComma}, {".", TokDot},
	{":-", TokArrow}, {"<-", TokArrow}, {"!=", TokNeq}, {"!", TokBang}, {"=", TokEq},
}

// Lexer scans a source text into tokens.
type Lexer struct {
	src   string
	punct []Punct
	pos   int
	line  int
	col   int
}

// NewLexer returns a scanner over src for the language with the given
// punctuation.
func NewLexer(src string, punct []Punct) *Lexer {
	return &Lexer{src: src, punct: punct, line: 1, col: 1}
}

func (lx *Lexer) errf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

// peek returns the rune at the cursor, 0 at the end. A byte below
// utf8.RuneSelf is its own rune, and most source is such bytes.
func (lx *Lexer) peek() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	if c := lx.src[lx.pos]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.pos:])
	return r
}

// advance moves the cursor past one rune and returns it; a rune is one
// column, whatever its width in bytes.
func (lx *Lexer) advance() rune {
	r, w := rune(0), 1
	if lx.pos < len(lx.src) && lx.src[lx.pos] < utf8.RuneSelf {
		r = rune(lx.src[lx.pos])
	} else {
		r, w = utf8.DecodeRuneInString(lx.src[lx.pos:])
	}
	lx.pos += w
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

// skipSpaceAndComments moves the cursor past whitespace and comments.
// An ASCII byte is decided by itself: only a byte at or past
// utf8.RuneSelf can begin the rest of Unicode's whitespace.
func (lx *Lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		switch c := lx.src[lx.pos]; c {
		case ' ', '\t', '\r', '\v', '\f':
			lx.pos++
			lx.col++
		case '\n':
			lx.pos++
			lx.line++
			lx.col = 1
		case '%':
			lx.skipLine()
		case '/':
			if !strings.HasPrefix(lx.src[lx.pos:], "//") {
				return
			}
			lx.skipLine()
		default:
			if c < utf8.RuneSelf || !unicode.IsSpace(lx.peek()) {
				return
			}
			lx.advance()
		}
	}
}

// skipLine moves the cursor to the end of the line, a comment's end.
func (lx *Lexer) skipLine() {
	for lx.pos < len(lx.src) && lx.peek() != '\n' {
		lx.advance()
	}
}

// asciiIdent marks the bytes below utf8.RuneSelf that continue a name.
var asciiIdent = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
	}
	return t
}()

func isIdentStart(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiIdent[r] && (r < '0' || r > '9')
	}
	return unicode.IsLetter(r)
}

// scanName moves the cursor past the runes that continue a name:
// letters, digits and '_'.
func (lx *Lexer) scanName() {
	src, pos, col := lx.src, lx.pos, lx.col
	for pos < len(src) {
		if c := src[pos]; c < utf8.RuneSelf {
			if !asciiIdent[c] {
				break
			}
			pos++
		} else if r, w := utf8.DecodeRuneInString(src[pos:]); unicode.IsLetter(r) || unicode.IsDigit(r) {
			pos += w
		} else {
			break
		}
		col++
	}
	lx.pos, lx.col = pos, col
}

// skipByte moves the cursor past c, an ASCII byte other than a
// newline, if it comes next, and reports whether it did.
func (lx *Lexer) skipByte(c byte) bool {
	if lx.pos < len(lx.src) && lx.src[lx.pos] == c {
		lx.pos++
		lx.col++
		return true
	}
	return false
}

// lowerName moves the cursor past a name that begins with an ASCII
// lower-case letter, which Next would return as an identifier, and
// returns it; at anything else it returns "" and stays put.
func (lx *Lexer) lowerName() string {
	if lx.pos >= len(lx.src) || lx.src[lx.pos] < 'a' || lx.src[lx.pos] > 'z' {
		return ""
	}
	start := lx.pos
	lx.scanName()
	return lx.src[start:lx.pos]
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	lx.skipSpaceAndComments()
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Line: line, Col: col}, nil
	}
	r := lx.peek()
	// Names first: most tokens are names, and no punctuation begins
	// like one.
	if isIdentStart(r) {
		start := lx.pos
		lx.scanName()
		text := lx.src[start:lx.pos]
		if r == '_' || unicode.IsUpper(r) {
			return Token{Kind: TokVar, Text: text, Line: line, Col: col}, nil
		}
		return Token{Kind: TokIdent, Text: text, Line: line, Col: col}, nil
	}
	// Punctuation is ASCII: a spelling is found by its first byte, and
	// is as many columns as bytes.
	expected := ""
	for i := range lx.punct {
		p := &lx.punct[i]
		if p.Text[0] != lx.src[lx.pos] {
			continue
		}
		if len(p.Text) == 1 || strings.HasPrefix(lx.src[lx.pos:], p.Text) {
			lx.pos += len(p.Text)
			lx.col += len(p.Text)
			return Token{Kind: p.Kind, Line: line, Col: col}, nil
		}
		if expected == "" {
			expected = p.Text
		}
	}
	switch {
	case expected != "":
		return Token{}, lx.errf(line, col, "expected '%s'", expected)
	case r == '"':
		lx.advance()
		var b strings.Builder
		for {
			if lx.pos >= len(lx.src) {
				return Token{}, lx.errf(line, col, "unterminated string")
			}
			c := lx.advance()
			if c == '"' {
				return Token{Kind: TokString, Text: b.String(), Line: line, Col: col}, nil
			}
			if c == '\\' {
				if lx.pos >= len(lx.src) {
					return Token{}, lx.errf(line, col, "unterminated escape")
				}
				e := lx.advance()
				switch e {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '"', '\\':
					b.WriteRune(e)
				default:
					return Token{}, lx.errf(line, col, "unknown escape \\%c", e)
				}
				continue
			}
			b.WriteRune(c)
		}
	case r == '-' || unicode.IsDigit(r):
		start := lx.pos
		if r == '-' {
			lx.advance()
			if !unicode.IsDigit(lx.peek()) {
				return Token{}, lx.errf(line, col, "expected digit after '-'")
			}
		}
		for lx.pos < len(lx.src) && unicode.IsDigit(lx.peek()) {
			lx.advance()
		}
		return Token{Kind: TokInt, Text: lx.src[start:lx.pos], Line: line, Col: col}, nil
	default:
		return Token{}, lx.errf(line, col, "unexpected character %q", r)
	}
}
