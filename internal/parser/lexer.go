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
// ParseFacts reads them off the token stream into tuples, building no
// rule, atom or term per fact; the rule grammar only sees the
// statements that are not plainly "pred(const, ...).".
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokVar
	tokInt
	tokString
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokArrow // :-
	tokBang  // !
	tokEq    // =
	tokNeq   // !=
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokInt:
		return "integer"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokArrow:
		return "':-'"
	case tokBang:
		return "'!'"
	case tokEq:
		return "'='"
	case tokNeq:
		return "'!='"
	default:
		return "?"
	}
}

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (lx *lexer) errf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (lx *lexer) peek() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.pos:])
	return r
}

func (lx *lexer) advance() rune {
	r, w := utf8.DecodeRuneInString(lx.src[lx.pos:])
	lx.pos += w
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		r := lx.peek()
		switch {
		case unicode.IsSpace(r):
			lx.advance()
		case r == '%':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case r == '/' && strings.HasPrefix(lx.src[lx.pos:], "//"):
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentRune(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// next returns the next token.
func (lx *lexer) next() (token, error) {
	lx.skipSpaceAndComments()
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	r := lx.peek()
	switch {
	case r == '(':
		lx.advance()
		return token{kind: tokLParen, line: line, col: col}, nil
	case r == ')':
		lx.advance()
		return token{kind: tokRParen, line: line, col: col}, nil
	case r == ',':
		lx.advance()
		return token{kind: tokComma, line: line, col: col}, nil
	case r == '.':
		lx.advance()
		return token{kind: tokDot, line: line, col: col}, nil
	case r == ':':
		lx.advance()
		if lx.peek() != '-' {
			return token{}, lx.errf(line, col, "expected ':-'")
		}
		lx.advance()
		return token{kind: tokArrow, line: line, col: col}, nil
	case r == '<': // accept '<-' as an alternative arrow, matching the paper
		lx.advance()
		if lx.peek() != '-' {
			return token{}, lx.errf(line, col, "expected '<-'")
		}
		lx.advance()
		return token{kind: tokArrow, line: line, col: col}, nil
	case r == '!':
		lx.advance()
		if lx.peek() == '=' {
			lx.advance()
			return token{kind: tokNeq, line: line, col: col}, nil
		}
		return token{kind: tokBang, line: line, col: col}, nil
	case r == '=':
		lx.advance()
		return token{kind: tokEq, line: line, col: col}, nil
	case r == '"':
		lx.advance()
		var b strings.Builder
		for {
			if lx.pos >= len(lx.src) {
				return token{}, lx.errf(line, col, "unterminated string")
			}
			c := lx.advance()
			if c == '"' {
				return token{kind: tokString, text: b.String(), line: line, col: col}, nil
			}
			if c == '\\' {
				if lx.pos >= len(lx.src) {
					return token{}, lx.errf(line, col, "unterminated escape")
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
					return token{}, lx.errf(line, col, "unknown escape \\%c", e)
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
				return token{}, lx.errf(line, col, "expected digit after '-'")
			}
		}
		for lx.pos < len(lx.src) && unicode.IsDigit(lx.peek()) {
			lx.advance()
		}
		return token{kind: tokInt, text: lx.src[start:lx.pos], line: line, col: col}, nil
	case isIdentStart(r):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentRune(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		first, _ := utf8.DecodeRuneInString(text)
		if first == '_' || unicode.IsUpper(first) {
			return token{kind: tokVar, text: text, line: line, col: col}, nil
		}
		return token{kind: tokIdent, text: text, line: line, col: col}, nil
	default:
		return token{}, lx.errf(line, col, "unexpected character %q", r)
	}
}
