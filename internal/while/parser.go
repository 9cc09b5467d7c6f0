package while

import (
	"fmt"
	"strconv"

	"unchained/internal/fo"
	"unchained/internal/parser"
	"unchained/internal/value"
)

// Parse parses a while-language program in the concrete syntax of
// Section 2's imperative languages:
//
//	% transitive closure, then its complement
//	T(X,Y) += G(X,Y);
//	while change do {
//	    T(X,Y) += exists Z (T(X,Z) and G(Z,Y));
//	}
//	CT(X,Y) := not T(X,Y);
//
// Statements are destructive (:=) or cumulative (+=) assignments of
// an FO formula to a relation variable, and "while change do { … }"
// loops. Formulas use and/or/not/implies, exists/forall with
// parenthesized bodies, atoms R(X,c,1), and (in)equalities X = Y,
// X != c. Variables are upper-case; constants are lower-case
// identifiers, quoted strings or integers (interned into u).
func Parse(src string, u *value.Universe) (*Program, error) {
	p := &wparser{lx: parser.NewLexer(src, punct), u: u, consts: map[value.Value]bool{}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := &Program{}
	for p.tok.Kind != parser.TokEOF {
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, st)
	}
	for v := range p.consts {
		prog.Consts = append(prog.Consts, v)
	}
	return prog, nil
}

// MustParse is Parse for trusted sources; it panics on error.
func MustParse(src string, u *value.Universe) *Program {
	p, err := Parse(src, u)
	if err != nil {
		panic("while: " + err.Error())
	}
	return p
}

// punct is the punctuation of the while language; the scanner is
// internal/parser's.
var punct = []parser.Punct{
	{Text: "(", Kind: parser.TokLParen}, {Text: ")", Kind: parser.TokRParen},
	{Text: "{", Kind: parser.TokLBrace}, {Text: "}", Kind: parser.TokRBrace},
	{Text: ",", Kind: parser.TokComma}, {Text: ";", Kind: parser.TokSemi},
	{Text: ":=", Kind: parser.TokAssign}, {Text: "+=", Kind: parser.TokPlusEq},
	{Text: "=", Kind: parser.TokEq}, {Text: "!=", Kind: parser.TokNeq},
}

type wparser struct {
	lx     *parser.Lexer
	tok    parser.Token
	u      *value.Universe
	consts map[value.Value]bool
}

func (p *wparser) advance() error {
	t, err := p.lx.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *wparser) errf(format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", p.tok.Line, p.tok.Col, fmt.Sprintf(format, args...))
}

func (p *wparser) expect(k parser.TokKind) error {
	if p.tok.Kind != k {
		return p.errf("expected %s, found %s", k, p.tok.Kind)
	}
	return p.advance()
}

func (p *wparser) isKw(kw string) bool {
	return p.tok.Kind == parser.TokIdent && p.tok.Text == kw
}

// stmt := "while" "change" "do" "{" {stmt} "}" | assign ";"
func (p *wparser) stmt() (Stmt, error) {
	if p.isKw("while") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isKw("change") {
			return nil, p.errf("expected 'change' after 'while'")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isKw("do") {
			return nil, p.errf("expected 'do'")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(parser.TokLBrace); err != nil {
			return nil, err
		}
		var body []Stmt
		for p.tok.Kind != parser.TokRBrace {
			st, err := p.stmt()
			if err != nil {
				return nil, err
			}
			body = append(body, st)
		}
		if err := p.expect(parser.TokRBrace); err != nil {
			return nil, err
		}
		return Loop{Body: body}, nil
	}

	// assign := name "(" vars ")" (":="|"+=") formula ";"
	if p.tok.Kind != parser.TokIdent && p.tok.Kind != parser.TokVar {
		return nil, p.errf("expected a statement, found %s", p.tok.Kind)
	}
	rel := p.tok.Text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expect(parser.TokLParen); err != nil {
		return nil, err
	}
	var vars []string
	for p.tok.Kind != parser.TokRParen {
		if p.tok.Kind != parser.TokVar {
			return nil, p.errf("assignment columns must be variables, found %s", p.tok.Kind)
		}
		vars = append(vars, p.tok.Text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Kind == parser.TokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expect(parser.TokRParen); err != nil {
		return nil, err
	}
	var cumulative bool
	switch p.tok.Kind {
	case parser.TokAssign:
	case parser.TokPlusEq:
		cumulative = true
	default:
		return nil, p.errf("expected ':=' or '+=', found %s", p.tok.Kind)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	f, err := p.formula()
	if err != nil {
		return nil, err
	}
	if err := p.expect(parser.TokSemi); err != nil {
		return nil, err
	}
	return Assign{Rel: rel, Vars: vars, F: f, Cumulative: cumulative}, nil
}

// formula := disj ["implies" formula]   (right-associative)
func (p *wparser) formula() (fo.Formula, error) {
	left, err := p.disj()
	if err != nil {
		return nil, err
	}
	if p.isKw("implies") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.formula()
		if err != nil {
			return nil, err
		}
		return fo.Implies(left, right), nil
	}
	return left, nil
}

func (p *wparser) disj() (fo.Formula, error) {
	left, err := p.conj()
	if err != nil {
		return nil, err
	}
	fs := []fo.Formula{left}
	for p.isKw("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		f, err := p.conj()
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	if len(fs) == 1 {
		return left, nil
	}
	return fo.OrF(fs...), nil
}

func (p *wparser) conj() (fo.Formula, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	fs := []fo.Formula{left}
	for p.isKw("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	if len(fs) == 1 {
		return left, nil
	}
	return fo.AndF(fs...), nil
}

func (p *wparser) unary() (fo.Formula, error) {
	switch {
	case p.isKw("not"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return fo.NotF(f), nil
	case p.isKw("exists"), p.isKw("forall"):
		univ := p.isKw("forall")
		if err := p.advance(); err != nil {
			return nil, err
		}
		var vars []string
		for p.tok.Kind == parser.TokVar {
			vars = append(vars, p.tok.Text)
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.Kind == parser.TokComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				if p.tok.Kind != parser.TokVar {
					return nil, p.errf("expected variable after ',' in quantifier")
				}
			}
		}
		if len(vars) == 0 {
			return nil, p.errf("quantifier without variables")
		}
		if err := p.expect(parser.TokLParen); err != nil {
			return nil, err
		}
		body, err := p.formula()
		if err != nil {
			return nil, err
		}
		if err := p.expect(parser.TokRParen); err != nil {
			return nil, err
		}
		if univ {
			return fo.ForallF(vars, body), nil
		}
		return fo.ExistsF(vars, body), nil
	case p.tok.Kind == parser.TokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		f, err := p.formula()
		if err != nil {
			return nil, err
		}
		if err := p.expect(parser.TokRParen); err != nil {
			return nil, err
		}
		return f, nil
	default:
		return p.atomOrEq()
	}
}

// atomOrEq := name "(" terms ")" | term ("="|"!=") term
func (p *wparser) atomOrEq() (fo.Formula, error) {
	// A constant or variable followed by = / != is an equality.
	if p.tok.Kind == parser.TokInt || p.tok.Kind == parser.TokString {
		left, err := p.term()
		if err != nil {
			return nil, err
		}
		return p.eqTail(left)
	}
	if p.tok.Kind != parser.TokIdent && p.tok.Kind != parser.TokVar {
		return nil, p.errf("expected a formula, found %s", p.tok.Kind)
	}
	name := p.tok
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch p.tok.Kind {
	case parser.TokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		var args []fo.Term
		for p.tok.Kind != parser.TokRParen {
			t, err := p.term()
			if err != nil {
				return nil, err
			}
			args = append(args, t)
			if p.tok.Kind == parser.TokComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expect(parser.TokRParen); err != nil {
			return nil, err
		}
		return fo.AtomF(name.Text, args...), nil
	case parser.TokEq, parser.TokNeq:
		left, err := p.nameToTerm(name)
		if err != nil {
			return nil, err
		}
		return p.eqTail(left)
	default:
		return nil, p.errf("expected '(' or '=' after %q", name.Text)
	}
}

func (p *wparser) eqTail(left fo.Term) (fo.Formula, error) {
	neg := false
	switch p.tok.Kind {
	case parser.TokEq:
	case parser.TokNeq:
		neg = true
	default:
		return nil, p.errf("expected '=' or '!='")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	right, err := p.term()
	if err != nil {
		return nil, err
	}
	eq := fo.EqF(left, right)
	if neg {
		return fo.NotF(eq), nil
	}
	return eq, nil
}

func (p *wparser) term() (fo.Term, error) {
	t := p.tok
	switch t.Kind {
	case parser.TokVar:
		if err := p.advance(); err != nil {
			return fo.Term{}, err
		}
		return fo.V(t.Text), nil
	case parser.TokIdent, parser.TokString, parser.TokInt:
		if err := p.advance(); err != nil {
			return fo.Term{}, err
		}
		return p.nameToTerm(t)
	default:
		return fo.Term{}, p.errf("expected a term, found %s", t.Kind)
	}
}

func (p *wparser) nameToTerm(t parser.Token) (fo.Term, error) {
	switch t.Kind {
	case parser.TokVar:
		return fo.V(t.Text), nil
	case parser.TokIdent, parser.TokString:
		v := p.u.Sym(t.Text)
		p.consts[v] = true
		return fo.C(v), nil
	case parser.TokInt:
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return fo.Term{}, fmt.Errorf("%d:%d: bad integer %q", t.Line, t.Col, t.Text)
		}
		v := p.u.Int(n)
		p.consts[v] = true
		return fo.C(v), nil
	default:
		return fo.Term{}, fmt.Errorf("%d:%d: expected a term", t.Line, t.Col)
	}
}
