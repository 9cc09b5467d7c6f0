package parser

import (
	"fmt"
	"strconv"
	"sync"

	"unchained/internal/ast"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// A parser reads a rule's literals and terms onto stacks that outlive
// the rule: an atom's or equality's Args are views of them, and so are
// a ∀-literal's variables and body, until settle copies the rule into
// exact arrays.
type parser struct {
	lx   Lexer
	tok  Token
	u    *value.Universe
	anon int // counter for '_' anonymous variables

	lits   []ast.Literal // the rule's head and body literals so far; a ∀-body while it is read
	terms  []ast.Term    // every atom and equality term of the rule so far, in source order
	parked []ast.Literal // the bodies of the rule's ∀-literals
	qvars  []string      // the variables of the rule's ∀-literals
	// quants holds the parts of the rule's ∀-literals in source order,
	// which is the order settle meets them in. A ∀-literal on the stack
	// has no Quant: settle gives it one.
	quants []ast.Quant
}

// parsers recycles the rule grammar's parsers, and with them their
// stacks: a short program reuses stacks an earlier parse grew instead
// of growing its own, which would cost more than its settled rules.
var parsers = sync.Pool{New: func() any { return new(parser) }}

// newParser returns a recycled parser over src. Hand it back with free.
func newParser(src string, u *value.Universe) *parser {
	p := parsers.Get().(*parser)
	p.lx, p.u = *NewLexer(src, datalogPunct), u
	return p
}

// free empties the parser, letting go of everything it read, and
// recycles it with its stacks.
func (p *parser) free() {
	clear(p.lits[:cap(p.lits)])
	clear(p.terms[:cap(p.terms)])
	clear(p.parked[:cap(p.parked)])
	clear(p.qvars[:cap(p.qvars)])
	clear(p.quants[:cap(p.quants)])
	*p = parser{lits: p.lits[:0], terms: p.terms[:0], parked: p.parked[:0], qvars: p.qvars[:0], quants: p.quants[:0]}
	parsers.Put(p)
}

// Parse parses a program in the family's concrete syntax, interning
// constants into u. The result is dialect-agnostic; run
// ast.Program.Validate to pin a dialect. Each rule is settled: its
// literals are one exact array and its atoms' and equalities' terms
// another; a rule with ∀-literals has one more for their parts and one
// for their variables.
func Parse(src string, u *value.Universe) (*ast.Program, error) {
	p := newParser(src, u)
	defer p.free()
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := &ast.Program{}
	for p.tok.Kind != TokEOF {
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		lits, nh := p.settle(), len(r.Head)
		r.Head, r.Body = lits[:nh:nh], nil
		if len(lits) > nh { // a rule without a body keeps a nil Body
			r.Body = lits[nh:]
		}
		prog.Rules = append(prog.Rules, r)
	}
	return prog, nil
}

// MustParse is Parse for trusted, static sources; it panics on error.
func MustParse(src string, u *value.Universe) *ast.Program {
	prog, err := Parse(src, u)
	if err != nil {
		panic("parser: " + err.Error())
	}
	return prog
}

// ParseRule parses a single rule.
func ParseRule(src string, u *value.Universe) (ast.Rule, error) {
	prog, err := Parse(src, u)
	if err != nil {
		return ast.Rule{}, err
	}
	if len(prog.Rules) != 1 {
		return ast.Rule{}, fmt.Errorf("expected exactly one rule, got %d", len(prog.Rules))
	}
	return prog.Rules[0], nil
}

// ParseLiterals parses a comma-separated list of literals (without a
// trailing dot), e.g. "InStock(Item), !Reserved(O, Item)". It is used
// by embedding formats like the active-database rule syntax.
func ParseLiterals(src string, u *value.Universe) ([]ast.Literal, error) {
	p := newParser(src, u)
	defer p.free()
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.literals(false); err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errf("unexpected %s after literal list", p.tok.Kind)
	}
	return p.settle(), nil
}

// ParseAtom parses a single atom, e.g. "Order(O, Item)".
func ParseAtom(src string, u *value.Universe) (ast.Atom, error) {
	p := newParser(src, u)
	defer p.free()
	if err := p.advance(); err != nil {
		return ast.Atom{}, err
	}
	var a ast.Atom
	if err := p.atom(&a); err != nil {
		return ast.Atom{}, err
	}
	if p.tok.Kind != TokEOF {
		return ast.Atom{}, p.errf("unexpected %s after atom", p.tok.Kind)
	}
	s := settler{terms: make([]ast.Term, 0, len(a.Args))}
	a.Args = s.args(a.Args)
	return a, nil
}

// ParseFacts parses a sequence of ground facts ("G(a,b). P(1).") into
// a fresh instance, interning constants into u. A fact is read straight
// into one scratch tuple and inserted; no rule, atom or term is built
// for it, and a run of one predicate's facts finds its relation once.
// Only a statement that is not of the plain shape "pred(const, ...)."
// is handed to the rule grammar, which either accepts it as a fact in
// another spelling ("P :- .") or names what is wrong with it. Such a
// rule is read off the stacks and dropped, never settled.
func ParseFacts(src string, u *value.Universe) (*tuple.Instance, error) {
	p := &parser{lx: *NewLexer(src, datalogPunct), u: u}
	if err := p.advance(); err != nil {
		return nil, err
	}
	in := tuple.NewInstance()
	var (
		buf  [8]value.Value         // a stack scratch for a fact of up to 8 constants
		t    = tuple.Tuple(buf[:0]) // one scratch for every fact: Insert copies it
		last string                 // the previous fact's predicate
		rel  *tuple.Relation        // and its relation
		ok   bool
	)
	for n := 1; p.tok.Kind != TokEOF; n++ {
		lx, first := p.lx, p.tok
		pred := first.Text
		if t, ok = p.plainFact(t[:0]); !ok {
			p.lx, p.tok = lx, first
			r, err := p.rule()
			if err != nil {
				return nil, err
			}
			if pred, t, err = groundFact(&r, n, t[:0]); err != nil {
				return nil, err
			}
			p.drop()
		}
		if rel == nil || pred != last {
			if rel, last = in.Relation(pred), pred; rel == nil {
				rel = in.Ensure(pred, len(t))
			}
		}
		if rel.Arity() != len(t) {
			return nil, fmt.Errorf("fact %d: %s has arity %d here but %d earlier", n, pred, len(t), rel.Arity())
		}
		rel.Insert(t)
	}
	return in, nil
}

// plainFact reads "pred ( const {, const} ) ." or "pred ." with the
// predicate name current, appending the constants to t and leaving the
// token after the '.' current. It reads the source bytes itself:
// punctuation and ASCII whitespace are byte compares, and a name that
// begins with an ASCII lower-case letter is interned off the source.
// Any other constant is a token, read from the byte where this stopped.
// On anything else it reports false wherever it got to; the caller
// rewinds.
func (p *parser) plainFact(t tuple.Tuple) (tuple.Tuple, bool) {
	if name := p.tok; (name.Kind != TokIdent && name.Kind != TokVar) || name.Text == "not" || name.Text == "bottom" {
		return t, false
	}
	lx := &p.lx
	lx.skipSpaceAndComments()
	if lx.skipByte('(') {
		for {
			lx.skipSpaceAndComments()
			var c value.Value
			if name := lx.lowerName(); name != "" {
				c = p.u.Sym(name)
			} else if tok, err := lx.Next(); err != nil {
				return t, false
			} else if c, err = p.constant(tok); err != nil {
				return t, false
			}
			t = append(t, c)
			lx.skipSpaceAndComments()
			if lx.skipByte(')') {
				break
			}
			if !lx.skipByte(',') {
				return t, false
			}
		}
		lx.skipSpaceAndComments()
	}
	return t, lx.skipByte('.') && p.advance() == nil
}

// groundFact converts a parsed rule that must be a ground fact,
// appending its constants to t.
func groundFact(r *ast.Rule, n int, t tuple.Tuple) (string, tuple.Tuple, error) {
	if len(r.Body) != 0 || len(r.Head) != 1 {
		return "", t, fmt.Errorf("fact %d: not a ground fact", n)
	}
	h := &r.Head[0]
	if h.Kind != ast.LitAtom || h.Neg {
		return "", t, fmt.Errorf("fact %d: not a positive atom", n)
	}
	for j, a := range h.Atom.Args {
		if a.IsVar() {
			return "", t, fmt.Errorf("fact %d: argument %d is a variable", n, j+1)
		}
		t = append(t, a.Const)
	}
	return h.Atom.Pred, t, nil
}

// MustParseFacts is ParseFacts for trusted sources.
func MustParseFacts(src string, u *value.Universe) *tuple.Instance {
	in, err := ParseFacts(src, u)
	if err != nil {
		panic("parser: " + err.Error())
	}
	return in
}

func (p *parser) advance() error {
	t, err := p.lx.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", p.tok.Line, p.tok.Col, fmt.Sprintf(format, args...))
}

// posOf converts a token's location to an AST source position.
func posOf(t Token) ast.Pos { return ast.Pos{Line: t.Line, Col: t.Col} }

func (p *parser) expect(k TokKind) error {
	if p.tok.Kind != k {
		return p.errf("expected %s, found %s", k, p.tok.Kind)
	}
	return p.advance()
}

// rule := literal {"," literal} [ ":-" literal {"," literal} ] "."
//
// The rule it returns is a draft: its lists are views of the stacks,
// good until the caller settles or drops them.
func (p *parser) rule() (ast.Rule, error) {
	var r ast.Rule
	r.SrcPos = posOf(p.tok)
	if err := p.literals(true); err != nil {
		return r, err
	}
	nh := len(p.lits)
	if p.tok.Kind == TokArrow {
		if err := p.advance(); err != nil {
			return r, err
		}
		// An empty body ("Delay :- .") mirrors the paper's "delay ←".
		for p.tok.Kind != TokDot {
			if err := p.literal(false); err != nil {
				return r, err
			}
			if p.tok.Kind != TokComma {
				break
			}
			if err := p.advance(); err != nil {
				return r, err
			}
		}
	}
	if err := p.expect(TokDot); err != nil {
		return r, err
	}
	r.Head, r.Body = p.lits[:nh], p.lits[nh:]
	return r, nil
}

// literals pushes "literal {"," literal}" onto the literal stack.
func (p *parser) literals(inHead bool) error {
	for {
		if err := p.literal(inHead); err != nil {
			return err
		}
		if p.tok.Kind != TokComma {
			return nil
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
}

// settle copies what the stacks hold (the top-level literals, the
// ∀-bodies they point into, every atom's and equality's terms and the
// ∀-literals' parts and variables) into exact-size arrays, and empties
// the stacks. It returns the top-level literals: the ∀-bodies follow
// them in the same array.
func (p *parser) settle() []ast.Literal {
	n := len(p.lits)
	s := settler{lits: make([]ast.Literal, n+len(p.parked)), next: n, parts: p.quants}
	if len(p.terms) > 0 {
		s.terms = make([]ast.Term, 0, len(p.terms))
	}
	if len(p.quants) > 0 {
		s.quants = make([]ast.Quant, 0, len(p.quants))
		s.vars = make([]string, 0, len(p.qvars))
	}
	s.list(s.lits[:n], p.lits)
	p.drop()
	return s.lits[:n:n]
}

// drop empties the stacks.
func (p *parser) drop() {
	p.lits, p.terms, p.parked = p.lits[:0], p.terms[:0], p.parked[:0]
	p.qvars, p.quants = p.qvars[:0], p.quants[:0]
}

// A settler fills the exact arrays of one settle call.
type settler struct {
	lits   []ast.Literal // the top-level literals, then the ∀-bodies
	next   int           // the first lits slot no ∀-body has taken
	terms  []ast.Term    // appended to in source order, never past its capacity
	parts  []ast.Quant   // the stacked ∀-parts, in source order
	quants []ast.Quant   // their copies, appended to in the same order
	vars   []string      // the quantified variables, likewise
}

// list copies src into dst, pointing each atom's and equality's terms
// and each ∀-literal's parts at the settler's arrays.
func (s *settler) list(dst, src []ast.Literal) {
	for i := range src {
		l := &dst[i]
		*l = src[i]
		switch l.Kind {
		case ast.LitAtom, ast.LitEq:
			l.Atom.Args = s.args(l.Atom.Args)
		case ast.LitForall:
			q := &s.parts[len(s.quants)]
			lo := s.next
			s.next += len(q.Body)
			body := s.lits[lo:s.next:s.next]
			nv := len(s.vars)
			s.vars = append(s.vars, q.Vars...)
			s.quants = append(s.quants, ast.Quant{Vars: s.vars[nv:len(s.vars):len(s.vars)], Body: body})
			l.Quant = &s.quants[len(s.quants)-1]
			s.list(body, q.Body)
		}
	}
}

// args appends a to the term array and returns the copy, capacity and
// all; no arguments stay nil.
func (s *settler) args(a []ast.Term) []ast.Term {
	if len(a) == 0 {
		return nil
	}
	n := len(s.terms)
	s.terms = append(s.terms, a...)
	return s.terms[n:len(s.terms):len(s.terms)]
}

// literal pushes one head or body literal onto the literal stack,
// filling it in its slot, and stamps it with the position of its first
// token ('!' for a negated atom). A ∀-literal is pushed once its body
// has been read and parked.
func (p *parser) literal(inHead bool) error {
	start := posOf(p.tok)
	if p.tok.Kind == TokIdent && p.tok.Text == "forall" && !inHead {
		return p.forall(start)
	}
	p.lits = append(p.lits, ast.Literal{SrcPos: start})
	l := &p.lits[len(p.lits)-1] // only the term stack grows while l is filled
	switch {
	case p.tok.Kind == TokBang,
		p.tok.Kind == TokIdent && p.tok.Text == "not":
		l.Neg = true
		if err := p.advance(); err != nil {
			return err
		}
		return p.atom(&l.Atom)
	case p.tok.Kind == TokIdent && p.tok.Text == "bottom":
		l.Kind = ast.LitBottom
		return p.advance()
	case p.tok.Kind == TokInt || p.tok.Kind == TokString:
		// A constant that is not a name can only start an equality.
		left, err := p.term()
		if err != nil {
			return err
		}
		return p.equality(l, left)
	case p.tok.Kind != TokIdent && p.tok.Kind != TokVar:
		return p.errf("expected a literal, found %s", p.tok.Kind)
	}
	// A name followed by '='/'!=' is an equality's left term; otherwise
	// it names an atom (possibly 0-ary).
	name := p.tok
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.Kind == TokEq || p.tok.Kind == TokNeq {
		left, err := p.nameToTerm(name)
		if err != nil {
			return err
		}
		return p.equality(l, left)
	}
	return p.args(&l.Atom, name)
}

// equality reads "(=|!=) term" after the left term into l, pushing
// both terms onto the term stack.
func (p *parser) equality(l *ast.Literal, left ast.Term) error {
	switch p.tok.Kind {
	case TokEq:
	case TokNeq:
		l.Neg = true
	default:
		return p.errf("expected '=' or '!=', found %s", p.tok.Kind)
	}
	if err := p.advance(); err != nil {
		return err
	}
	right, err := p.term()
	if err != nil {
		return err
	}
	n := len(p.terms)
	p.terms = append(p.terms, left, right)
	l.Kind, l.Atom.Args = ast.LitEq, p.terms[n:]
	return nil
}

// forall := "forall" VAR {"," VAR} "(" literal {"," literal} ")"
func (p *parser) forall(start ast.Pos) error {
	if err := p.advance(); err != nil { // consume 'forall'
		return err
	}
	// The parts are reserved now, before any ∀ in the body takes its own.
	k, nv := len(p.quants), len(p.qvars)
	p.quants = append(p.quants, ast.Quant{})
	for {
		if p.tok.Kind != TokVar {
			return p.errf("expected quantified variable, found %s", p.tok.Kind)
		}
		p.qvars = append(p.qvars, p.tok.Text)
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.Kind != TokComma {
			break
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
	vars := p.qvars[nv:]
	if err := p.expect(TokLParen); err != nil {
		return err
	}
	// The body goes onto the literal stack like any list, then moves to
	// the parked stack, so the list this literal is in stays contiguous.
	lo := len(p.lits)
	if err := p.literals(false); err != nil {
		return err
	}
	if err := p.expect(TokRParen); err != nil {
		return err
	}
	n := len(p.parked)
	p.parked = append(p.parked, p.lits[lo:]...)
	p.quants[k] = ast.Quant{Vars: vars, Body: p.parked[n:]}
	p.lits = append(p.lits[:lo], ast.Literal{Kind: ast.LitForall, SrcPos: start})
	return nil
}

// atom := name [ "(" args ")" ], read into a.
func (p *parser) atom(a *ast.Atom) error {
	if p.tok.Kind != TokIdent && p.tok.Kind != TokVar {
		return p.errf("expected predicate name, found %s", p.tok.Kind)
	}
	name := p.tok
	if err := p.advance(); err != nil {
		return err
	}
	return p.args(a, name)
}

// args reads the optional argument list of the atom name, which is
// already consumed, into a.
func (p *parser) args(a *ast.Atom, name Token) error {
	a.Pred, a.SrcPos = name.Text, posOf(name)
	if p.tok.Kind != TokLParen {
		return nil
	}
	args, err := p.argList()
	a.Args = args
	return err
}

// argList parses "(" term {"," term} ")" with the '(' current, pushing
// the terms onto the term stack and returning the view of them.
func (p *parser) argList() ([]ast.Term, error) {
	if err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	if p.tok.Kind == TokRParen {
		return nil, p.advance()
	}
	n := len(p.terms)
	for {
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		p.terms = append(p.terms, t)
		if p.tok.Kind == TokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return p.terms[n:], nil
}

// term parses a variable or constant and advances past it.
func (p *parser) term() (ast.Term, error) {
	name := p.tok
	switch name.Kind {
	case TokVar, TokIdent, TokInt, TokString:
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		return p.nameToTerm(name)
	default:
		return ast.Term{}, p.errf("expected a term, found %s", name.Kind)
	}
}

// nameToTerm converts an already-consumed name token to a term,
// stamped with the token's position.
func (p *parser) nameToTerm(t Token) (ast.Term, error) {
	tm, err := p.nameToTermInner(t)
	if err != nil {
		return tm, err
	}
	tm.SrcPos = posOf(t)
	return tm, nil
}

func (p *parser) nameToTermInner(t Token) (ast.Term, error) {
	switch t.Kind {
	case TokVar:
		if t.Text == "_" {
			p.anon++
			return ast.V("_anon" + strconv.Itoa(p.anon)), nil
		}
		return ast.V(t.Text), nil
	}
	c, err := p.constant(t)
	return ast.C(c), err
}

// constant interns the constant the token t spells.
func (p *parser) constant(t Token) (value.Value, error) {
	switch t.Kind {
	case TokIdent, TokString:
		return p.u.Sym(t.Text), nil
	case TokInt:
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return value.None, fmt.Errorf("%d:%d: bad integer %q", t.Line, t.Col, t.Text)
		}
		return p.u.Int(n), nil
	default:
		return value.None, fmt.Errorf("%d:%d: expected a term, found %s", t.Line, t.Col, t.Kind)
	}
}
