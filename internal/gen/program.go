package gen

import (
	"unchained/internal/ast"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Chooser makes the choices of the program generator: Intn(n) returns
// a number in [0, n). A *rand.Rand is one; Bytes is another.
type Chooser interface{ Intn(n int) int }

// Bytes returns a Chooser that reads its choices from data, one byte
// each (the byte mod n), and chooses 0 once data runs out, so that a
// fuzzer mutating data mutates the structure of the program.
func Bytes(data []byte) Chooser { return (*byteChooser)(&data) }

type byteChooser []byte

func (b *byteChooser) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v) % n
}

// relations is the one schema of the generated programs. No rule
// derives the first two, so negating only them keeps a program
// semi-positive.
var relations = [...]struct {
	name  string
	arity int
}{{"E", 2}, {"P", 1}, {"A", 1}, {"B", 1}, {"R", 2}, {"S", 2}, {"T", 3}}

const nExtensional = 2

var variables = [...]string{"X", "Y", "Z", "W"}

// Program returns a program of dialect d drawn from c: one to six
// rules over E/2 and P/1, which no rule derives, and A/1, B/1, R/2,
// S/2 and T/3, with variables X, Y, Z, W and constants n0–n2. Terms
// repeat variables and name constants. The program is safe by
// construction and uses exactly the features d admits: body and head
// negation, several heads, = and !=, ∀ (its variable may shadow an
// outer one), ⊥, invention, and head variables that only a negative
// literal or an equality mentions, which range over the active domain.
func Program(c Chooser, u *value.Universe, d ast.Dialect) *ast.Program {
	g := grammar{c: c, consts: Nodes(u, 3), forbid: d.Forbids()}
	return g.program()
}

// SemiPositive is Program over Datalog¬ with negation on E and P only.
func SemiPositive(c Chooser, u *value.Universe) *ast.Program {
	g := grammar{c: c, consts: Nodes(u, 3), forbid: ast.DialectDatalogNeg.Forbids(), semiPositive: true}
	return g.program()
}

// Facts returns an instance for p drawn from c: four to twelve facts
// over the relations p mentions, derived ones included, and the
// constants n0–n3, one more than programs name.
func Facts(c Chooser, u *value.Universe, p *ast.Program) *tuple.Instance {
	preds, consts := ast.NewIndex(p).Preds, Nodes(u, 4)
	in := tuple.NewInstance()
	for _, pi := range preds {
		in.Ensure(pi.Name, pi.Arity)
	}
	for n := 4 + c.Intn(9); n > 0 && len(preds) > 0; n-- {
		pi := preds[c.Intn(len(preds))]
		t := make(tuple.Tuple, pi.Arity)
		for i := range t {
			t[i] = consts[c.Intn(len(consts))]
		}
		in.Insert(pi.Name, t)
	}
	return in
}

type grammar struct {
	c            Chooser
	consts       []value.Value
	forbid       ast.Feature
	semiPositive bool
}

func (g *grammar) allows(f ast.Feature) bool { return g.forbid&f == 0 }

func (g *grammar) program() *ast.Program {
	n := 1 + g.c.Intn(6)
	rules := make([]ast.Rule, 0, n)
	for range n {
		rules = append(rules, g.rule())
	}
	return ast.NewProgram(rules...)
}

// rule draws one to three body literals, then one head literal (two
// when d admits several) whose variables come from the body: any body
// variable, only the positively bound ones where d requires it, any
// variable at all where d invents values.
func (g *grammar) rule() ast.Rule {
	var r ast.Rule
	for n := 1 + g.c.Intn(3); len(r.Body) < n; {
		r.Body = append(r.Body, g.literal())
	}
	pool := r.BodyVars()
	switch {
	case !g.allows(ast.FeatUnboundVar):
		pool = r.PositiveBodyVars()
	case g.allows(ast.FeatHeadOnlyVar):
		pool = variables[:]
	}
	n := 1
	if g.allows(ast.FeatMultiHead) {
		n += g.c.Intn(2)
	}
	for range n {
		r.Head = append(r.Head, g.head(pool))
	}
	return r
}

func (g *grammar) head(pool []string) ast.Literal {
	if g.allows(ast.FeatBottom) && g.c.Intn(4) == 0 {
		return ast.Bottom()
	}
	a := g.atom(nExtensional+g.c.Intn(len(relations)-nExtensional), pool)
	if g.allows(ast.FeatHeadNeg) && g.c.Intn(2) == 1 {
		return ast.Neg(a)
	}
	return ast.PosLit(a)
}

// literal draws a body literal: a positive atom, or, as d admits, a
// negative atom, an (in)equality or a ∀ over one or two variables and
// one or two atoms or (in)equalities. The draws of a feature d lacks
// go to negation, so that Datalog¬ programs recurse through negation
// often enough to leave facts unknown in the well-founded model.
func (g *grammar) literal() ast.Literal {
	switch k := g.c.Intn(5); {
	case k == 3 && g.allows(ast.FeatEquality):
		return g.equality()
	case k == 4 && g.allows(ast.FeatForall):
		return g.forall()
	case k >= 2 && g.allows(ast.FeatBodyNeg):
		if g.semiPositive {
			return ast.Neg(g.atom(g.c.Intn(nExtensional), variables[:]))
		}
		return ast.Neg(g.atom(g.c.Intn(len(relations)), variables[:]))
	}
	return ast.PosLit(g.atom(g.c.Intn(len(relations)), variables[:]))
}

func (g *grammar) forall() ast.Literal {
	vars := []string{g.variable()}
	if g.c.Intn(2) == 1 {
		if v := g.variable(); v != vars[0] {
			vars = append(vars, v)
		}
	}
	body := make([]ast.Literal, 1+g.c.Intn(2))
	for i := range body {
		switch g.c.Intn(3) {
		case 0:
			body[i] = ast.PosLit(g.atom(g.c.Intn(len(relations)), variables[:]))
		case 1:
			body[i] = ast.Neg(g.atom(g.c.Intn(len(relations)), variables[:]))
		default:
			body[i] = g.equality()
		}
	}
	return ast.Forall(vars, body...)
}

func (g *grammar) variable() string { return variables[g.c.Intn(len(variables))] }

func (g *grammar) equality() ast.Literal {
	l, r := g.term(variables[:]), g.term(variables[:])
	if g.c.Intn(2) == 1 {
		return ast.Neq(l, r)
	}
	return ast.Eq(l, r)
}

func (g *grammar) atom(rel int, pool []string) ast.Atom {
	args := make([]ast.Term, relations[rel].arity)
	for i := range args {
		args[i] = g.term(pool)
	}
	return ast.Atom{Pred: relations[rel].name, Args: args}
}

// term draws a variable of pool or, one time in five (always when pool
// is empty), a constant.
func (g *grammar) term(pool []string) ast.Term {
	if g.c.Intn(5) == 4 || len(pool) == 0 {
		return ast.C(g.consts[g.c.Intn(len(g.consts))])
	}
	return ast.V(pool[g.c.Intn(len(pool))])
}
