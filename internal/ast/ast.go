// Package ast defines the abstract syntax shared by every language in
// the Datalog family the paper surveys: Datalog (Definition 3.1),
// Datalog¬ (Section 3.2), Datalog¬¬ (Section 4.2), Datalog¬new
// (Section 4.3), and the nondeterministic N-Datalog variants with
// multi-literal heads, equality literals, the inconsistency symbol ⊥,
// and universal quantification in bodies (Section 5).
//
// A Dialect value records which syntactic features a given language
// admits; Program.Validate checks a program against a dialect and
// reports precise errors, so each engine can insist on exactly the
// fragment whose semantics it implements.
package ast

import (
	"fmt"
	"sort"
	"strings"

	"unchained/internal/value"
)

// Term is a variable or a constant. Exactly one of Var/Const is set:
// variables have Var != "" and constants have Const != value.None.
// SrcPos, when set by the parser, is the term's source position (the
// zero value means "unknown": hand-built terms need not set it).
type Term struct {
	Var    string
	Const  value.Value
	SrcPos Pos
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v value.Value) Term { return Term{Const: v} }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term (constants via the universe).
func (t Term) String(u *value.Universe) string {
	if t.IsVar() {
		return t.Var
	}
	return u.Name(t.Const)
}

func (t Term) appendTo(b []byte, u *value.Universe) []byte {
	if t.IsVar() {
		return append(b, t.Var...)
	}
	return append(b, u.Name(t.Const)...)
}

// Atom is a predicate applied to terms. SrcPos, when set by the
// parser, is the position of the predicate name.
type Atom struct {
	Pred   string
	Args   []Term
	SrcPos Pos
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// Arity reports the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// Adornment is the atom's binding pattern given the variables bound so
// far: 'b' for a constant or a bound variable, 'f' for a free one, one
// byte per argument. The magic-sets rewriting propagates demand with
// it.
func (a Atom) Adornment(bound map[string]bool) string {
	var ad strings.Builder
	ad.Grow(len(a.Args))
	for _, t := range a.Args {
		if !t.IsVar() || bound[t.Var] {
			ad.WriteByte('b')
		} else {
			ad.WriteByte('f')
		}
	}
	return ad.String()
}

// String renders the atom.
func (a Atom) String(u *value.Universe) string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	var buf [64]byte
	return string(a.appendTo(buf[:0], u))
}

func (a Atom) appendTo(b []byte, u *value.Universe) []byte {
	b = append(b, a.Pred...)
	if len(a.Args) == 0 {
		return b
	}
	b = append(b, '(')
	for i, t := range a.Args {
		if i > 0 {
			b = append(b, ',')
		}
		b = t.appendTo(b, u)
	}
	return append(b, ')')
}

// LitKind discriminates the literal forms.
type LitKind uint8

// The literal kinds.
const (
	LitAtom   LitKind = iota // (¬)R(u)
	LitEq                    // (¬) x = y          (N-Datalog bodies)
	LitBottom                // ⊥                   (N-Datalog¬⊥ heads)
	LitForall                // ∀ x̄ (L1,...,Ln)     (N-Datalog¬∀ bodies)
)

// Literal is one literal of a rule. Its Kind says which fields it
// uses; the others stay zero:
//
//   - LitAtom: Atom, negated when Neg.
//   - LitEq: Atom.Args holds the two terms, read by Left and Right, and
//     Atom.Pred is empty; Neg makes it an inequality.
//   - LitBottom: none.
//   - LitForall: Quant, read by ForallVars and ForallBody.
//
// SrcPos, set by the parser, is the position of the literal's first
// token (the '!' of a negated atom).
type Literal struct {
	Kind   LitKind
	Neg    bool
	Atom   Atom
	Quant  *Quant
	SrcPos Pos
}

// Quant is what a ∀-literal quantifies: ∀ Vars (Body).
type Quant struct {
	Vars []string
	Body []Literal
}

// PosLit returns a positive atom literal. (Named PosLit rather than
// Pos because Pos is the source-position type.)
func PosLit(a Atom) Literal { return Literal{Kind: LitAtom, Atom: a, SrcPos: a.SrcPos} }

// Neg returns a negated atom literal.
func Neg(a Atom) Literal { return Literal{Kind: LitAtom, Neg: true, Atom: a, SrcPos: a.SrcPos} }

// Eq returns an equality literal l = r.
func Eq(l, r Term) Literal { return Literal{Kind: LitEq, Atom: Atom{Args: []Term{l, r}}} }

// Neq returns an inequality literal l ≠ r.
func Neq(l, r Term) Literal { return Literal{Kind: LitEq, Neg: true, Atom: Atom{Args: []Term{l, r}}} }

// Bottom returns the inconsistency-symbol head literal ⊥.
func Bottom() Literal { return Literal{Kind: LitBottom} }

// Forall returns a universally quantified body literal
// ∀vars (body...).
func Forall(vars []string, body ...Literal) Literal {
	return Literal{Kind: LitForall, Quant: &Quant{Vars: vars, Body: body}}
}

// Left is an equality's left term.
func (l Literal) Left() Term { return l.Atom.Args[0] }

// Right is an equality's right term.
func (l Literal) Right() Term { return l.Atom.Args[1] }

// ForallVars is a ∀-literal's quantified variables, nil for any other
// literal.
func (l Literal) ForallVars() []string {
	if l.Quant == nil {
		return nil
	}
	return l.Quant.Vars
}

// ForallBody is a ∀-literal's quantified conjunction, nil for any
// other literal.
func (l Literal) ForallBody() []Literal {
	if l.Quant == nil {
		return nil
	}
	return l.Quant.Body
}

// String renders the literal.
func (l Literal) String(u *value.Universe) string {
	var buf [64]byte
	return string(l.appendTo(buf[:0], u))
}

func (l Literal) appendTo(b []byte, u *value.Universe) []byte {
	switch l.Kind {
	case LitAtom:
		if l.Neg {
			b = append(b, '!')
		}
		return l.Atom.appendTo(b, u)
	case LitEq:
		b = l.Left().appendTo(b, u)
		if l.Neg {
			b = append(b, " != "...)
		} else {
			b = append(b, " = "...)
		}
		return l.Right().appendTo(b, u)
	case LitBottom:
		return append(b, "bottom"...)
	case LitForall:
		b = append(b, "forall "...)
		for i, v := range l.ForallVars() {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, v...)
		}
		b = append(b, " ("...)
		b = appendLiterals(b, l.ForallBody(), u)
		return append(b, ')')
	default:
		return append(b, '?')
	}
}

// appendLiterals appends ls rendered and separated by ", ".
func appendLiterals(b []byte, ls []Literal, u *value.Universe) []byte {
	for i, l := range ls {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = l.appendTo(b, u)
	}
	return b
}

// vars appends the variables of the literal to dst (with duplicates).
func (l Literal) vars(dst []string) []string {
	switch l.Kind {
	case LitAtom, LitEq:
		for _, t := range l.Atom.Args {
			if t.IsVar() {
				dst = append(dst, t.Var)
			}
		}
	case LitForall:
		inner := []string{}
		for _, b := range l.ForallBody() {
			inner = b.vars(inner)
		}
		quant := make(map[string]bool, len(l.ForallVars()))
		for _, v := range l.ForallVars() {
			quant[v] = true
		}
		for _, v := range inner {
			if !quant[v] {
				dst = append(dst, v)
			}
		}
	}
	return dst
}

// constants appends the constants of the literal to dst.
func (l Literal) constants(dst []value.Value) []value.Value {
	switch l.Kind {
	case LitAtom, LitEq:
		for _, t := range l.Atom.Args {
			if !t.IsVar() {
				dst = append(dst, t.Const)
			}
		}
	case LitForall:
		for _, b := range l.ForallBody() {
			dst = b.constants(dst)
		}
	}
	return dst
}

// Rule is a rule of any language in the family:
//
//	H1, ..., Hk ← B1, ..., Bn
//
// Deterministic Datalog(¬)(¬¬) rules have exactly one head literal;
// N-Datalog¬¬ rules may have several (Definition 5.1); N-Datalog¬⊥
// rules may have a LitBottom head.
type Rule struct {
	Head []Literal
	Body []Literal

	// SrcPos is the rule's source position when parsed (its first
	// token); the zero value means "unknown".
	SrcPos Pos
}

// R builds a single-head rule.
func R(head Literal, body ...Literal) Rule {
	return Rule{Head: []Literal{head}, Body: body}
}

// MultiR builds a multi-head rule.
func MultiR(head []Literal, body ...Literal) Rule {
	return Rule{Head: head, Body: body}
}

// String renders the rule in the repository's concrete syntax, in one
// allocation for a rule of up to 128 bytes.
func (r Rule) String(u *value.Universe) string {
	var buf [128]byte
	return string(r.appendTo(buf[:0], u))
}

func (r Rule) appendTo(b []byte, u *value.Universe) []byte {
	b = appendLiterals(b, r.Head, u)
	if len(r.Body) > 0 {
		b = append(b, " :- "...)
		b = appendLiterals(b, r.Body, u)
	}
	return append(b, '.')
}

// BodyVars returns the distinct variables occurring (free) in the
// body, in first-occurrence order.
func (r Rule) BodyVars() []string {
	var all []string
	for _, l := range r.Body {
		all = l.vars(all)
	}
	return dedupe(all)
}

// PositiveBodyVars returns the distinct variables occurring in
// positive atom literals of the body ("positively bound" in
// Definition 5.1). Positive atoms inside ∀-literals count, but the
// quantified variables themselves do not (they are scoped to the
// literal).
func (r Rule) PositiveBodyVars() []string {
	var all []string
	var walk func(l Literal)
	walk = func(l Literal) {
		switch l.Kind {
		case LitAtom:
			if !l.Neg {
				all = l.vars(all)
			}
		case LitForall:
			quant := make(map[string]bool, len(l.ForallVars()))
			for _, v := range l.ForallVars() {
				quant[v] = true
			}
			var inner []string
			for _, b := range l.ForallBody() {
				if b.Kind == LitAtom && !b.Neg {
					inner = b.vars(inner)
				}
			}
			for _, v := range inner {
				if !quant[v] {
					all = append(all, v)
				}
			}
		}
	}
	for _, l := range r.Body {
		walk(l)
	}
	return dedupe(all)
}

// HeadVars returns the distinct variables occurring in the head.
func (r Rule) HeadVars() []string {
	var all []string
	for _, l := range r.Head {
		all = l.vars(all)
	}
	return dedupe(all)
}

// HeadOnlyVars returns the head variables that do not occur in the
// body — the invented-value variables of Datalog¬new (Section 4.3).
func (r Rule) HeadOnlyVars() []string {
	body := map[string]bool{}
	for _, v := range r.BodyVars() {
		body[v] = true
	}
	var out []string
	for _, v := range r.HeadVars() {
		if !body[v] {
			out = append(out, v)
		}
	}
	return out
}

// AppendVars appends the distinct variables of the rule to dst, in
// first-occurrence order, and returns the extended slice. What dst
// already holds is left as it is and not consulted.
func (r Rule) AppendVars(dst []string) []string {
	n := len(dst)
	for _, l := range r.Head {
		dst = l.vars(dst)
	}
	for _, l := range r.Body {
		dst = l.vars(dst)
	}
	return dst[:n+len(dedupe(dst[n:]))]
}

// dedupe drops repeats in place, keeping first occurrences in order.
// Rules have a handful of variables, which a scan handles without
// allocating; only outsized lists pay for a set.
func dedupe(in []string) []string {
	out := in[:0]
	var seen map[string]bool
	if len(in) > 16 {
		seen = make(map[string]bool, len(in))
	}
scan:
	for _, v := range in {
		if seen != nil {
			if seen[v] {
				continue
			}
			seen[v] = true
		} else {
			for _, w := range out {
				if w == v {
					continue scan
				}
			}
		}
		out = append(out, v)
	}
	return out
}

// Program is a finite set of rules (kept in order for deterministic
// evaluation traces).
type Program struct {
	Rules []Rule
}

// NewProgram builds a program from rules.
func NewProgram(rules ...Rule) *Program { return &Program{Rules: rules} }

// String renders the program.
func (p *Program) String(u *value.Universe) string {
	var b strings.Builder
	for i := range p.Rules {
		b.WriteString(p.Rules[i].String(u))
		b.WriteByte('\n')
	}
	return b.String()
}

// IDB returns the sorted names of intensional relations: those
// occurring in some head atom.
func (p *Program) IDB() []string { return NewIndex(p).IDB() }

// EDB returns the sorted names of extensional relations: those
// occurring in bodies only.
func (p *Program) EDB() []string { return NewIndex(p).EDB() }

// Preds returns the sorted names of all relations mentioned.
func (p *Program) Preds() []string {
	ix := NewIndex(p)
	out := make([]string, len(ix.Preds))
	for i := range ix.Preds {
		out[i] = ix.Preds[i].Name
	}
	sort.Strings(out)
	return out
}

// Schema infers the schema of all relations mentioned by the program
// (sch(P) in the paper). It returns an error on arity conflicts.
func (p *Program) Schema() (map[string]int, error) {
	sch := map[string]int{}
	add := func(a Atom) error {
		if old, ok := sch[a.Pred]; ok && old != a.Arity() {
			return fmt.Errorf("ast: relation %s used with arities %d and %d", a.Pred, old, a.Arity())
		}
		sch[a.Pred] = a.Arity()
		return nil
	}
	var walk func(l Literal) error
	walk = func(l Literal) error {
		switch l.Kind {
		case LitAtom:
			return add(l.Atom)
		case LitForall:
			for _, b := range l.ForallBody() {
				if err := walk(b); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		for _, h := range r.Head {
			if err := walk(h); err != nil {
				return nil, err
			}
		}
		for _, b := range r.Body {
			if err := walk(b); err != nil {
				return nil, err
			}
		}
	}
	return sch, nil
}

// Constants returns the distinct constants occurring in the program
// (adom(P) in the paper), in unspecified order.
func (p *Program) Constants() []value.Value {
	var all []value.Value
	for i := range p.Rules {
		r := &p.Rules[i]
		for _, h := range r.Head {
			all = h.constants(all)
		}
		for _, b := range r.Body {
			all = b.constants(all)
		}
	}
	seen := map[value.Value]bool{}
	out := all[:0:0]
	for _, v := range all {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
