package ast

import (
	"fmt"
)

// Dialect identifies one language of the family. Each engine accepts
// exactly one dialect (or a sub-dialect of it).
type Dialect uint8

// The dialects, in the order of Figure 1 plus the nondeterministic
// column of Section 5.
const (
	DialectDatalog        Dialect = iota // positive Datalog (Definition 3.1)
	DialectDatalogNeg                    // Datalog¬: negation in bodies (Section 3.2)
	DialectDatalogNegNeg                 // Datalog¬¬: negation in heads too (Section 4.2)
	DialectDatalogNew                    // Datalog¬new: head-only variables (Section 4.3)
	DialectNDatalogNeg                   // N-Datalog¬ (Section 5.1)
	DialectNDatalogNegNeg                // N-Datalog¬¬ (Definition 5.1)
	DialectNDatalogBot                   // N-Datalog¬⊥
	DialectNDatalogAll                   // N-Datalog¬∀
	DialectNDatalogNew                   // N-Datalog¬new: invention (Theorem 5.7)
)

// Dialects lists the family in the order above, the deterministic
// column of Figure 1 first: the first entry that admits a program is
// the strictest dialect that does.
var Dialects = []Dialect{
	DialectDatalog, DialectDatalogNeg, DialectDatalogNegNeg,
	DialectDatalogNew, DialectNDatalogNeg, DialectNDatalogNegNeg,
	DialectNDatalogBot, DialectNDatalogAll, DialectNDatalogNew,
}

// DialectUnknown is the sentinel reported by analysis when no dialect
// of the family admits a program (e.g. head negation combined with
// value invention).
const DialectUnknown Dialect = 0xFF

func (d Dialect) String() string {
	switch d {
	case DialectDatalog:
		return "Datalog"
	case DialectDatalogNeg:
		return "Datalog¬"
	case DialectDatalogNegNeg:
		return "Datalog¬¬"
	case DialectDatalogNew:
		return "Datalog¬new"
	case DialectNDatalogNeg:
		return "N-Datalog¬"
	case DialectNDatalogNegNeg:
		return "N-Datalog¬¬"
	case DialectNDatalogBot:
		return "N-Datalog¬⊥"
	case DialectNDatalogAll:
		return "N-Datalog¬∀"
	case DialectNDatalogNew:
		return "N-Datalog¬new"
	case DialectUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("Dialect(%d)", uint8(d))
	}
}

// MarshalText renders the dialect by name for JSON consumers
// (-lint -json, /v1/analyze).
func (d Dialect) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText parses a dialect by its canonical name, so the JSON
// reports round-trip.
func (d *Dialect) UnmarshalText(b []byte) error {
	name := string(b)
	for _, c := range append(Dialects[:len(Dialects):len(Dialects)], DialectUnknown) {
		if c.String() == name {
			*d = c
			return nil
		}
	}
	return fmt.Errorf("ast: unknown dialect %q", name)
}

// features returns the capability switches for a dialect.
type features struct {
	bodyNeg    bool // negative atom literals in bodies
	headNeg    bool // negative atom literals in heads (retraction)
	multiHead  bool // several head literals
	equality   bool // (in)equality literals in bodies
	bottom     bool // ⊥ in heads
	forall     bool // ∀ literals in bodies
	invention  bool // head-only variables (value invention)
	rangeBound bool // head vars must occur positively bound in body
}

func (d Dialect) features() features {
	switch d {
	case DialectDatalog:
		return features{}
	case DialectDatalogNeg:
		return features{bodyNeg: true}
	case DialectDatalogNegNeg:
		return features{bodyNeg: true, headNeg: true}
	case DialectDatalogNew:
		return features{bodyNeg: true, invention: true}
	case DialectNDatalogNeg:
		return features{bodyNeg: true, multiHead: true, equality: true, rangeBound: true}
	case DialectNDatalogNegNeg:
		return features{bodyNeg: true, headNeg: true, multiHead: true, equality: true, rangeBound: true}
	case DialectNDatalogBot:
		return features{bodyNeg: true, multiHead: true, equality: true, bottom: true, rangeBound: true}
	case DialectNDatalogAll:
		return features{bodyNeg: true, multiHead: true, equality: true, forall: true, rangeBound: true}
	case DialectNDatalogNew:
		return features{bodyNeg: true, multiHead: true, equality: true, invention: true, rangeBound: true}
	default:
		return features{}
	}
}

// Includes reports whether every program valid in dialect o is also
// valid in d (the syntactic-inclusion preorder of the family).
func (d Dialect) Includes(o Dialect) bool {
	fd, fo := d.features(), o.features()
	ok := func(have, want bool) bool { return have || !want }
	return ok(fd.bodyNeg, fo.bodyNeg) &&
		ok(fd.headNeg, fo.headNeg) &&
		ok(fd.multiHead, fo.multiHead) &&
		ok(fd.equality, fo.equality) &&
		ok(fd.bottom, fo.bottom) &&
		ok(fd.forall, fo.forall) &&
		ok(fd.invention, fo.invention) &&
		// A dialect requiring positive range-boundness rejects some
		// programs a non-requiring one accepts.
		(!fd.rangeBound || fo.rangeBound)
}

// Diagnostic codes shared by Program.Validate and internal/analyze
// (see docs/ANALYSIS.md for the full table).
const (
	// CodeDialect marks a syntactic feature the dialect forbids.
	CodeDialect = "E001"
	// CodeUnsafeVar marks a head variable that is not range
	// restricted under the dialect's binding rule.
	CodeUnsafeVar = "E002"
	// CodeArity marks a relation used with two different arities.
	CodeArity = "E003"
)

// Forbids returns the features whose use a dialect rejects.
func (d Dialect) Forbids() Feature {
	f := d.features()
	m := FeatMalformed
	for _, c := range [...]struct {
		have bool
		bit  Feature
	}{
		{f.bodyNeg, FeatBodyNeg}, {f.headNeg, FeatHeadNeg}, {f.multiHead, FeatMultiHead},
		{f.equality, FeatEquality}, {f.bottom, FeatBottom}, {f.forall, FeatForall},
		// Head variables must occur in the body (Definition 3.1), for
		// N-Datalog in a positive body atom (Definition 5.1), unless
		// the dialect invents values for them.
		{f.invention || f.rangeBound, FeatHeadOnlyVar}, {f.invention || !f.rangeBound, FeatUnboundVar},
	} {
		if !c.have {
			m |= c.bit
		}
	}
	return m
}

// Validate checks that p is a syntactically legal program of dialect
// d, returning every violation joined into one error (nil when
// legal) in deterministic source order. It is ValidateDiags with the
// classic error shape.
func (p *Program) Validate(d Dialect) error {
	return p.ValidateDiags(d).Err()
}

// ValidateDiags checks that p is a syntactically legal program of
// dialect d, reporting every violation as a positioned diagnostic
// (positions are the zero Pos for hand-built rules).
//
// The checks implement the side conditions of Definitions 3.1 and 5.1
// and the safety conventions of Sections 4.1–4.3:
//
//   - every rule has ≥1 head literal and head atoms are well formed;
//   - negation, multi-heads, equality, ⊥, ∀ appear only if the
//     dialect admits them;
//   - unless the dialect allows invention, every head variable occurs
//     in the body (Definition 3.1); for N-Datalog dialects the
//     occurrence must be in a positive body atom (Definition 5.1);
//   - relation arities are consistent program-wide (every conflicting
//     use is reported, each pointing back at the first use).
func (p *Program) ValidateDiags(d Dialect) Diagnostics { return NewIndex(p).ValidateDiags(d) }

// ValidateDiags is Program.ValidateDiags on an index the caller keeps
// (an engine builds its dependency graph on the same one).
func (ix *Index) ValidateDiags(d Dialect) Diagnostics {
	ds := append(ix.DialectDiags(d), ix.ArityDiags()...)
	ds.Sort()
	return ds
}

// Admits reports whether dialect d admits every rule (arity conflicts
// aside): no rule uses a feature d forbids.
func (ix *Index) Admits(d Dialect) bool { return ix.Mask&d.Forbids() == 0 }

// violations runs the per-rule check of dialect d over the rules d
// rejects, handing each finding to emit unrendered.
func (ix *Index) violations(d Dialect, emit func(violation)) {
	c := ruleCheck{name: d.String(), forbid: d.Forbids(), emit: emit}
	for ri := range ix.Rules {
		if ix.Rules[ri].Mask&c.forbid != 0 {
			c.rule = ri
			c.run(&ix.Prog.Rules[ri])
		}
	}
}

// DialectDiags returns every violation of dialect d, sorted, without
// the arity conflicts (which no dialect choice cures).
func (ix *Index) DialectDiags(d Dialect) Diagnostics {
	var ds Diagnostics
	ix.violations(d, func(v violation) { ds = append(ds, v.diag()) })
	ds.Sort()
	return ds
}

// FirstViolation returns the violation of dialect d that sorts first
// (what DialectDiags(d)[0] would be), rendering no other; ok is false
// when d admits the program.
func (ix *Index) FirstViolation(d Dialect) (first Diagnostic, ok bool) {
	var min violation
	ix.violations(d, func(v violation) {
		if !ok || v.before(min) {
			min, ok = v, true
		}
	})
	if ok {
		first = min.diag()
	}
	return first, ok
}

// violation is one finding of the per-rule check, not yet rendered.
type violation struct {
	rule int
	pos  Pos
	code string
	text string // the message after "rule N: "; a %s takes arg
	arg  string
}

func (v violation) diag() Diagnostic {
	text := v.text
	if v.arg != "" {
		text = fmt.Sprintf(text, v.arg)
	}
	return Diagnostic{
		Pos:      v.pos,
		Severity: SevError,
		Code:     v.code,
		Message:  fmt.Sprintf("rule %d: %s", v.rule+1, text),
	}
}

// before is the Diagnostics.Sort order; only a tie on position and
// code renders the messages.
func (v violation) before(o violation) bool {
	if v.pos != o.pos {
		return v.pos.Before(o.pos)
	}
	if v.code != o.code {
		return v.code < o.code
	}
	return v.diag().Message < o.diag().Message
}

// ruleCheck is the one walk over a rule that both classifies and
// validates it: every use of a feature lands in mask, and the uses
// forbid contains are handed to emit (nil when only the mask is
// wanted). Sharing the walk is what keeps "the mask admits the rule"
// and "the rule has no violation" the same statement.
type ruleCheck struct {
	rule   int
	name   string // the dialect, for messages
	forbid Feature
	emit   func(violation)
	mask   Feature
}

func (c *ruleCheck) see(bit Feature, pos Pos, code, text, arg string) {
	c.mask |= bit
	if c.emit != nil && bit&c.forbid != 0 {
		c.emit(violation{rule: c.rule, pos: pos, code: code, text: text, arg: arg})
	}
}

// Features returns the set of features the rule uses.
func (r *Rule) Features() Feature {
	var c ruleCheck
	c.run(r)
	return c.mask
}

func (c *ruleCheck) run(r *Rule) {
	if len(r.Head) == 0 {
		c.see(FeatMalformed, r.SrcPos, CodeDialect, "empty head", "")
		return
	}
	if len(r.Head) > 1 {
		c.see(FeatMultiHead, r.Head[1].SrcPos, CodeDialect, "%s forbids multiple head literals", c.name)
	}
	for i := range r.Head {
		switch h := &r.Head[i]; {
		case h.Kind == LitBottom:
			c.see(FeatBottom, h.SrcPos, CodeDialect, "%s forbids ⊥ in heads", c.name)
		case h.Kind != LitAtom:
			c.see(FeatMalformed, h.SrcPos, CodeDialect, "head literal must be an atom or ⊥", "")
		case h.Neg:
			c.see(FeatHeadNeg, h.SrcPos, CodeDialect, "%s forbids negation in heads", c.name)
		}
	}
	for i := range r.Body {
		c.body(&r.Body[i], false)
	}

	// Range restriction / safety, with a witness position per unsafe
	// variable (its first occurrence in the head).
	var buf [8]string
	vars := buf[:0]
	for i := range r.Head {
		vars = r.Head[i].vars(vars)
	}
	for _, v := range dedupe(vars) {
		inBody, bound := false, false
		for i := range r.Body {
			inBody = inBody || r.Body[i].mentions(v, false)
			bound = bound || r.Body[i].mentions(v, true)
		}
		if !inBody {
			c.see(FeatHeadOnlyVar, r.headVarPos(v), CodeUnsafeVar, "head variable %s does not occur in the body", v)
		}
		if !bound {
			c.see(FeatUnboundVar, r.headVarPos(v), CodeUnsafeVar, "head variable %s does not occur positively bound in the body", v)
		}
	}
}

func (c *ruleCheck) body(l *Literal, inForall bool) {
	switch l.Kind {
	case LitAtom:
		if l.Neg {
			c.see(FeatBodyNeg, l.SrcPos, CodeDialect, "%s forbids negation in bodies", c.name)
		}
	case LitEq:
		c.see(FeatEquality, l.SrcPos, CodeDialect, "%s forbids equality literals", c.name)
	case LitForall:
		c.see(FeatForall, l.SrcPos, CodeDialect, "%s forbids universal quantification", c.name)
		if inForall {
			c.see(FeatMalformed, l.SrcPos, CodeDialect, "nested universal quantification is not supported", "")
		}
		if len(l.ForallVars()) == 0 {
			c.see(FeatMalformed, l.SrcPos, CodeDialect, "forall with no quantified variables", "")
		}
		body := l.ForallBody()
		for i := range body {
			c.body(&body[i], true)
		}
	case LitBottom:
		c.see(FeatMalformed, l.SrcPos, CodeDialect, "⊥ cannot occur in a body", "")
	}
}

// mentions reports whether v occurs free in the literal — as
// BodyVars counts occurrences, or, with positive set, as
// PositiveBodyVars does: in a positive atom, at top level or directly
// under a ∀ that does not quantify v.
func (l *Literal) mentions(v string, positive bool) bool {
	switch l.Kind {
	case LitAtom:
		if positive && l.Neg {
			return false
		}
		for i := range l.Atom.Args {
			if l.Atom.Args[i].Var == v {
				return true
			}
		}
	case LitEq:
		return !positive && (l.Left().Var == v || l.Right().Var == v)
	case LitForall:
		for _, q := range l.ForallVars() {
			if q == v {
				return false
			}
		}
		body := l.ForallBody()
		for i := range body {
			if b := &body[i]; (!positive || b.Kind == LitAtom) && b.mentions(v, positive) {
				return true
			}
		}
	}
	return false
}

// headVarPos returns the position of v's first occurrence in the
// rule's head (the unsafe-variable witness).
func (r *Rule) headVarPos(v string) Pos {
	for _, h := range r.Head {
		if h.Kind != LitAtom {
			continue
		}
		for _, t := range h.Atom.Args {
			if t.Var == v {
				if t.SrcPos.IsValid() {
					return t.SrcPos
				}
				return h.SrcPos
			}
		}
	}
	return r.SrcPos
}
