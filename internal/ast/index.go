// The rule index: everything the front end asks of a program beyond
// the rules themselves, gathered in one walk. Validation, dialect
// inference, the dependency graph, the analyzer's graph passes and the
// optimizer's rule-set passes all read it instead of re-deriving
// "which rules define P", "who reads P" or "does this rule negate"
// with walks of their own. An Index describes the program it was built
// from and is never stored on it: programs are bare rule lists that
// passes replace wholesale, so callers build an index where they need
// one and drop it with the call.
package ast

import (
	"fmt"
	"sort"
)

// Feature is a set of the syntactic capabilities a rule uses. A
// dialect admits a rule iff the rule uses nothing the dialect forbids.
type Feature uint16

// The rule features.
const (
	FeatBodyNeg     Feature = 1 << iota // a negated atom in the body (also under ∀)
	FeatHeadNeg                         // a negated atom in the head
	FeatMultiHead                       // several head literals
	FeatEquality                        // an (in)equality literal
	FeatBottom                          // ⊥ in the head
	FeatForall                          // a ∀ literal
	FeatHeadOnlyVar                     // a head variable absent from the body (invention)
	FeatUnboundVar                      // a head variable no positive body atom binds
	FeatMalformed                       // empty head, non-atom head, ⊥ in a body, nested or empty ∀: no dialect admits it
)

// Occ is one atom occurrence in a rule: a head atom, or a body atom
// at top level or under ∀.
type Occ struct {
	Pred   int32    // index into Index.Preds
	Rule   int32    // index into Program.Rules
	Nested bool     // the atom sits under a ∀
	Lit    *Literal // the occurrence itself (polarity, atom, position)
}

// RuleInfo summarizes one rule.
type RuleInfo struct {
	Mask             Feature
	start, mid, stop int32 // head occurrences are occs[start:mid], body occurrences occs[mid:stop]
}

// PredInfo summarizes one predicate.
type PredInfo struct {
	Name    string
	Arity   int     // at the first occurrence
	Pos     Pos     // of the first occurrence's atom
	HeadPos Pos     // of the first head literal over the predicate
	Derive  []int32 // rules with a positive head atom over it, one entry per atom
	Retract []int32 // rules with a negated head atom over it
	Readers []int32 // body occurrences, as indexes for Index.Occ
}

// IDB reports whether some rule head mentions the predicate.
func (pi *PredInfo) IDB() bool { return len(pi.Derive)+len(pi.Retract) > 0 }

// Index is the one-walk summary of Prog.
type Index struct {
	Prog  *Program
	Rules []RuleInfo // parallel to Prog.Rules
	Preds []PredInfo // in first-occurrence order
	Mask  Feature    // union of the rule masks

	ids       map[string]int32
	occs      []Occ
	conflicts []int32 // occurrences whose arity differs from their predicate's first
}

// NewIndex walks p once.
func NewIndex(p *Program) *Index {
	n := len(p.Rules) // most programs have about a predicate, and a few atoms, per rule
	ix := &Index{
		Prog: p, Rules: make([]RuleInfo, n),
		Preds: make([]PredInfo, 0, n), ids: make(map[string]int32, n), occs: make([]Occ, 0, 3*n),
	}
	for ri := range p.Rules {
		r, info := &p.Rules[ri], &ix.Rules[ri]
		info.Mask = r.Features()
		ix.Mask |= info.Mask
		info.start = int32(len(ix.occs))
		for i := range r.Head {
			if r.Head[i].Kind == LitAtom {
				ix.add(int32(ri), &r.Head[i], true, false)
			}
		}
		info.mid = int32(len(ix.occs))
		for i := range r.Body {
			ix.addBody(int32(ri), &r.Body[i], false)
		}
		info.stop = int32(len(ix.occs))
	}
	return ix
}

func (ix *Index) addBody(ri int32, l *Literal, nested bool) {
	switch l.Kind {
	case LitAtom:
		ix.add(ri, l, false, nested)
	case LitForall:
		for i := range l.ForallBody {
			ix.addBody(ri, &l.ForallBody[i], true)
		}
	}
}

func (ix *Index) add(ri int32, l *Literal, head, nested bool) {
	id, ok := ix.ids[l.Atom.Pred]
	if !ok {
		id = int32(len(ix.Preds))
		ix.ids[l.Atom.Pred] = id
		ix.Preds = append(ix.Preds, PredInfo{Name: l.Atom.Pred, Arity: l.Atom.Arity(), Pos: l.Atom.SrcPos})
	}
	pi, o := &ix.Preds[id], int32(len(ix.occs))
	ix.occs = append(ix.occs, Occ{Pred: id, Rule: ri, Nested: nested, Lit: l})
	if pi.Arity != l.Atom.Arity() {
		ix.conflicts = append(ix.conflicts, o)
	}
	switch {
	case !head:
		pi.Readers = append(pi.Readers, o)
		return
	case !pi.IDB():
		pi.HeadPos = l.SrcPos
	}
	if l.Neg {
		pi.Retract = append(pi.Retract, ri)
	} else {
		pi.Derive = append(pi.Derive, ri)
	}
}

// ID resolves a predicate name.
func (ix *Index) ID(name string) (int32, bool) {
	id, ok := ix.ids[name]
	return id, ok
}

// Occ returns occurrence o of a Readers list.
func (ix *Index) Occ(o int32) *Occ { return &ix.occs[o] }

// Heads returns the head atom occurrences of rule ri in source order.
func (ix *Index) Heads(ri int) []Occ { return ix.occs[ix.Rules[ri].start:ix.Rules[ri].mid] }

// Body returns the body atom occurrences of rule ri in source order,
// ∀-literals flattened.
func (ix *Index) Body(ri int) []Occ { return ix.occs[ix.Rules[ri].mid:ix.Rules[ri].stop] }

// names returns the sorted names of the predicates with the given
// IDB status.
func (ix *Index) names(idb bool) []string {
	var out []string
	for i := range ix.Preds {
		if ix.Preds[i].IDB() == idb {
			out = append(out, ix.Preds[i].Name)
		}
	}
	sort.Strings(out)
	return out
}

// IDB returns the sorted names of the intensional relations: those
// occurring in some head atom.
func (ix *Index) IDB() []string { return ix.names(true) }

// EDB returns the sorted names of the extensional relations: those
// occurring in bodies only.
func (ix *Index) EDB() []string { return ix.names(false) }

// ArityDiags reports every arity conflict, each use pointing back at
// the occurrence that fixed the relation's arity.
func (ix *Index) ArityDiags() Diagnostics {
	var ds Diagnostics
	for _, o := range ix.conflicts {
		a, pi := ix.occs[o].Lit.Atom, &ix.Preds[ix.occs[o].Pred]
		ds = append(ds, Diagnostic{
			Pos:      a.SrcPos,
			Severity: SevError,
			Code:     CodeArity,
			Message:  fmt.Sprintf("relation %s used with arity %d here but %d earlier", a.Pred, a.Arity(), pi.Arity),
			Related:  []Related{{Pos: pi.Pos, Message: fmt.Sprintf("%s first used with arity %d", a.Pred, pi.Arity)}},
		})
	}
	return ds
}

// Underivable marks, by predicate id, the derived predicates that can
// never hold a derived fact: the least fixpoint of "some rule for it
// has every positive body atom input-fed or derivable" never reaches
// them. Input-fed means no positive head occurrence (classic EDB, plus
// retract-only relations whose facts come from the database).
// Negations and equalities count as satisfiable; nested says whether
// positive atoms under ∀ must be derivable too or count as
// satisfiable as well. One worklist pass: every body occurrence is
// counted once and discharged once.
func (ix *Index) Underivable(nested bool) []bool {
	waits := func(o *Occ) bool {
		return !o.Lit.Neg && (nested || !o.Nested) && len(ix.Preds[o.Pred].Derive) > 0
	}
	missing := make([]int32, len(ix.Rules))
	var ready []int32
	for ri := range ix.Rules {
		body := ix.Body(ri)
		for i := range body {
			if waits(&body[i]) {
				missing[ri]++
			}
		}
		if missing[ri] == 0 {
			ready = append(ready, int32(ri))
		}
	}
	under := make([]bool, len(ix.Preds))
	for i := range ix.Preds {
		under[i] = len(ix.Preds[i].Derive) > 0
	}
	for len(ready) > 0 {
		ri := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for _, h := range ix.Heads(int(ri)) {
			if h.Lit.Neg || !under[h.Pred] {
				continue
			}
			under[h.Pred] = false
			for _, o := range ix.Preds[h.Pred].Readers {
				if occ := &ix.occs[o]; waits(occ) {
					if missing[occ.Rule]--; missing[occ.Rule] == 0 {
						ready = append(ready, occ.Rule)
					}
				}
			}
		}
	}
	return under
}
