// The rule index: everything the front end asks of a program beyond
// the rules themselves, gathered in one walk. Validation, dialect
// inference, the dependency graph, the analyzer's graph passes and the
// optimizer's rule-set passes all read it instead of re-deriving
// "which rules define P", "who reads P" or "does this rule negate"
// with walks of their own. An Index describes the program it was built
// from and is never stored on it: programs are bare rule lists that
// passes replace wholesale, so callers build an index where they need
// one and drop it with the call. A pass that drops or replaces rules
// derives the next program's index with Update, which walks only the
// rules it has not seen.
package ast

import (
	"fmt"
	"maps"
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

	ids       map[string]int32 // by name: the predicate's id
	names     []string         // by id: the predicate's name
	borrowed  bool             // ids and names belong to the index Update derived this one from
	occs      []Occ
	conflicts []int32 // occurrences whose arity differs from their predicate's first
}

// NewIndex walks p once.
func NewIndex(p *Program) *Index {
	n := len(p.Rules) // most programs have about a predicate, and a few atoms, per rule
	ix := &Index{
		Prog: p, Rules: make([]RuleInfo, n),
		ids: make(map[string]int32, n), names: make([]string, 0, n), occs: make([]Occ, 0, 3*n),
	}
	for ri := range p.Rules {
		ix.walk(int32(ri))
	}
	ix.link()
	return ix
}

// Update returns the index of p, a program made from ix.Prog by
// dropping, keeping and replacing rules: rule ri of p is rule from[ri]
// of ix.Prog, sharing its literal arrays, or a new rule where from[ri]
// is negative. Only the new rules are walked; a kept rule keeps its
// mask and its occurrences. The result reads as NewIndex(p) does,
// except that the predicates keep ix's order (a predicate only the new
// rules mention comes last). ix is left as it was.
func (ix *Index) Update(p *Program, from []int32) *Index {
	n := 0
	for ri, old := range from {
		if old < 0 {
			n += p.Rules[ri].atoms()
		} else {
			n += int(ix.Rules[old].stop - ix.Rules[old].start)
		}
	}
	nx := &Index{
		Prog: p, Rules: make([]RuleInfo, len(p.Rules)),
		ids: ix.ids, names: ix.names[:len(ix.names):len(ix.names)], borrowed: true, occs: make([]Occ, 0, n),
	}
	for ri, old := range from {
		if old < 0 {
			nx.walk(int32(ri))
			continue
		}
		o, info := &ix.Rules[old], &nx.Rules[ri]
		info.Mask = o.Mask
		nx.Mask |= o.Mask
		info.start = int32(len(nx.occs))
		for _, occ := range ix.occs[o.start:o.stop] {
			occ.Rule = int32(ri)
			nx.occs = append(nx.occs, occ)
		}
		info.mid, info.stop = info.start+o.mid-o.start, int32(len(nx.occs))
	}
	nx.link()
	return nx
}

// walk appends the occurrences of rule ri.
func (ix *Index) walk(ri int32) {
	r, info := &ix.Prog.Rules[ri], &ix.Rules[ri]
	info.Mask = r.Features()
	ix.Mask |= info.Mask
	info.start = int32(len(ix.occs))
	for i := range r.Head {
		if r.Head[i].Kind == LitAtom {
			ix.add(ri, &r.Head[i], false)
		}
	}
	info.mid = int32(len(ix.occs))
	for i := range r.Body {
		ix.addBody(ri, &r.Body[i], false)
	}
	info.stop = int32(len(ix.occs))
}

// atoms counts the occurrences walk adds for r.
func (r *Rule) atoms() int {
	n := 0
	for i := range r.Head {
		if r.Head[i].Kind == LitAtom {
			n++
		}
	}
	for i := range r.Body {
		n += r.Body[i].atoms()
	}
	return n
}

func (l *Literal) atoms() int {
	switch l.Kind {
	case LitAtom:
		return 1
	case LitForall:
		n := 0
		body := l.ForallBody()
		for i := range body {
			n += body[i].atoms()
		}
		return n
	}
	return 0
}

func (ix *Index) addBody(ri int32, l *Literal, nested bool) {
	switch l.Kind {
	case LitAtom:
		ix.add(ri, l, nested)
	case LitForall:
		body := l.ForallBody()
		for i := range body {
			ix.addBody(ri, &body[i], true)
		}
	}
}

func (ix *Index) add(ri int32, l *Literal, nested bool) {
	id, ok := ix.ids[l.Atom.Pred]
	if !ok {
		if ix.borrowed { // names, full to capacity, copies on append
			ix.ids, ix.borrowed = maps.Clone(ix.ids), false
		}
		id = int32(len(ix.names))
		ix.ids[l.Atom.Pred] = id
		ix.names = append(ix.names, l.Atom.Pred)
	}
	ix.occs = append(ix.occs, Occ{Pred: id, Rule: ri, Nested: nested, Lit: l})
}

// link makes Preds from the occurrences, in their order: it drops the
// predicates no occurrence mentions (only Update leaves such), and
// records each predicate's arity and positions at its first
// occurrence, the arity conflicts, and the Derive, Retract and Readers
// lists. Every occurrence lands in exactly one list, so the lists are
// cut from one array, each to its exact capacity, after their counts.
func (ix *Index) link() {
	list := func(o int) int32 { // 3*Pred + 0 (Derive), 1 (Retract) or 2 (Readers)
		occ := &ix.occs[o]
		switch {
		case int32(o) >= ix.Rules[occ.Rule].mid:
			return 3*occ.Pred + 2
		case occ.Lit.Neg:
			return 3*occ.Pred + 1
		}
		return 3 * occ.Pred
	}
	// One array: the counts, then the lists they size.
	buf := make([]int32, 3*len(ix.names)+len(ix.occs))
	counts, arena := buf[:3*len(ix.names)], buf[3*len(ix.names):]
	for o := range ix.occs {
		counts[list(o)]++
	}
	live := 0
	for id := range ix.names {
		if counts[3*id]+counts[3*id+1]+counts[3*id+2] > 0 {
			live++
		}
	}
	if live < len(ix.names) {
		ix.compact(counts, live)
	}

	ix.Preds = make([]PredInfo, live)
	for id := range ix.Preds {
		pi, c := &ix.Preds[id], counts[3*id:3*id+3]
		pi.Name = ix.names[id]
		for i, l := range [3]*[]int32{&pi.Derive, &pi.Retract, &pi.Readers} {
			*l, arena = arena[:0:c[i]], arena[c[i]:]
		}
	}
	for o := range ix.occs {
		occ := &ix.occs[o]
		pi, k := &ix.Preds[occ.Pred], list(o)
		switch {
		case len(pi.Derive)+len(pi.Retract)+len(pi.Readers) == 0:
			pi.Arity, pi.Pos = occ.Lit.Atom.Arity(), occ.Lit.Atom.SrcPos
		case pi.Arity != occ.Lit.Atom.Arity():
			ix.conflicts = append(ix.conflicts, int32(o))
		}
		if k%3 < 2 && !pi.IDB() {
			pi.HeadPos = occ.Lit.SrcPos
		}
		switch k % 3 {
		case 0:
			pi.Derive = append(pi.Derive, occ.Rule)
		case 1:
			pi.Retract = append(pi.Retract, occ.Rule)
		default:
			pi.Readers = append(pi.Readers, int32(o))
		}
	}
}

// compact drops the predicates no occurrence mentions and renumbers
// the rest, in order, with their counts.
func (ix *Index) compact(counts []int32, live int) {
	renum, names, ids := make([]int32, len(ix.names)), make([]string, 0, live), make(map[string]int32, live)
	for id, name := range ix.names {
		c := counts[3*id : 3*id+3]
		if c[0]+c[1]+c[2] == 0 {
			continue
		}
		renum[id] = int32(len(names))
		copy(counts[3*len(names):], c)
		ids[name] = renum[id]
		names = append(names, name)
	}
	for o := range ix.occs {
		ix.occs[o].Pred = renum[ix.occs[o].Pred]
	}
	ix.ids, ix.names, ix.borrowed = ids, names, false
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

// sortedNames returns the sorted names of the predicates with the
// given IDB status.
func (ix *Index) sortedNames(idb bool) []string {
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
func (ix *Index) IDB() []string { return ix.sortedNames(true) }

// EDB returns the sorted names of the extensional relations: those
// occurring in bodies only.
func (ix *Index) EDB() []string { return ix.sortedNames(false) }

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
