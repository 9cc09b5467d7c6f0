package ast

// InventTaint computes, per intensional relation, which argument
// positions may carry invented values in a Datalog¬new program
// (Section 4.3). Position i of relation Q is tainted if
//
//   - some rule puts a head-only (invented) variable at position i of
//     a head atom over Q, or
//   - some rule's head atom over Q has, at position i, a variable
//     that is bound by a tainted position of a positive body atom
//     (invented values flow through joins).
//
// The analysis is a sound over-approximation: an untainted position
// never holds an invented value at run time. It is the static side of
// the paper's "straightforward syntactic safety restriction" that
// makes Datalog¬new queries deterministic.
func (p *Program) InventTaint() map[string][]bool {
	taint := map[string][]bool{}
	get := func(pred string, arity int) []bool {
		if t, ok := taint[pred]; ok {
			return t
		}
		t := make([]bool, arity)
		taint[pred] = t
		return t
	}
	for changed := true; changed; {
		changed = false
		for ri := range p.Rules {
			r := &p.Rules[ri]
			tainted := map[string]bool{}
			for _, v := range r.HeadOnlyVars() {
				tainted[v] = true
			}
			var walk func(l Literal)
			walk = func(l Literal) {
				switch l.Kind {
				case LitAtom:
					if l.Neg {
						return
					}
					t, ok := taint[l.Atom.Pred]
					if !ok {
						return
					}
					for i, a := range l.Atom.Args {
						if a.IsVar() && t[i] {
							tainted[a.Var] = true
						}
					}
				case LitForall:
					for _, b := range l.ForallBody() {
						walk(b)
					}
				}
			}
			for _, l := range r.Body {
				walk(l)
			}
			if len(tainted) == 0 {
				continue
			}
			for _, h := range r.Head {
				if h.Kind != LitAtom || h.Neg {
					continue
				}
				t := get(h.Atom.Pred, h.Atom.Arity())
				for i, a := range h.Atom.Args {
					if a.IsVar() && tainted[a.Var] && !t[i] {
						t[i] = true
						changed = true
					}
				}
			}
		}
	}
	return taint
}

// MayInvent reduces InventTaint to the relation level: the relations
// with at least one tainted position.
func (p *Program) MayInvent() map[string]bool {
	out := map[string]bool{}
	for pred, positions := range p.InventTaint() {
		for _, t := range positions {
			if t {
				out[pred] = true
				break
			}
		}
	}
	return out
}
