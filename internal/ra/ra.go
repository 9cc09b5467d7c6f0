// Package ra implements the relational algebra of Section 2:
// projection, selection, renaming (positional), join, difference,
// union and product over tuple.Relation values. It is the execution
// layer for the FO (relational calculus) evaluator in package fo and
// the reference implementation ("RA baseline") for several
// experiments.
package ra

import (
	"fmt"

	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Project returns the relation {(t[cols[0]],...,t[cols[k-1]]) | t ∈ r}.
// Columns may repeat or reorder (this subsumes renaming, which is
// positional in our attribute-free setting).
func Project(r *tuple.Relation, cols ...int) *tuple.Relation {
	out := tuple.NewRelation(len(cols))
	r.Each(func(t tuple.Tuple) bool {
		nt := make(tuple.Tuple, len(cols))
		for i, c := range cols {
			nt[i] = t[c]
		}
		out.Insert(nt)
		return true
	})
	return out
}

// Cond is a selection condition: a conjunction of (in)equalities
// between columns and/or constants.
type Cond struct {
	// LeftCol is the left column index.
	LeftCol int
	// RightCol is the right column index; used when RightConst is
	// value.None.
	RightCol int
	// RightConst, when not value.None, compares LeftCol to a constant.
	RightConst value.Value
	// Neq selects tuples where the sides differ.
	Neq bool
}

func (c Cond) holds(t tuple.Tuple) bool {
	l := t[c.LeftCol]
	r := c.RightConst
	if r == value.None {
		r = t[c.RightCol]
	}
	return (l == r) != c.Neq
}

// Select returns the tuples of r satisfying every condition.
func Select(r *tuple.Relation, conds ...Cond) *tuple.Relation {
	out := tuple.NewRelation(r.Arity())
	r.Each(func(t tuple.Tuple) bool {
		for _, c := range conds {
			if !c.holds(t) {
				return true
			}
		}
		out.Insert(t)
		return true
	})
	return out
}

// Union returns a ∪ b. The arities must match.
func Union(a, b *tuple.Relation) *tuple.Relation {
	if a.Arity() != b.Arity() {
		panic(fmt.Sprintf("ra: union of arities %d and %d", a.Arity(), b.Arity()))
	}
	out := a.Clone()
	out.UnionInPlace(b)
	return out
}

// Diff returns a − b. The arities must match.
func Diff(a, b *tuple.Relation) *tuple.Relation {
	if a.Arity() != b.Arity() {
		panic(fmt.Sprintf("ra: difference of arities %d and %d", a.Arity(), b.Arity()))
	}
	out := tuple.NewRelation(a.Arity())
	a.Each(func(t tuple.Tuple) bool {
		if !b.Contains(t) {
			out.Insert(t)
		}
		return true
	})
	return out
}

// Intersect returns a ∩ b.
func Intersect(a, b *tuple.Relation) *tuple.Relation {
	if a.Arity() != b.Arity() {
		panic(fmt.Sprintf("ra: intersection of arities %d and %d", a.Arity(), b.Arity()))
	}
	out := tuple.NewRelation(a.Arity())
	small, big := a, b
	if small.Len() > big.Len() {
		small, big = big, small
	}
	small.Each(func(t tuple.Tuple) bool {
		if big.Contains(t) {
			out.Insert(t)
		}
		return true
	})
	return out
}

// Product returns the cartesian product a × b (tuples concatenated).
func Product(a, b *tuple.Relation) *tuple.Relation {
	return Join(a, b)
}

// EqPair equates column L of the left operand with column R of the
// right operand in a join.
type EqPair struct{ L, R int }

// Join returns the θ-join of a and b on the given column equalities,
// with result tuples being the concatenation of the operands' tuples.
// With no pairs it is the cartesian product. The smaller-side hash
// index is built on the right operand's join columns.
func Join(a, b *tuple.Relation, on ...EqPair) *tuple.Relation {
	out := tuple.NewRelation(a.Arity() + b.Arity())
	if len(on) == 0 {
		a.Each(func(ta tuple.Tuple) bool {
			b.Each(func(tb tuple.Tuple) bool {
				nt := make(tuple.Tuple, 0, len(ta)+len(tb))
				nt = append(nt, ta...)
				nt = append(nt, tb...)
				out.Insert(nt)
				return true
			})
			return true
		})
		return out
	}
	var mask uint32
	for _, p := range on {
		mask |= 1 << uint(p.R)
	}
	pattern := make(tuple.Tuple, b.Arity())
	var it tuple.Iterator
	a.Each(func(ta tuple.Tuple) bool {
		for i := range pattern {
			pattern[i] = value.None
		}
		for _, p := range on {
			pattern[p.R] = ta[p.L]
		}
		b.ProbeIter(mask, pattern, &it)
		for tb, ok := it.Next(); ok; tb, ok = it.Next() {
			nt := make(tuple.Tuple, 0, len(ta)+len(tb))
			nt = append(nt, ta...)
			nt = append(nt, tb...)
			out.Insert(nt)
		}
		return true
	})
	return out
}

// Domain returns the unary relation holding the given values.
func Domain(vals []value.Value) *tuple.Relation {
	out := tuple.NewRelation(1)
	for _, v := range vals {
		out.Insert(tuple.Tuple{v})
	}
	return out
}

// Power returns adomᵏ as a k-ary relation (the full space the
// active-domain semantics quantifies over). k = 0 yields the relation
// containing the empty tuple.
func Power(vals []value.Value, k int) *tuple.Relation {
	out := tuple.NewRelation(k)
	t := make(tuple.Tuple, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			out.Insert(t)
			return
		}
		for _, v := range vals {
			t[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
