// Package order implements the ordered-database toolkit of Section
// 4.5: given an instance, it attaches a successor relation plus
// min/max constants over the active domain, the setting in which
// stratified, well-founded and inflationary Datalog¬ all capture
// db-ptime (Theorem 4.7) and Datalog¬¬ captures db-pspace
// (Theorem 4.8).
package order

import (
	"unchained/internal/eval"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Default relation names attached by WithOrder.
const (
	SuccName  = "Succ"  // Succ(x,y): y is the successor of x
	FirstName = "First" // First(x): x is the minimum element
	LastName  = "Last"  // Last(x): x is the maximum element
)

// WithOrder returns a copy of the instance extended with a total
// order on its active domain: Succ, First and Last (≤ is two positive
// rules over Succ). The order is the deterministic value order of the
// universe. The input is not mutated.
func WithOrder(in *tuple.Instance, u *value.Universe) *tuple.Instance {
	out := in.Clone()
	adom := Domain(in, u)
	succ := out.Ensure(SuccName, 2)
	first := out.Ensure(FirstName, 1)
	last := out.Ensure(LastName, 1)
	for i := 0; i < len(adom); i++ {
		if i+1 < len(adom) {
			succ.Insert(tuple.Tuple{adom[i], adom[i+1]})
		}
	}
	if len(adom) > 0 {
		first.Insert(tuple.Tuple{adom[0]})
		last.Insert(tuple.Tuple{adom[len(adom)-1]})
	}
	return out
}

// Domain returns the sorted active domain the order was built over.
func Domain(in *tuple.Instance, u *value.Universe) []value.Value {
	return eval.ActiveDomain(u, nil, in)
}
