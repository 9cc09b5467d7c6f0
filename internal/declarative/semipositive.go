package declarative

import (
	"fmt"

	"unchained/internal/ast"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// SemiPositiveErr reports a violation of the semi-positive
// restriction: a negated intensional relation.
type SemiPositiveErr struct {
	Rule int
	Pred string
}

func (e *SemiPositiveErr) Error() string {
	return fmt.Sprintf("declarative: rule %d negates intensional relation %s (semi-positive Datalog¬ negates EDB relations only)", e.Rule+1, e.Pred)
}

// ValidateSemiPositive checks the semi-positive restriction of
// Section 4.5: negation is applied to extensional relations only.
func ValidateSemiPositive(p *ast.Program) error {
	if err := p.Validate(ast.DialectDatalogNeg); err != nil {
		return fmt.Errorf("declarative: %w", err)
	}
	idb := map[string]bool{}
	for _, n := range p.IDB() {
		idb[n] = true
	}
	for ri, r := range p.Rules {
		for _, l := range r.Body {
			if l.Kind == ast.LitAtom && l.Neg && idb[l.Atom.Pred] {
				return &SemiPositiveErr{Rule: ri, Pred: l.Atom.Pred}
			}
		}
	}
	return nil
}

// EvalSemiPositive evaluates a semi-positive Datalog¬ program: a
// single semi-naive fixpoint in which negative literals (EDB only,
// hence fixed) act as filters. On ordered databases with min and max
// this fragment already expresses db-ptime (Theorem 4.7, due to
// Papadimitriou [101] in the paper's numbering).
func EvalSemiPositive(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	if err := ValidateSemiPositive(p); err != nil {
		return nil, err
	}
	return evalFixpoint("semi-positive", p, in, u, opt)
}
