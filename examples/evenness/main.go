// Evenness demonstrates Section 4.4 and Theorem 4.7: the evenness
// query ("is |R| even?") is not expressible by any generic
// deterministic language in the family — but becomes expressible, in
// PTIME, the moment the database is ordered. The same semi-positive
// program runs under semi-positive, stratified and inflationary
// evaluation and all agree.
package main

import (
	"context"
	"fmt"
	"log"

	"unchained"
	"unchained/internal/declarative"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/queries"
)

func main() {
	ctx := context.Background()
	s := unchained.NewSession()
	u := s.U

	fmt.Println("evenness of R over a 7-element domain, |R| = 0..7:")
	fmt.Printf("%4s %8s %12s %12s %12s\n", "|R|", "even?", "semi-pos", "stratified", "inflationary")
	for k := 0; k <= 7; k++ {
		base := gen.UnarySubset(u, "R", "Dom", 7, k, int64(k))
		in := s.WithOrder(base) // attach Succ/First/Last: the "order" of §4.5
		p := parser.MustParse(queries.EvenOrdered, u)

		sp, err := declarative.EvalSemiPositive(p, in, u, nil)
		if err != nil {
			log.Fatal(err)
		}
		st, err := s.EvalContext(ctx, p, in, unchained.Stratified)
		if err != nil {
			log.Fatal(err)
		}
		infl, err := s.EvalContext(ctx, p, in, unchained.Inflationary)
		if err != nil {
			log.Fatal(err)
		}
		even := func(out *unchained.Instance) bool {
			r := out.Relation("EvenAns")
			return r != nil && r.Len() > 0
		}
		fmt.Printf("%4d %8v %12v %12v %12v\n", k, k%2 == 0, even(sp.Out), even(st.Out), even(infl.Out))
	}

	fmt.Println("\nwhy order is needed: the engines are generic —")
	fmt.Println("outputs commute with renaming the domain, so without the")
	fmt.Println("symmetry-breaking Succ relation no deterministic program can")
	fmt.Println("count an antichain of indistinguishable elements (§4.4).")
	fmt.Println("The other way out is nondeterminism: see examples/orientation.")
}
