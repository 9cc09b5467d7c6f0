// Quickstart: parse a program once and evaluate it under several of
// the paper's semantics through the public Session API.
package main

import (
	"context"
	"fmt"
	"log"

	"unchained"
)

func main() {
	ctx := context.Background()
	s := unchained.NewSession()

	// Transitive closure (Section 3.1) — valid in every dialect.
	prog, err := s.Parse(`
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
	`)
	if err != nil {
		log.Fatal(err)
	}
	edb, err := s.Facts(`G(a,b). G(b,c). G(c,d).`)
	if err != nil {
		log.Fatal(err)
	}

	for _, sem := range []unchained.Semantics{
		unchained.MinimalModel,
		unchained.Stratified,
		unchained.WellFounded,
		unchained.Inflationary,
	} {
		res, err := s.EvalContext(ctx, prog, edb, sem)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- %v: |T| = %d\n", sem, res.Out.Relation("T").Len())
	}

	// The stratified complement (Section 3.2) shows where the
	// dialects split: the positive engine rejects it.
	ct := s.MustParse(`
		T(X,Y) :- G(X,Y).
		T(X,Y) :- G(X,Z), T(Z,Y).
		CT(X,Y) :- !T(X,Y).
	`)
	if _, err := s.EvalContext(ctx, ct, edb, unchained.MinimalModel); err != nil {
		fmt.Println("-- minimal-model rejects negation, as it must:")
		fmt.Println("  ", err)
	}
	res, err := s.EvalContext(ctx, ct, edb, unchained.Stratified)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- stratified complement of the closure:")
	fmt.Print(s.Format(res.Out.Restrict([]string{"CT"}, nil)))
}
