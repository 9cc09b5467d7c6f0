// Orientation demonstrates the nondeterministic semantics of Section
// 5 with the paper's one-rule program
//
//	!G(X,Y) :- G(X,Y), G(Y,X).
//
// Under the deterministic (parallel) Datalog¬¬ semantics it deletes
// both edges of every 2-cycle; under the nondeterministic
// one-instantiation-at-a-time semantics it computes one of the
// possible orientations. The example samples runs, enumerates the
// full effect eff(P), and shows the poss/cert semantics of
// Definition 5.10.
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
	prog := s.MustParse(`!G(X,Y) :- G(X,Y), G(Y,X).`)
	edb := s.MustFacts(`G(a,b). G(b,a). G(c,d). G(d,c). G(d,e).`)

	// Deterministic Datalog¬¬: both edges of each cycle vanish.
	det, err := s.EvalContext(ctx, prog, edb, unchained.NonInflationary)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("deterministic Datalog¬¬ (parallel firing) removes whole cycles:")
	fmt.Print(indent(s.Format(det.Out.Restrict([]string{"G"}, nil))))

	// Nondeterministic sampled runs: each seed picks an orientation.
	fmt.Println("\nsampled N-Datalog¬¬ runs (seeded, reproducible):")
	for seed := int64(0); seed < 4; seed++ {
		res, err := s.RunNondetContext(ctx, prog, unchained.DialectNDatalogNegNeg, edb, unchained.WithSeed(seed))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  seed %d (%d firings): ", seed, res.Steps)
		for _, t := range res.Out.Relation("G").SortedTuples(s.U) {
			fmt.Printf("G%s ", t.String(s.U))
		}
		fmt.Println()
	}

	// Exhaustive effect: all orientations, and poss/cert.
	eff, err := s.EffectsContext(ctx, prog, unchained.DialectNDatalogNegNeg, edb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\neff(P) has %d terminal states (2 cycles ⇒ 2² orientations):\n", len(eff.States))
	poss, _ := eff.Poss()
	cert, _ := eff.Cert()
	fmt.Printf("poss(G) keeps every edge that survives some run: %d edges\n", poss.Relation("G").Len())
	fmt.Printf("cert(G) keeps the edges surviving every run:     %d edges ", cert.Relation("G").Len())
	fmt.Println("(only the uncycled G(d,e))")
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "  " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			if cur != "" {
				out = append(out, cur)
			}
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
