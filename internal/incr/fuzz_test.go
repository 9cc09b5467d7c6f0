package incr

import (
	"fmt"
	"testing"

	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// FuzzApply drives a view of one corpus program through a sequence of
// batches decoded from the fuzz bytes and holds it, after every batch,
// to the properties TestBatchOracleCorpus checks on fixed seeds: the
// view equals recomputation from its EDB, its state and delta equal
// those of a view maintained by referenceDRed, and the delta is exactly
// the difference between the states before and after.
//
// The first byte picks the program. Every later byte b opens a step:
// b%4 == 3 applies the batch gathered so far; otherwise the step is a
// fact of updatable predicate (b/4)%len(preds), its arguments the next
// bytes modulo the six constants, to assert (b%4 < 2) or to retract.
func FuzzApply(f *testing.F) {
	// The self-supporting cycle: assert G(c0,c1) and G(c1,c0), then
	// retract G(c0,c1) — every T fact must go but T(c1,c0).
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 3, 2, 0, 1, 3})
	// neg-guard-in-recursion, a support and a guard moving in one batch:
	// E(c0,c1), E(c1,c2), E(c0,c3), E(c3,c2) and F(c3,c3), then retract
	// E(c1,c2) and F(c3,c3) — P(c0,c2) must come back through c3.
	f.Add([]byte{8, 0, 0, 1, 0, 1, 2, 0, 0, 3, 0, 3, 2, 4, 3, 3, 3, 2, 1, 2, 6, 3, 3, 3})
	// A cyclic and an acyclic proof: assert G(c0,c1), G(c1,c0) and
	// G(c2,c0), then retract G(c0,c1) — T(c2,c0) stays, T(c2,c1) goes.
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 0, 2, 0, 3, 2, 0, 1, 3})
	// Asserts restoring what the retract disproved: assert G(c0,c1) and
	// G(c1,c2), then retract G(c1,c2) and assert G(c0,c3) and G(c3,c2)
	// in one batch — T(c0,c2) is in neither half of the delta.
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 3, 2, 1, 2, 0, 0, 3, 0, 3, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		prog := oracleCorpus[int(data[0])%len(oracleCorpus)]
		data = data[1:]
		u := value.New()
		p := parser.MustParse(prog.text, u)
		consts := make([]value.Value, 6)
		for i := range consts {
			consts[i] = u.Sym(fmt.Sprintf("c%d", i))
		}
		preds := prog.preds()
		in := tuple.NewInstance()
		for _, name := range preds {
			in.Ensure(name, prog.edb[name])
		}
		v, err := Materialize(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceView(t, u, v)
		var assert, retract []Fact
		for len(data) > 0 {
			b := data[0]
			data = data[1:]
			if b%4 != 3 {
				fact := Fact{Pred: preds[int(b/4)%len(preds)]}
				for i := 0; i < prog.edb[fact.Pred] && len(data) > 0; i++ {
					fact.Tuple = append(fact.Tuple, consts[int(data[0])%len(consts)])
					data = data[1:]
				}
				if len(fact.Tuple) < prog.edb[fact.Pred] {
					return
				}
				if b%4 < 2 {
					assert = append(assert, fact)
				} else {
					retract = append(retract, fact)
				}
				continue
			}
			before := ref.Snapshot() // not v's: v's batches must write in place
			d := applyBoth(t, u, v, ref, assert, retract)
			if got, want := v.Instance().String(u), oracleRecompute(t, u, v).String(u); got != want {
				t.Fatalf("%s: view diverged from recompute\nassert: %v\nretract: %v\ngot:\n%swant:\n%s",
					prog.name, assert, retract, got, want)
			}
			checkDeltaConsistent(t, u, before, v.Instance(), d)
			assert, retract = nil, nil
		}
	})
}
