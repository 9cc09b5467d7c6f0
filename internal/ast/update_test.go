package ast_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/gen"
	"unchained/internal/value"
)

// TestUpdateMatchesNewIndex holds Index.Update to NewIndex: over random
// programs of every dialect, an index derived by dropping rules,
// keeping them in a new order and replacing some with rules of another
// program reads as the index built from scratch, predicate order
// aside, and the index it was derived from still reads as before.
func TestUpdateMatchesNewIndex(t *testing.T) {
	u := value.New()
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := ast.Dialects[int(seed)%len(ast.Dialects)]
		p, other := gen.Program(rng, u, d), gen.Program(rng, u, d)
		ix := ast.NewIndex(p)
		before := view(ix)

		var rules []ast.Rule
		var from []int32
		for _, ri := range rng.Perm(len(p.Rules)) {
			switch rng.Intn(3) {
			case 0: // dropped
			case 1:
				rules, from = append(rules, p.Rules[ri]), append(from, int32(ri))
			default:
				rules, from = append(rules, other.Rules[rng.Intn(len(other.Rules))]), append(from, -1)
			}
		}
		next := &ast.Program{Rules: rules}
		if got, want := view(ix.Update(next, from)), view(ast.NewIndex(next)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Update differs from NewIndex\nprogram:\n%s\ngot  %v\nwant %v", seed, next.String(u), got, want)
		}
		if after := view(ix); !reflect.DeepEqual(after, before) {
			t.Fatalf("seed %d: Update changed the index it derived from", seed)
		}
	}
}

// view renders everything an index answers, keyed by predicate name
// rather than id.
func view(ix *ast.Index) map[string]string {
	occ := func(o ast.Occ) string {
		return fmt.Sprintf("%s@r%d nested=%v lit=%p", ix.Preds[o.Pred].Name, o.Rule, o.Nested, o.Lit)
	}
	v := map[string]string{
		"mask": fmt.Sprint(ix.Mask),
		"idb":  fmt.Sprint(ix.IDB()),
		"edb":  fmt.Sprint(ix.EDB()),
		"diag": fmt.Sprint(ix.ArityDiags()),
	}
	for ri := range ix.Rules {
		var heads, body []string
		for _, o := range ix.Heads(ri) {
			heads = append(heads, occ(o))
		}
		for _, o := range ix.Body(ri) {
			body = append(body, occ(o))
		}
		v[fmt.Sprint("rule ", ri)] = fmt.Sprint(ix.Rules[ri].Mask, heads, body)
	}
	for _, nested := range []bool{false, true} {
		for id, under := range ix.Underivable(nested) {
			v[fmt.Sprint("underivable ", nested, " ", ix.Preds[id].Name)] = fmt.Sprint(under)
		}
	}
	for id := range ix.Preds {
		q := &ix.Preds[id]
		if got, ok := ix.ID(q.Name); !ok || int(got) != id {
			v["id "+q.Name] = fmt.Sprint("ID gives ", got, ok)
		}
		var readers []string
		for _, o := range q.Readers {
			readers = append(readers, occ(*ix.Occ(o)))
		}
		v["pred "+q.Name] = fmt.Sprint(q.Arity, q.Pos, q.HeadPos, q.Derive, q.Retract, readers)
	}
	return v
}
