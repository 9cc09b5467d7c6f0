package unchained

import (
	"fmt"
	"testing"

	"unchained/internal/active"
	"unchained/internal/ast"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// runActiveBench drives the A1 ECA workload: n orders over n items of
// which the even-indexed ones are in stock.
func runActiveBench(n int) error {
	u := value.New()
	rules := []active.Rule{
		{
			Name: "reserve", Priority: 10,
			On: active.Inserted, Pred: "Order", Vars: []string{"O", "Item"},
			Cond: []ast.Literal{ast.PosLit(ast.NewAtom("InStock", ast.V("Item")))},
			Actions: []ast.Literal{
				ast.PosLit(ast.NewAtom("Reserved", ast.V("O"), ast.V("Item"))),
				ast.Neg(ast.NewAtom("InStock", ast.V("Item"))),
			},
		},
		{
			Name: "backorder", Priority: 5,
			On: active.Inserted, Pred: "Order", Vars: []string{"O", "Item"},
			Cond: []ast.Literal{
				ast.Neg(ast.NewAtom("InStock", ast.V("Item"))),
				ast.Neg(ast.NewAtom("Reserved", ast.V("O"), ast.V("Item"))),
			},
			Actions: []ast.Literal{ast.PosLit(ast.NewAtom("Backorder", ast.V("O"), ast.V("Item")))},
		},
		{
			Name: "reorder", Priority: 1,
			On: active.Deleted, Pred: "InStock", Vars: []string{"Item"},
			Actions: []ast.Literal{ast.PosLit(ast.NewAtom("Reorder", ast.V("Item")))},
		},
	}
	sys, err := active.NewSystem(u, rules)
	if err != nil {
		return err
	}
	wm := tuple.NewInstance()
	var updates []active.Event
	for i := 0; i < n; i++ {
		item := u.Sym(fmt.Sprintf("item%d", i))
		if i%2 == 0 {
			wm.Insert("InStock", tuple.Tuple{item})
		}
		updates = append(updates, active.Insert("Order", tuple.Tuple{u.Sym(fmt.Sprintf("o%d", i)), item}))
	}
	res, err := sys.Run(wm, updates, nil)
	if err != nil {
		return err
	}
	if got := res.Out.Relation("Reserved").Len(); got != n/2 {
		return fmt.Errorf("reserved = %d, want %d", got, n/2)
	}
	return nil
}

// TestActiveCascadeReservesHalf is experiment A1's claim: the cascade
// settles with exactly the in-stock half of the orders reserved.
func TestActiveCascadeReservesHalf(t *testing.T) {
	for _, n := range []int{8, 32} {
		if err := runActiveBench(n); err != nil {
			t.Errorf("orders=%d: %v", n, err)
		}
	}
}
