package unchained_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"unchained/internal/ast"
	"unchained/internal/core"
	"unchained/internal/declarative"
	"unchained/internal/engine"
	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// TestStoppedRoundLeavesNoStagedRow: a round stages its new facts into
// the instance's own rows, so a round the deadline stops must take them
// out again. Under every engine that stages, the instance a stopped
// run returns is the one the stopped round began from: the same facts,
// fingerprint, rendering and relation names, no staged fact visible,
// and each of them new to a later Insert exactly once. The first
// program stops in round one, in a relation the round made; the second
// in round two, in a relation the input already has. The provenance
// run, which records a derivation as a round stages a fact, explains no
// fact of the stopped round either. Result.Stages counts the rounds
// completed; the well-founded walk counts its kernel runs, and stops in
// its first.
func TestStoppedRoundLeavesNoStagedRow(t *testing.T) {
	u := value.New()
	var facts strings.Builder
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			fmt.Fprintf(&facts, "K(c%d,c%d). ", i, j)
		}
	}
	facts.WriteString("S(c0). Q(z,z).")
	in := parser.MustParseFacts(facts.String(), u)
	// A join of 40^6 valuations whose every variable reaches the head or
	// a later literal, which no existential cut shortens.
	heavy := "K(A,B), K(B,C), K(C,D), K(D,E), K(E,F)"
	first := parser.MustParse("P(A,F) :- "+heavy+".", u)
	second := parser.MustParse("T(X) :- S(X).\nQ(A,F) :- T(A), "+heavy+".", u)
	afterOne := in.Clone()
	afterOne.Insert("T", tuple.Tuple{u.Sym("c0")})
	var prov *core.Provenance // the last provenance run's
	provenance := func(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *engine.Options) (res *engine.Result, err error) {
		res, prov, err = core.EvalInflationaryProv(p, in, u, opt)
		return res, err
	}
	for _, e := range []struct {
		name string
		eval func(*ast.Program, *tuple.Instance, *value.Universe, *engine.Options) (*engine.Result, error)
		runs bool // Result.Stages counts kernel runs, not rounds
	}{
		{"minimal model", declarative.Eval, false},
		{"naive", declarative.EvalNaive, false},
		{"inflationary", core.EvalInflationary, false},
		{"invent", core.EvalInvent, false},
		{"provenance", provenance, false},
		{"stratified", declarative.EvalStratified, false},
		{"well-founded", declarative.EvalWellFounded2, true},
	} {
		for _, c := range []struct {
			p      *ast.Program
			pred   string
			stages int
			want   *tuple.Instance
		}{{first, "P", 0, in}, {second, "Q", 1, afterOne}} {
			name := fmt.Sprintf("%s, stopped after %d stages", e.name, c.stages)
			prov = nil
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			res, err := e.eval(c.p, in, u, &engine.Options{Ctx: ctx})
			cancel()
			if !errors.Is(err, engine.ErrDeadline) || !strings.Contains(err.Error(), fmt.Sprintf("after %d stages", c.stages)) {
				t.Fatalf("%s: err = %v", name, err)
			}
			want := c.stages
			if e.runs {
				want = 0
			}
			if res.Stages != want {
				t.Fatalf("%s: Result.Stages = %d, want %d", name, res.Stages, want)
			}
			out := res.Out
			if prov != nil && c.stages == 1 {
				if x, ok := prov.Why("T", tuple.Tuple{u.Sym("c0")}); !ok || x.Stage != 1 {
					t.Fatalf("%s: T(c0), which stage 1 added, is not explained as such: %+v", name, x)
				}
			}
			if out.Facts() != c.want.Facts() || out.Fingerprint() != c.want.Fingerprint() ||
				out.String(u) != c.want.String(u) || !slices.Equal(out.Names(), c.want.Names()) {
				t.Fatalf("%s: %d facts over %v, want the %d over %v the round began from", name, out.Facts(), out.Names(), c.want.Facts(), c.want.Names())
			}
			for i := 0; i < 40*40; i++ {
				tp := tuple.Tuple{u.Sym(fmt.Sprintf("c%d", i/40)), u.Sym(fmt.Sprintf("c%d", i%40))}
				if out.Has(c.pred, tp) {
					t.Fatalf("%s: the stopped round's %s%v is visible", name, c.pred, tp)
				}
				if prov != nil {
					if _, ok := prov.Why(c.pred, tp); ok {
						t.Fatalf("%s: the stopped round's %s%v is explained", name, c.pred, tp)
					}
				}
				if !out.Insert(c.pred, tp) || out.Insert(c.pred, tp) {
					t.Fatalf("%s: %s%v is not new to an Insert exactly once", name, c.pred, tp)
				}
			}
		}
	}
}
