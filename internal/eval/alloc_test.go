package eval

import (
	"testing"

	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// chainClosure returns the n-chain G(i,i+1) with its transitive
// closure T, and the compiled recursive rule of TC.
func chainClosure(t *testing.T, n int) (*Rule, *Ctx) {
	t.Helper()
	u := value.New()
	in := tuple.NewInstance()
	node := make([]value.Value, n)
	for i := range node {
		node[i] = u.Int(int64(i))
	}
	for i := 0; i+1 < n; i++ {
		in.Insert("G", tuple.Tuple{node[i], node[i+1]})
		for j := i + 1; j < n; j++ {
			in.Insert("T", tuple.Tuple{node[i], node[j]})
		}
	}
	r, err := parser.ParseRule("T(X,Y) :- G(X,Z), T(Z,Y).", u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	return cr, &Ctx{In: in, Adom: ActiveDomain(u, nil, in)}
}

// An enumeration allocates the buffer its binding and scratch tuples
// share (and whatever the planner needs on a replan), nothing per
// valuation.
func TestEnumerateAllocatesPerCallNotPerBinding(t *testing.T) {
	for _, n := range []int{16, 256} {
		cr, ctx := chainClosure(t, n)
		bindings := 0
		got := testing.AllocsPerRun(5, func() {
			bindings = 0
			cr.Enumerate(ctx, func(Binding) bool { bindings++; return true })
		})
		if want := (n - 1) * (n - 2) / 2; bindings != want {
			t.Fatalf("n=%d: %d bindings, want %d", n, bindings, want)
		}
		if got > 4 {
			t.Errorf("n=%d: Enumerate allocates %.0f times per call over %d bindings, want <= 4", n, got, bindings)
		}
	}
}

// Firing into a staging set materializes no fact: the head tuples are
// scratch, and the set copies them into rows that grow by doubling.
func TestFireIntoStagingAllocatesOnlyGrowth(t *testing.T) {
	cr, ctx := chainClosure(t, 256)
	empty := tuple.NewInstance() // no T to find: every firing stages its fact
	firings := 0
	got := testing.AllocsPerRun(5, func() {
		st := NewStaging(empty)
		firings = 0
		cr.Fire(ctx, -1, nil, func(f Fact) bool { firings++; return st.Emit(f) })
		if st.Next.Facts() != 255*254/2 {
			t.Fatalf("staged %d facts", st.Next.Facts())
		}
	})
	if per := got / float64(firings); per > 0.1 {
		t.Errorf("Fire allocates %.3f times per firing over %d firings, want <= 0.1", per, firings)
	}
}
