package magic

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/declarative"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/queries"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

func TestMagicTCBoundSource(t *testing.T) {
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	in := gen.Chain(u, "G", 50)
	q := ast.NewAtom("T", ast.C(u.Sym("n0")), ast.V("Y"))
	got, err := Answer(p, q, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FullAnswer(p, q, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("magic %d tuples, full %d", got.Len(), want.Len())
	}
	if got.Len() != 49 {
		t.Fatalf("reachable from n0 on a 50-chain should be 49, got %d", got.Len())
	}
}

func TestMagicAvoidsIrrelevantWork(t *testing.T) {
	// Two disconnected chains; querying from the small one must not
	// derive closure facts of the large one.
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	in := gen.Chain(u, "G", 200)
	// Attach a tiny side chain x0 -> x1.
	x0, x1 := u.Sym("x0"), u.Sym("x1")
	in.Insert("G", tuple.Tuple{x0, x1})

	q := ast.NewAtom("T", ast.C(x0), ast.V("Y"))
	rw, ansName, err := Rewrite(p, q, in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := evalRewritten(t, rw, in, u)
	if err != nil {
		t.Fatal(err)
	}
	derived := 0
	if r := res.Relation(ansName); r != nil {
		derived = r.Len()
	}
	if derived > 2 {
		t.Fatalf("magic derived %d closure facts, want ≤2 (only the x-chain)", derived)
	}
}

func evalRewritten(t *testing.T, rw *ast.Program, in *tuple.Instance, u *value.Universe) (*tuple.Instance, error) {
	t.Helper()
	res, err := declarative.Eval(rw, in, u, nil)
	if err != nil {
		return nil, err
	}
	return res.Out, nil
}

func TestMagicSameGeneration(t *testing.T) {
	u := value.New()
	p := parser.MustParse(queries.SameGeneration, u)
	in := parser.MustParseFacts(`
		Up(a,b). Up(c,b). Up(e,d). Flat(b,b). Flat(d,d).
		Down(b,f). Down(b,g). Down(d,h).
	`, u)
	q := ast.NewAtom("Sg", ast.C(u.Sym("a")), ast.V("Y"))
	got, err := Answer(p, q, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FullAnswer(p, q, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("same-generation mismatch: magic %d vs full %d", got.Len(), want.Len())
	}
	if got.Len() == 0 {
		t.Fatalf("query should have answers")
	}
}

func TestMagicSecondArgBound(t *testing.T) {
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	in := gen.Random(u, "G", 20, 40, 5)
	q := ast.NewAtom("T", ast.V("X"), ast.C(u.Sym("n3")))
	got, err := Answer(p, q, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FullAnswer(p, q, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("bf vs fb adornment mismatch")
	}
}

func TestMagicAllFreeQuery(t *testing.T) {
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	in := gen.Cycle(u, "G", 6)
	q := ast.NewAtom("T", ast.V("X"), ast.V("Y"))
	got, err := Answer(p, q, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FullAnswer(p, q, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("all-free query mismatch: %d vs %d", got.Len(), want.Len())
	}
}

func TestMagicBothBound(t *testing.T) {
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	in := gen.Chain(u, "G", 10)
	yes := ast.NewAtom("T", ast.C(u.Sym("n0")), ast.C(u.Sym("n9")))
	no := ast.NewAtom("T", ast.C(u.Sym("n9")), ast.C(u.Sym("n0")))
	g1, err := Answer(p, yes, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Answer(p, no, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Len() != 1 || g2.Len() != 0 {
		t.Fatalf("boolean queries wrong: %d, %d", g1.Len(), g2.Len())
	}
}

func TestMagicErrors(t *testing.T) {
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	if _, _, err := Rewrite(p, ast.NewAtom("T", ast.V("X")), nil); err == nil {
		t.Fatalf("arity mismatch accepted")
	}
	in := parser.MustParseFacts(`G(a,b). U(a,b).`, u)
	for _, q := range []ast.Atom{ast.NewAtom("G", ast.V("X")), ast.NewAtom("U", ast.V("X"))} {
		if _, _, err := Rewrite(p, q, in); err == nil {
			t.Fatalf("arity mismatch with the program / the input accepted for %s", q.String(u))
		}
	}
	neg := parser.MustParse(`A(X) :- B(X), !C(X).`, u)
	if _, _, err := Rewrite(neg, ast.NewAtom("A", ast.V("X")), nil); err == nil {
		t.Fatalf("negation accepted (magic sets here are positive-only)")
	}
}

// TestMagicGoalWithoutRules: a goal on a relation the program has no
// rules for (an input relation, one the program never mentions, one
// whose rules the optimizer removed) is answered from the input facts,
// as FullAnswer answers it; it is not an error.
func TestMagicGoalWithoutRules(t *testing.T) {
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	in := parser.MustParseFacts(`G(a,b). G(b,c). U(a).`, u)
	a := ast.C(u.Sym("a"))
	for _, tc := range []struct {
		q    ast.Atom
		want int
	}{
		{ast.NewAtom("G", a, ast.V("Y")), 1},
		{ast.NewAtom("G", ast.V("X"), ast.V("Y")), 2},
		{ast.NewAtom("U", a), 1},
		{ast.NewAtom("Nowhere", a), 0},
	} {
		got, err := Answer(p, tc.q, in, u, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.q.String(u), err)
		}
		want, err := FullAnswer(p, tc.q, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Len() != tc.want {
			t.Fatalf("%s: magic %d tuples, full %d, want %d", tc.q.String(u), got.Len(), want.Len(), tc.want)
		}
	}
}

// TestMagicReadsInputFactsOnIntensionalPredicates: this repository
// allows input facts on intensional predicates, and goal-directed
// evaluation must see them like full evaluation does. Every positive
// program of the corpus, over generated instances that put facts on
// every relation of its schema, every adornment of every goal.
func TestMagicReadsInputFactsOnIntensionalPredicates(t *testing.T) {
	paths, err := filepath.Glob("../../programs/*.dl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	positive := 0
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		u := value.New()
		p, err := parser.Parse(string(src), u)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if p.Validate(ast.DialectDatalog) != nil {
			continue
		}
		positive++
		sch, err := p.Schema()
		if err != nil {
			t.Fatal(err)
		}
		preds := make([]string, 0, len(sch))
		for pred := range sch {
			preds = append(preds, pred)
		}
		sort.Strings(preds)
		consts := make([]value.Value, 5)
		for i := range consts {
			consts[i] = u.Sym(fmt.Sprintf("c%d", i))
		}
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := tuple.NewInstance()
			for _, pred := range preds {
				for i := 0; i < 4; i++ {
					tup := make(tuple.Tuple, sch[pred])
					for k := range tup {
						tup[k] = consts[rng.Intn(len(consts))]
					}
					in.Insert(pred, tup)
				}
			}
			for _, pred := range preds {
				n := sch[pred]
				for ad := 0; ad < 1<<n; ad++ {
					args := make([]ast.Term, n)
					for k := range args {
						args[k] = ast.V(fmt.Sprintf("Q%d", k))
						if ad>>k&1 == 1 {
							args[k] = ast.C(consts[rng.Intn(len(consts))])
						}
					}
					q := ast.Atom{Pred: pred, Args: args}
					got, err := Answer(p, q, in, u, nil)
					if err != nil {
						t.Fatalf("%s seed %d, %s: %v", path, seed, q.String(u), err)
					}
					want, err := FullAnswer(p, q, in, u, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s seed %d, %s: magic %d tuples, full %d\ninput:\n%s",
							path, seed, q.String(u), got.Len(), want.Len(), in.String(u))
					}
				}
			}
		}
	}
	if positive < 2 {
		t.Fatalf("only %d positive programs in the corpus", positive)
	}
}

// TestMagicMatchesFullOnRandomPrograms: the decisive property test —
// on the positive programs of gen.Program and a goal over one of their
// derived predicates, each argument a constant or a variable, the
// magic-rewritten evaluation returns exactly the filtered full
// evaluation.
func TestMagicMatchesFullOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng, u := rand.New(rand.NewSource(seed)), value.New()
		p := gen.Program(rng, u, ast.DialectDatalog)
		in := gen.Facts(rng, u, p)
		sch, err := p.Schema()
		if err != nil {
			t.Fatal(err)
		}
		idb := p.IDB()
		qp := idb[rng.Intn(len(idb))]
		args, consts := make([]ast.Term, sch[qp]), gen.Nodes(u, 4)
		for i := range args {
			args[i] = ast.V(fmt.Sprintf("Q%d", i))
			if rng.Intn(2) == 0 {
				args[i] = ast.C(consts[rng.Intn(len(consts))])
			}
		}
		q := ast.Atom{Pred: qp, Args: args}
		got, err := Answer(p, q, in, u, nil)
		if err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, p.String(u))
		}
		want, err := FullAnswer(p, q, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d, %s: magic %d tuples, full %d\nprogram:\n%sinput:\n%s",
				seed, q.String(u), got.Len(), want.Len(), p.String(u), in.String(u))
		}
	}
}
