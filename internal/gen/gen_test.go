package gen

import (
	"math/rand"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

func TestChain(t *testing.T) {
	u := value.New()
	in := Chain(u, "G", 5)
	if in.Relation("G").Len() != 4 {
		t.Fatalf("chain(5) has %d edges", in.Relation("G").Len())
	}
	if !in.Has("G", tuple.Tuple{u.Sym("n0"), u.Sym("n1")}) {
		t.Fatalf("chain edge missing")
	}
	if Chain(u, "G", 1).Relation("G").Len() != 0 {
		t.Fatalf("chain(1) should have no edges")
	}
}

func TestCycle(t *testing.T) {
	u := value.New()
	in := Cycle(u, "G", 4)
	if in.Relation("G").Len() != 4 {
		t.Fatalf("cycle(4) has %d edges", in.Relation("G").Len())
	}
	if !in.Has("G", tuple.Tuple{u.Sym("n3"), u.Sym("n0")}) {
		t.Fatalf("wrap-around edge missing")
	}
}

func TestRandomDeterministicInSeed(t *testing.T) {
	u := value.New()
	a := Random(u, "G", 10, 20, 42)
	b := Random(u, "G", 10, 20, 42)
	if !a.Equal(b) {
		t.Fatalf("same seed produced different graphs")
	}
	c := Random(u, "G", 10, 20, 43)
	if a.Equal(c) {
		t.Fatalf("different seeds produced identical graphs (suspicious)")
	}
	if a.Relation("G").Len() != 20 {
		t.Fatalf("edge count %d, want 20", a.Relation("G").Len())
	}
}

func TestRandomCapsAtComplete(t *testing.T) {
	u := value.New()
	in := Random(u, "G", 2, 100, 1)
	if in.Relation("G").Len() != 4 {
		t.Fatalf("cap at n² failed: %d", in.Relation("G").Len())
	}
}

func TestGrid(t *testing.T) {
	u := value.New()
	in := Grid(u, "G", 3, 2)
	// 2 rows × 2 right-edges + 3 columns × 1 down-edge = 4 + 3.
	if in.Relation("G").Len() != 7 {
		t.Fatalf("grid(3,2) has %d edges, want 7", in.Relation("G").Len())
	}
}

func TestTree(t *testing.T) {
	u := value.New()
	in := Tree(u, "G", 2, 3)
	// Complete binary tree of depth 3: 15 nodes, 14 edges.
	if in.Relation("G").Len() != 14 {
		t.Fatalf("tree(2,3) has %d edges, want 14", in.Relation("G").Len())
	}
	lin := Tree(u, "G", 1, 4)
	if lin.Relation("G").Len() != 4 {
		t.Fatalf("tree(1,4) should be a path with 4 edges, got %d", lin.Relation("G").Len())
	}
}

func TestLayeredDAG(t *testing.T) {
	u := value.New()
	in := LayeredDAG(u, "G", 3, 4, 2, 7)
	if in.Relation("G").Len() == 0 || in.Relation("G").Len() > 2*4*2 {
		t.Fatalf("layered dag edges = %d", in.Relation("G").Len())
	}
}

func TestTwoCycles(t *testing.T) {
	u := value.New()
	in := TwoCycles(u, "G", 3)
	if in.Relation("G").Len() != 9 {
		t.Fatalf("two-cycles(3) has %d edges, want 9", in.Relation("G").Len())
	}
}

func TestUnaryAndSubset(t *testing.T) {
	u := value.New()
	if Unary(u, "P", 6).Relation("P").Len() != 6 {
		t.Fatalf("unary wrong")
	}
	in := UnarySubset(u, "R", "Dom", 10, 4, 3)
	if in.Relation("R").Len() != 4 || in.Relation("Dom").Len() != 10 {
		t.Fatalf("subset sizes wrong: %d/%d", in.Relation("R").Len(), in.Relation("Dom").Len())
	}
	// R ⊆ Dom.
	in.Relation("R").Each(func(tp tuple.Tuple) bool {
		if !in.Has("Dom", tp) {
			t.Fatalf("R not a subset of Dom")
		}
		return true
	})
}

func TestMerge(t *testing.T) {
	u := value.New()
	a := Chain(u, "G", 3)
	b := Unary(u, "P", 2)
	m := Merge(a, b)
	if m.Relation("G").Len() != 2 || m.Relation("P").Len() != 2 {
		t.Fatalf("merge wrong")
	}
}

// TestInputs: twelve inputs, the input relations filled in each and the
// derived ones only in the asserted half.
func TestInputs(t *testing.T) {
	u := value.New()
	p := parser.MustParse("T(X,Y) :- G(X,Y).\nT(X,Y) :- G(X,Z), T(Z,Y).\nS(X) :- N(X), !T(X,X).", u)
	n := 0
	Inputs(u, p, func(name string, in *tuple.Instance) {
		asserted := n%2 == 1
		n++
		if in.Relation("G").Len() == 0 || in.Relation("N").Len() != 3 {
			t.Errorf("%s: input relations G, N not filled:\n%s", name, in.String(u))
		}
		if got := in.Relation("T") != nil && in.Relation("S") != nil; got != asserted {
			t.Errorf("%s: derived relations present = %v, want %v", name, got, asserted)
		}
	})
	if n != 12 {
		t.Fatalf("%d inputs, want 12", n)
	}
}

// TestProgramCoversEveryDialect: over fixed seeds, every program of
// every dialect (and of the semi-positive restriction) passes
// Validate and comes back unchanged from String and Parse, and the
// programs of a dialect use every feature it admits between them.
func TestProgramCoversEveryDialect(t *testing.T) {
	const every = ast.FeatMalformed - 1
	semiPositive := ast.Dialect(len(ast.Dialects)) // a row after the nine
	for _, d := range append(ast.Dialects[:len(ast.Dialects):len(ast.Dialects)], semiPositive) {
		dialect, name := d, d.String()
		if d == semiPositive {
			dialect, name = ast.DialectDatalogNeg, "semi-positive"
		}
		want := every &^ dialect.Forbids()
		// Two admitted features no valid program can use: a body of
		// positive atoms binds every variable, and a head-only variable
		// is not bound either.
		if want&ast.FeatBodyNeg == 0 {
			want &^= ast.FeatUnboundVar
		}
		if want&ast.FeatUnboundVar == 0 {
			want &^= ast.FeatHeadOnlyVar
		}
		var mask ast.Feature
		for seed := int64(0); seed < 200; seed++ {
			u := value.New()
			var p *ast.Program
			if c := rand.New(rand.NewSource(seed)); d == semiPositive {
				p = SemiPositive(c, u)
			} else {
				p = Program(c, u, dialect)
			}
			src := p.String(u)
			if err := p.Validate(dialect); err != nil {
				t.Fatalf("%s, seed %d: %v\n%s", name, seed, err, src)
			}
			q, err := parser.Parse(src, u)
			if err != nil {
				t.Fatalf("%s, seed %d: %v\n%s", name, seed, err, src)
			}
			if back := q.String(u); back != src {
				t.Fatalf("%s, seed %d: the program parses back as\n%sfrom\n%s", name, seed, back, src)
			}
			ix := ast.NewIndex(p)
			for _, pi := range ix.Preds {
				for _, o := range pi.Readers {
					if d == semiPositive && pi.IDB() && ix.Occ(o).Lit.Neg {
						t.Fatalf("seed %d: a semi-positive program negates %s, which it derives\n%s", seed, pi.Name, src)
					}
				}
			}
			mask |= ix.Mask
		}
		if mask != want {
			t.Errorf("%s: the programs use features %b, want %b", name, mask, want)
		}
	}
}

// TestBytesDrivesProgram: a Bytes chooser decodes any input, the empty
// one included, into a program and facts, one byte per choice.
func TestBytesDrivesProgram(t *testing.T) {
	u := value.New()
	for _, data := range [][]byte{nil, {0}, {1, 2, 3, 4, 5, 6, 7, 8, 9}, {255, 254, 253, 252, 251, 250}} {
		c := Bytes(data)
		p := Program(c, u, ast.DialectNDatalogAll)
		if err := p.Validate(ast.DialectNDatalogAll); err != nil {
			t.Fatalf("%v: %v", data, err)
		}
		if in := Facts(c, u, p); in.Facts() == 0 {
			t.Fatalf("%v: no facts", data)
		}
	}
	if got := Program(Bytes(nil), u, ast.DialectDatalog).String(u); got != "A(X) :- E(X,X).\n" {
		t.Fatalf("the all-zero choices give %q", got)
	}
}
