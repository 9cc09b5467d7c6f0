package declarative

// Soundness property: the well-founded result is a 3-valued model of
// the program under Kleene semantics — for every rule instantiation,
// truth(head) ≥ truth(body), where truth values are ordered
// False < Unknown < True, a body's truth is the minimum of its
// literals', and ¬ swaps True and False. This is checked by brute
// force over all instantiations, independently of the alternating
// fixpoint that computed the model.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"unchained/internal/ast"
	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// truthOf evaluates a literal's 3-valued truth under the model.
func truthOf(w *WFSResult, l ast.Literal, assign map[string]value.Value) TruthValue {
	t := make(tuple.Tuple, len(l.Atom.Args))
	for i, a := range l.Atom.Args {
		if a.IsVar() {
			t[i] = assign[a.Var]
		} else {
			t[i] = a.Const
		}
	}
	tv := w.Truth(l.Atom.Pred, t)
	if l.Neg {
		switch tv {
		case True:
			return False
		case False:
			return True
		default:
			return Unknown
		}
	}
	return tv
}

// isThreeValuedModel brute-force checks the Kleene model condition.
func isThreeValuedModel(t *testing.T, w *WFSResult, p *ast.Program) bool {
	t.Helper()
	for _, r := range p.Rules {
		vars := r.Vars()
		assign := map[string]value.Value{}
		ok := true
		var rec func(i int)
		rec = func(i int) {
			if !ok {
				return
			}
			if i == len(vars) {
				body := True
				for _, l := range r.Body {
					if tv := truthOf(w, l, assign); tv < body {
						body = tv
					}
				}
				head := truthOf(w, r.Head[0], assign)
				if head < body {
					ok = false
					t.Logf("violated: rule %s head=%v body=%v assign=%v",
						r.String(w.u), head, body, assign)
				}
				return
			}
			for _, v := range w.Adom {
				assign[vars[i]] = v
				rec(i + 1)
			}
		}
		rec(0)
		if !ok {
			return false
		}
	}
	return true
}

func TestWFSIsThreeValuedModelOfWin(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`Win(X) :- Moves(X,Y), !Win(Y).`, u)
	in := parser.MustParseFacts(`
		Moves(b,c). Moves(c,a). Moves(a,b). Moves(a,d).
		Moves(d,e). Moves(d,f). Moves(f,g).
	`, u)
	w, err := EvalWellFounded(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !isThreeValuedModel(t, w, p) {
		t.Fatalf("WFS of the win program is not a 3-valued model")
	}
}

func TestWFSIsThreeValuedModelOnRandomPrograms(t *testing.T) {
	f := func(seed int64) bool {
		u := value.New()
		prog, in := randomNegProgram(rand.New(rand.NewSource(seed)), u)
		w, err := EvalWellFounded(prog, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		return isThreeValuedModel(t, w, prog)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomNegProgram returns a random Datalog¬ program over E/2, P/1 and
// Q/1, recursion through negation included (the interesting case for
// 3-valuedness), and a random E over three constants.
func randomNegProgram(rng *rand.Rand, u *value.Universe) (*ast.Program, *tuple.Instance) {
	vars := []string{"X", "Y"}
	preds := []struct {
		name  string
		arity int
	}{{"E", 2}, {"P", 1}, {"Q", 1}}
	atom := func() ast.Atom {
		p := preds[rng.Intn(len(preds))]
		args := make([]ast.Term, p.arity)
		for i := range args {
			args[i] = ast.V(vars[rng.Intn(len(vars))])
		}
		return ast.Atom{Pred: p.name, Args: args}
	}
	prog := &ast.Program{}
	for i := 0; i < 2+rng.Intn(3); i++ {
		// Body: one positive E atom (safety anchor) plus 0-2
		// literals of either polarity over P/Q.
		body := []ast.Literal{ast.PosLit(ast.Atom{Pred: "E", Args: []ast.Term{ast.V("X"), ast.V("Y")}})}
		for j := 0; j < rng.Intn(3); j++ {
			a := atom()
			if rng.Intn(2) == 0 {
				body = append(body, ast.Neg(a))
			} else {
				body = append(body, ast.PosLit(a))
			}
		}
		headPred := []string{"P", "Q"}[rng.Intn(2)]
		prog.Rules = append(prog.Rules, ast.Rule{
			Head: []ast.Literal{ast.PosLit(ast.Atom{Pred: headPred, Args: []ast.Term{ast.V(vars[rng.Intn(2)])}})},
			Body: body,
		})
	}
	consts := make([]value.Value, 3)
	for i := range consts {
		consts[i] = u.Sym(fmt.Sprintf("c%d", i))
	}
	in := tuple.NewInstance()
	in.Ensure("E", 2)
	for i := 0; i < 4; i++ {
		in.Insert("E", tuple.Tuple{consts[rng.Intn(3)], consts[rng.Intn(3)]})
	}
	return prog, in
}
