package declarative

// Soundness property: the well-founded result is a 3-valued model of
// the program under Kleene semantics — for every rule instantiation,
// truth(head) ≥ truth(body), where truth values are ordered
// False < Unknown < True, a body's truth is the minimum of its
// literals', and ¬ swaps True and False. This is checked by brute
// force over all instantiations, independently of the alternating
// fixpoint that computed the model.

import (
	"math/rand"
	"testing"

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
	dom := w.Domain()
	if len(dom) == 0 {
		t.Fatal("empty active domain: the model check would range over nothing")
	}
	for _, r := range p.Rules {
		vars := r.AppendVars(nil)
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
			for _, v := range dom {
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

// TestWFSIsThreeValuedModelOnRandomPrograms: the generated Datalog¬
// programs of 60 seeds.
func TestWFSIsThreeValuedModelOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p, in, u := generated(rand.New(rand.NewSource(seed)))
		w, err := EvalWellFounded(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !isThreeValuedModel(t, w, p) {
			t.Fatalf("seed %d: the well-founded model is not a 3-valued model of\n%s", seed, p.String(u))
		}
	}
}
