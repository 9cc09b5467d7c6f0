package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
	"unchained/programs"
)

// TestDomainFreeRulesNeverEnumerate holds the test engines use to skip
// the active domain (ReadsDomain) to what it promises: a rule it calls
// domain-free has no stepEnum and no stepForall in any schedule — its
// baseline, each delta variant, the head-pinned variant, and the
// planner's schedule of each of them over non-empty relations of
// different sizes. The rules are those of the corpus and of 600
// generated programs, every dialect in turn.
func TestDomainFreeRulesNeverEnumerate(t *testing.T) {
	var free, reads int
	check := func(name string, p *ast.Program, u *value.Universe) {
		t.Helper()
		rules, err := CompileProgram(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in := everyRelation(t, p, u)
		for i, r := range rules {
			if r.readsDomain() {
				reads++
				continue
			}
			free++
			where := fmt.Sprintf("%s, rule %d (%s)", name, i+1, r.Src.String(u))
			variants := []*Rule{r}
			for li := range r.lits {
				if r.lits[li].kind == ast.LitAtom {
					variants = append(variants, r.Delta(li))
				}
			}
			if len(r.heads) == 1 && !r.heads[0].Bottom {
				variants = append(variants, r.Delta(len(r.lits)))
			}
			for _, v := range variants {
				domainFree(t, where, v.deltaLit, v.schedule(v.DeltaLit(), nil, nil))
				ctx := &Ctx{In: in, DeltaLit: v.DeltaLit(), Delta: in}
				tab := ctx.table()
				tab.sync(ctx, v.prog)
				domainFree(t, where+", planned", v.deltaLit, v.schedule(v.DeltaLit(), ctx, tab))
			}
		}
	}
	for _, c := range programs.Cases {
		u := value.New()
		check(c.Program, parser.MustParse(programs.Source(c.Program), u), u)
	}
	for seed := int64(0); seed < 600; seed++ {
		u := value.New()
		d := ast.Dialects[int(seed)%len(ast.Dialects)]
		check(fmt.Sprintf("seed %d (%v)", seed, d), gen.Program(rand.New(rand.NewSource(seed)), u, d), u)
	}
	t.Logf("%d domain-free rules, %d that read the domain", free, reads)
	if free < 500 || reads < 500 {
		t.Fatalf("%d domain-free rules and %d that read the domain: too few of one kind to hold the test to anything", free, reads)
	}
}

// domainFree fails the test if steps enumerates the active domain.
func domainFree(t *testing.T, where string, pin int32, steps []step) {
	t.Helper()
	for _, st := range steps {
		if st.kind == stepEnum || st.kind == stepForall {
			t.Fatalf("%s, pinned at %d: a rule said to read no domain schedules step kind %d", where, pin, st.kind)
		}
	}
}

// everyRelation is an instance holding every relation of p, the i-th in
// name order with i+1 facts, so that the planner's estimates differ from
// one relation to the next.
func everyRelation(t *testing.T, p *ast.Program, u *value.Universe) *tuple.Instance {
	t.Helper()
	sch, err := p.Schema()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(sch))
	for name := range sch {
		names = append(names, name)
	}
	sort.Strings(names)
	in := tuple.NewInstance()
	for i, name := range names {
		rel := in.Ensure(name, sch[name])
		for j := 0; j <= i; j++ {
			tp := make(tuple.Tuple, sch[name])
			for k := range tp {
				tp[k] = u.Int(int64(j + k))
			}
			rel.Insert(tp)
		}
	}
	return in
}
