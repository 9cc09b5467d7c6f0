package opt

import (
	"fmt"
	"strings"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/parser"
	"unchained/internal/stratify"
	"unchained/internal/value"
)

func mustOpt(t *testing.T, src string, o *Options) (*Result, *value.Universe) {
	t.Helper()
	u := value.New()
	p := parser.MustParse(src, u)
	return Optimize(p, u, o), u
}

func render(p *ast.Program, u *value.Universe) string { return p.String(u) }

func TestConstpropSubstitutesAndFolds(t *testing.T) {
	res, u := mustOpt(t, "p(X) :- e(X,Y), Y = a.\n", &Options{Level: O2, NoInline: true})
	if !res.Changed {
		t.Fatalf("expected a rewrite")
	}
	got := render(res.Program, u)
	want := "p(X) :- e(X,a).\n"
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	if len(res.RequiresEmptyInput) != 0 {
		t.Fatalf("constprop must not assume emptiness: %v", res.RequiresEmptyInput)
	}
}

func TestConstpropDropsDuplicates(t *testing.T) {
	var long, longDup strings.Builder // past the size at which dedupe hashes
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&long, ", e(X,Y%d)", i)
	}
	longDup.WriteString(long.String() + ", e(X,Y7)")
	for _, c := range []struct{ src, want string }{
		{"p(X) :- e(X,Y), e(X,Y).", "p(X) :- e(X,Y)."},
		{"p(X) :- e(X,Y), X != Y, Y != X.", "p(X) :- e(X,Y), X != Y."},
		{"p(X) :- e(X), forall Y (!f(X,Y)), forall Y (!f(X,Y)).", "p(X) :- e(X), forall Y (!f(X,Y))."},
		{"p(X) :- e(X), forall Y (!f(X,Y)), forall Z (!f(X,Z)).", ""},
		{"p(X) :- e(X,Y), !e(X,Y).", ""},
		{"p(X) :- q(X)" + longDup.String() + ".", "p(X) :- q(X)" + long.String() + "."},
		{"p(X) :- q(X)" + long.String() + ".", ""},
	} {
		res, u := mustOpt(t, c.src+"\n", &Options{Level: O2, NoInline: true})
		want := c.want
		if want == "" {
			want = c.src // nothing repeats
		}
		if got := render(res.Program, u); got != want+"\n" {
			t.Errorf("%s: got %q, want %q", c.src, got, want)
		}
	}
}

func TestConstpropVarVar(t *testing.T) {
	res, u := mustOpt(t, "p(X,Y) :- e(X), f(Y), X = Y.\n", &Options{Level: O2, NoInline: true})
	got := render(res.Program, u)
	// X substituted for Y (or vice versa); both occurrences collapse.
	if strings.Contains(got, "=") || strings.Count(got, "X")+strings.Count(got, "Y") == 0 {
		t.Fatalf("equality not eliminated: %q", got)
	}
}

func TestDeadUnsatRemoved(t *testing.T) {
	res, u := mustOpt(t, "p(X) :- e(X), a = b.\nq(X) :- e(X).\n", &Options{Level: O2, NoInline: true})
	got := render(res.Program, u)
	if got != "q(X) :- e(X).\n" {
		t.Fatalf("got %q", got)
	}
	if res.RulesRemoved != 1 {
		t.Fatalf("RulesRemoved = %d, want 1", res.RulesRemoved)
	}
	// p lost its only rule: the default answer restriction would no
	// longer print p's input facts, so emptiness must be assumed.
	if len(res.RequiresEmptyInput) != 1 || res.RequiresEmptyInput[0] != "p" {
		t.Fatalf("RequiresEmptyInput = %v, want [p]", res.RequiresEmptyInput)
	}
}

func TestDeadUnderivable(t *testing.T) {
	src := "p(X) :- ghost(X), e(X).\nghost(X) :- phantom(X), ghost2(X).\nghost2(X) :- ghost(X).\nphantom(X) :- phantom(X).\nq(X) :- e(X).\n"
	res, u := mustOpt(t, src, &Options{Level: O2, NoInline: true})
	got := render(res.Program, u)
	if got != "q(X) :- e(X).\n" {
		t.Fatalf("got %q", got)
	}
	want := []string{"ghost", "ghost2", "p", "phantom"}
	if strings.Join(res.RequiresEmptyInput, ",") != strings.Join(want, ",") {
		t.Fatalf("RequiresEmptyInput = %v, want %v", res.RequiresEmptyInput, want)
	}
}

func TestDeadUnderivableNoAssume(t *testing.T) {
	src := "p(X) :- ghost(X).\nghost(X) :- ghost(X).\n"
	res, _ := mustOpt(t, src, &Options{Level: O2, NoAssume: true})
	if res.Changed {
		t.Fatalf("NoAssume must disable underivable elimination: %v", res.Rewrites)
	}
}

func TestSubsumeDuplicateAndInstance(t *testing.T) {
	// Rule 2 is an exact variant of rule 1; rule 3 is an instance
	// (strictly less general). Both are subsumed by rule 1.
	src := "p(X,Y) :- e(X,Y).\np(A,B) :- e(A,B).\np(X,a) :- e(X,a), f(X).\nq(X) :- e(X,X).\n"
	res, u := mustOpt(t, src, &Options{Level: O2, NoInline: true})
	got := render(res.Program, u)
	want := "p(X,Y) :- e(X,Y).\nq(X) :- e(X,X).\n"
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	if len(res.RequiresEmptyInput) != 0 {
		t.Fatalf("subsumption must not assume emptiness (head pred keeps a rule): %v", res.RequiresEmptyInput)
	}
}

func TestSubsumeRespectsNegation(t *testing.T) {
	src := "p(X) :- e(X), !f(X).\np(X) :- e(X), f(X).\n"
	res, _ := mustOpt(t, src, &Options{Level: O2, NoInline: true})
	if res.Changed {
		t.Fatalf("opposite polarities must not subsume: %v", res.Rewrites)
	}
}

func TestInlineSingleRulePredicate(t *testing.T) {
	src := "mid(X,Y) :- e(X,Z), e(Z,Y).\np(X,Y) :- mid(X,Y), f(Y).\n"
	res, u := mustOpt(t, src, &Options{Level: O2})
	got := render(res.Program, u)
	if !strings.Contains(got, "p(X,Y) :- e(X,") {
		t.Fatalf("call site not inlined:\n%s", got)
	}
	// The defining rule stays (mid is still observable).
	if !strings.Contains(got, "mid(X,Y) :- e(X,Z), e(Z,Y).") {
		t.Fatalf("defining rule dropped:\n%s", got)
	}
	if strings.Join(res.RequiresEmptyInput, ",") != "mid" {
		t.Fatalf("RequiresEmptyInput = %v, want [mid]", res.RequiresEmptyInput)
	}
}

func TestInlineFreshNamesAvoidCallerVariables(t *testing.T) {
	// X's first fresh name, X_i1, is the caller's: X takes X_i2, and Y
	// the next counter value.
	res, u := mustOpt(t, "mid(X) :- e(X,Y).\np(X_i1) :- mid(X_i1), f(X_i1).\n", &Options{Level: O2})
	if got := render(res.Program, u); !strings.Contains(got, "p(X_i1) :- e(X_i1,Y_i3), f(X_i1).") {
		t.Fatalf("got:\n%s", got)
	}
}

func TestInlineConstantHeadSpecializes(t *testing.T) {
	src := "red(X) :- color(X,r).\np(X) :- red(X), e(X).\n"
	res, u := mustOpt(t, src, &Options{Level: O2})
	got := render(res.Program, u)
	if !strings.Contains(got, "p(X) :- color(X,r), e(X).") {
		t.Fatalf("constant not propagated through inline:\n%s", got)
	}
}

func TestInlineSkipsRecursive(t *testing.T) {
	src := "tc(X,Y) :- e(X,Y).\np(X,Y) :- tc(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\n"
	res, _ := mustOpt(t, src, &Options{Level: O2})
	for _, rw := range res.Rewrites {
		if rw.Pass == "inline" {
			t.Fatalf("recursive predicate inlined: %v", res.Rewrites)
		}
	}
}

func TestInlineSkipsNegatedDefinition(t *testing.T) {
	src := "odd(X) :- node(X), !even(X).\np(X) :- odd(X).\neven(X) :- base(X).\n"
	res, _ := mustOpt(t, src, &Options{Level: O2, Roots: nil})
	for _, rw := range res.Rewrites {
		if rw.Pass == "inline" && strings.Contains(rw.Note, "inlined odd") {
			t.Fatalf("negation-bearing rule inlined: %v", res.Rewrites)
		}
	}
}

func TestInlineDisabled(t *testing.T) {
	src := "mid(X,Y) :- e(X,Z), e(Z,Y).\np(X,Y) :- mid(X,Y).\n"
	res, _ := mustOpt(t, src, &Options{Level: O2, NoInline: true})
	for _, rw := range res.Rewrites {
		if rw.Pass == "inline" {
			t.Fatalf("NoInline ignored: %v", res.Rewrites)
		}
	}
}

func TestRootsElimination(t *testing.T) {
	src := "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\nexpensive(X,Y) :- tc(X,Z), tc(Z,Y), tc(Y,X).\n"
	res, u := mustOpt(t, src, &Options{Level: O2, Roots: []string{"tc"}})
	got := render(res.Program, u)
	if strings.Contains(got, "expensive") {
		t.Fatalf("unreachable rule kept:\n%s", got)
	}
	// expensive left the IDB, but it is unreachable from the roots:
	// the caller promised not to observe it, so no assumption needed.
	if len(res.RequiresEmptyInput) != 0 {
		t.Fatalf("RequiresEmptyInput = %v, want empty", res.RequiresEmptyInput)
	}
}

func TestRootsKeepSupportingRules(t *testing.T) {
	src := "ans(X) :- tc(X,X).\ntc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\n"
	res, u := mustOpt(t, src, &Options{Level: O2, Roots: []string{"ans"}})
	got := render(res.Program, u)
	if !strings.Contains(got, "tc(X,Y)") {
		t.Fatalf("supporting rules removed:\n%s", got)
	}
}

func TestO0IsIdentity(t *testing.T) {
	u := value.New()
	p := parser.MustParse("p(X) :- e(X), a = b.\n", u)
	res := Optimize(p, u, &Options{Level: O0})
	if res.Changed || res.Program != p {
		t.Fatalf("O0 must return the program unchanged")
	}
}

func TestInputProgramNotMutated(t *testing.T) {
	u := value.New()
	src := "mid(X,Y) :- e(X,Z), e(Z,Y), Z = a.\np(X,Y) :- mid(X,Y), mid(X,Y).\ndead(X) :- e(X), b = c.\n"
	p := parser.MustParse(src, u)
	before := p.String(u)
	Optimize(p, u, &Options{Level: O2, Roots: []string{"p"}})
	if after := p.String(u); after != before {
		t.Fatalf("input program mutated:\nbefore: %swas: %s", before, after)
	}
}

func TestInventRuleNotSubstituted(t *testing.T) {
	// N is head-only (invented): the body valuation layout keys fresh
	// value allocation, so the X = a binding must stay untouched.
	src := "succ(X,N) :- num(X), X = a.\n"
	res, u := mustOpt(t, src, &Options{Level: O2, NoInline: true})
	got := render(res.Program, u)
	if !strings.Contains(got, "=") {
		t.Fatalf("invent rule was substituted:\n%s", got)
	}
	_ = res
}

func TestOpportunities(t *testing.T) {
	u := value.New()
	src := "mid(X,Y) :- e(X,Z), e(Z,Y).\np(X,Y) :- mid(X,Y).\ndead(X) :- e(X), a = b.\nq(X) :- e(X).\nq(X) :- e(X).\n"
	p := parser.MustParse(src, u)
	ix := ast.NewIndex(p)
	diags := Opportunities(ix, stratify.NewGraph(ix))
	var codes []string
	for _, d := range diags {
		codes = append(codes, d.Code)
	}
	joined := strings.Join(codes, ",")
	if !strings.Contains(joined, "I005") {
		t.Fatalf("missing I005: %v", diags)
	}
	if strings.Count(joined, "I006") != 2 {
		t.Fatalf("want two I006 (unsat + duplicate): %v", diags)
	}
}

func TestDiagnosticsSortedAndCoded(t *testing.T) {
	res, _ := mustOpt(t, "dead(X) :- e(X), a = b.\np(X) :- e(X), X = c.\n", &Options{Level: O2, NoInline: true})
	if len(res.Diags) == 0 {
		t.Fatalf("no diagnostics emitted")
	}
	for _, d := range res.Diags {
		if d.Severity != ast.SevInfo || !strings.HasPrefix(d.Code, "O") {
			t.Fatalf("bad diagnostic %+v", d)
		}
	}
}

// TestDomainGuardSuppressesConstantDroppingRewrites pins the
// soundness condition the differential fuzzer found: removing a
// subsumed rule removed a constant, shrank the active domain, and
// changed the model of a rule with unsafe negation. When the program
// enumerates the active domain, constant-changing rewrites must be
// discarded wholesale.
func TestDomainGuardSuppressesConstantDroppingRewrites(t *testing.T) {
	src := "p(X) :- e(X).\n" +
		"p(X) :- e(X), e(c).\n" + // subsumed by rule 1; removal would drop constant c
		"d(X) :- !q(X).\n" // X enumerates adom — constant set is observable
	res, u := mustOpt(t, src, &Options{Level: O2, NoInline: true})
	if res.Changed {
		t.Fatalf("rewrites not discarded; got %q", render(res.Program, u))
	}
	if got := render(res.Program, u); !strings.Contains(got, "e(c)") {
		t.Fatalf("constant-carrying rule removed: %q", got)
	}
	found := false
	for _, d := range res.Diags {
		if d.Code == CodeDomainGuard {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s diagnostic recorded: %+v", CodeDomainGuard, res.Diags)
	}
}

// TestDomainGuardAllowsConstantPreservingRewrites: the guard keys on
// the constant set, not on mere domain sensitivity — rewrites that
// leave the set unchanged still apply to domain-sensitive programs.
func TestDomainGuardAllowsConstantPreservingRewrites(t *testing.T) {
	src := "p(X) :- e(X), e(X).\n" + // duplicate literal, no constants involved
		"d(X) :- !q(X).\n"
	res, u := mustOpt(t, src, &Options{Level: O2, NoInline: true})
	if !res.Changed {
		t.Fatalf("constant-preserving rewrite suppressed: %q", render(res.Program, u))
	}
	if got := render(res.Program, u); strings.Contains(got, "e(X), e(X)") {
		t.Fatalf("duplicate literal not dropped: %q", got)
	}
}

// TestDomainSensitiveDetection spot-checks the classifier.
func TestDomainSensitiveDetection(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"p(X) :- e(X).\n", false},
		{"p(X) :- X = a.\n", false},         // eq-assignment binds X without the domain
		{"p(X,Y) :- e(X), X = Y.\n", false}, // var-var chain rooted in a bound var
		{"d(X) :- !q(X).\n", true},          // unsafe negation enumerates adom
		{"d(X) :- e(Y), X != Y.\n", true},   // inequality cannot bind X
	}
	u := value.New()
	for _, c := range cases {
		p := parser.MustParse(c.src, u)
		if got := domainSensitive(p); got != c.want {
			t.Errorf("domainSensitive(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}
