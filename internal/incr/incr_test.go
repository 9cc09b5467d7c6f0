package incr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"unchained/internal/engine"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/queries"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

func TestInsertPropagates(t *testing.T) {
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	in := parser.MustParseFacts(`G(a,b).`, u)
	v, err := Materialize(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := v.Insert("G", tuple.Tuple{u.Sym("b"), u.Sym("c")})
	if err != nil || !fresh {
		t.Fatalf("insert: %v %v", fresh, err)
	}
	if !v.Has("T", tuple.Tuple{u.Sym("a"), u.Sym("c")}) {
		t.Fatalf("T(a,c) not derived incrementally")
	}
	if !v.Instance().Equal(oracleRecompute(t, u, v)) {
		t.Fatalf("incremental state differs from recompute")
	}
	// Duplicate insert is a no-op.
	fresh, err = v.Insert("G", tuple.Tuple{u.Sym("b"), u.Sym("c")})
	if err != nil || fresh {
		t.Fatalf("duplicate insert: %v %v", fresh, err)
	}
}

func TestDeleteDRedChain(t *testing.T) {
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	in := gen.Chain(u, "G", 6)
	v, err := Materialize(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the chain in the middle: closure facts across the cut die.
	present, err := v.Delete("G", tuple.Tuple{u.Sym("n2"), u.Sym("n3")})
	if err != nil || !present {
		t.Fatalf("delete: %v %v", present, err)
	}
	if v.Has("T", tuple.Tuple{u.Sym("n0"), u.Sym("n5")}) {
		t.Fatalf("cross-cut closure fact survived")
	}
	if !v.Has("T", tuple.Tuple{u.Sym("n0"), u.Sym("n2")}) {
		t.Fatalf("left-side closure fact lost")
	}
	if !v.Instance().Equal(oracleRecompute(t, u, v)) {
		t.Fatalf("incremental state differs from recompute")
	}
}

func TestDeleteRederivesAlternatePaths(t *testing.T) {
	// Diamond: a->b->d and a->c->d. Deleting a->b must keep T(a,d)
	// (rederived through c).
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	in := parser.MustParseFacts(`G(a,b). G(b,d). G(a,c). G(c,d).`, u)
	v, err := Materialize(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Delete("G", tuple.Tuple{u.Sym("a"), u.Sym("b")}); err != nil {
		t.Fatal(err)
	}
	if !v.Has("T", tuple.Tuple{u.Sym("a"), u.Sym("d")}) {
		t.Fatalf("T(a,d) not rederived through the alternate path")
	}
	if v.Has("T", tuple.Tuple{u.Sym("a"), u.Sym("b")}) {
		t.Fatalf("T(a,b) survived deletion of its only support")
	}
	if !v.Instance().Equal(oracleRecompute(t, u, v)) {
		t.Fatalf("incremental state differs from recompute")
	}
}

func TestDeleteOnCycleRejectsSelfSupport(t *testing.T) {
	// The classic trap: on a cycle a->b->a, deleting a->b must also
	// delete T(a,a) and T(b,b) even though they "support each other" —
	// a proof check must not accept self-supporting loops.
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	in := parser.MustParseFacts(`G(a,b). G(b,a).`, u)
	v, err := Materialize(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Delete("G", tuple.Tuple{u.Sym("a"), u.Sym("b")}); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"a", "a"}, {"b", "b"}, {"a", "b"}} {
		if v.Has("T", tuple.Tuple{u.Sym(pair[0]), u.Sym(pair[1])}) {
			t.Fatalf("T(%s,%s) survived (self-supporting derivation accepted)", pair[0], pair[1])
		}
	}
	if !v.Has("T", tuple.Tuple{u.Sym("b"), u.Sym("a")}) {
		t.Fatalf("T(b,a) lost though G(b,a) remains")
	}
	if !v.Instance().Equal(oracleRecompute(t, u, v)) {
		t.Fatalf("incremental state differs from recompute")
	}
}

func TestUpdateRejectsIDB(t *testing.T) {
	u := value.New()
	p := parser.MustParse(queries.TC, u)
	v, err := Materialize(p, parser.MustParseFacts(`G(a,b).`, u), u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Insert("T", tuple.Tuple{u.Sym("a"), u.Sym("b")}); err == nil {
		t.Fatalf("IDB insert accepted")
	}
	if _, err := v.Delete("T", tuple.Tuple{u.Sym("a"), u.Sym("b")}); err == nil {
		t.Fatalf("IDB delete accepted")
	}
	if present, err := v.Delete("G", tuple.Tuple{u.Sym("z"), u.Sym("z")}); err != nil || present {
		t.Fatalf("absent delete: %v %v", present, err)
	}
}

// TestRandomUpdateSequencesMatchRecompute is the decisive property
// test: after arbitrary insert/delete sequences on random programs,
// the incrementally maintained state equals a from-scratch
// evaluation, and state and delta equal referenceDRed's.
func TestRandomUpdateSequencesMatchRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := value.New()
		// Random positive program over E (EDB) and I/J (IDB).
		// Vary the first rule's shape a little between runs (plain
		// copy vs swapped copy) while keeping it safe.
		first := `I(X,Y) :- E(X,Y).`
		if rng.Intn(2) == 0 {
			first = `I(Y,X) :- E(X,Y).`
		}
		p := parser.MustParse(first+`
			I(X,Y) :- E(X,Z), I(Z,Y).
			J(X) :- I(X,X).
			J(X) :- E(X,Y), J(Y).
		`, u)
		consts := make([]value.Value, 5)
		for i := range consts {
			consts[i] = u.Sym(fmt.Sprintf("c%d", i))
		}
		in := tuple.NewInstance()
		in.Ensure("E", 2)
		for i := 0; i < 6; i++ {
			in.Insert("E", tuple.Tuple{consts[rng.Intn(5)], consts[rng.Intn(5)]})
		}
		v, err := Materialize(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceView(t, u, v)
		for step := 0; step < 10; step++ {
			f := []Fact{{Pred: "E", Tuple: tuple.Tuple{consts[rng.Intn(5)], consts[rng.Intn(5)]}}}
			if rng.Intn(2) == 0 {
				applyBoth(t, u, v, ref, f, nil)
			} else {
				applyBoth(t, u, v, ref, nil, f)
			}
			if !v.Instance().Equal(oracleRecompute(t, u, v)) {
				t.Logf("seed %d step %d: state diverged\nstate:\n%s", seed, step, v.Instance().String(u))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentViews: views whose recursive layers differ in arity,
// updated from several goroutines at once, draw their deletion steps'
// run state from one pool, each rebinding what another left. Every view
// ends where recomputing its input does.
func TestConcurrentViews(t *testing.T) {
	programs := []string{
		"T(X,Y) :- E(X,Y).\nT(X,Y) :- E(X,Z), T(Z,Y).",
		"R(X) :- N(X).\nR(Y) :- R(X), E(X,Y).",
	}
	const n = 4
	us, views, errs := make([]*value.Universe, n), make([]*View, n), make([]error, n)
	for i := range views {
		us[i] = value.New()
		in := gen.Merge(gen.Random(us[i], "E", 8, 16, int64(i)), gen.Unary(us[i], "N", 2))
		v, err := Materialize(parser.MustParse(programs[i%len(programs)], us[i]), in, us[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			edges := views[i].Instance().Relation("E").SortedTuples(us[i])
			for j, e := range edges {
				assert, retract := []Fact(nil), []Fact{{Pred: "E", Tuple: e}}
				if j%3 == 2 {
					assert, retract = retract, nil // put one back now and then
				}
				if _, err := views[i].Apply(assert, retract); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, v := range views {
		if errs[i] != nil {
			t.Fatalf("view %d: %v", i, errs[i])
		}
		if !v.Instance().Equal(oracleRecompute(t, us[i], v)) {
			t.Fatalf("view %d diverged from recomputation:\n%s", i, v.Instance().String(us[i]))
		}
	}
}

// TestRederiveReadsFinalLowerLayer: one batch takes away the support a
// fact was derived from and opens the guard of the only other
// derivation. Rederivation runs after the lower layer is maintained, so
// it must see the guard open and put the fact back.
func TestRederiveReadsFinalLowerLayer(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`
		Closed(X) :- F(X,X).
		P(X,Y)    :- E(X,Y).
		P(X,Y)    :- P(X,Z), E(Z,Y), !Closed(Z).
	`, u)
	// P(a,d) holds through b; the way through c is closed.
	in := parser.MustParseFacts(`E(a,b). E(b,d). E(a,c). E(c,d). F(c,c).`, u)
	v, err := Materialize(p, in, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	fact := func(pred, x, y string) Fact { return Fact{Pred: pred, Tuple: tuple.Tuple{u.Sym(x), u.Sym(y)}} }
	d, err := v.Apply(nil, []Fact{fact("E", "b", "d"), fact("F", "c", "c")})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Has("P", fact("P", "a", "d").Tuple) {
		t.Fatal("P(a,d) lost: rederivation did not read the guard as the batch left it")
	}
	if d.Removed.Has("P", fact("P", "a", "d").Tuple) || !d.Removed.Has("P", fact("P", "b", "d").Tuple) {
		t.Fatalf("net delta wrong: removed\n%s", d.Removed.String(u))
	}
	if !v.Instance().Equal(oracleRecompute(t, u, v)) {
		t.Fatal("incremental state differs from recompute")
	}
}

// TestDeleteKeepsAcyclicProof: facts with one proof around a cycle and
// one off it. Retracting G(a,b) from G(a,b). G(b,a). G(c,a). breaks the
// cycle: T(c,a) keeps its proof by G(c,a), and T(c,b), whose one proof
// went through T(a,b), goes with it.
//
// In the second graph T(a,d) has proofs through b, c and e, and T(b,d)
// has one, through T(a,d). Retracting G(e,d) deletes T(e,d) and makes
// T(a,d) a candidate. When its check reaches T(b,d) before T(c,d),
// T(b,d) closes unproved, its one firing waiting on T(a,d), whose check
// is still open; T(c,d) is then proved by G(c,d), and the saturate step
// must carry that proof forward to T(a,d) and from there to T(b,d). The
// graph is built in both orders, so that whichever way the firings are
// enumerated one of them takes that path.
func TestDeleteKeepsAcyclicProof(t *testing.T) {
	for _, c := range []struct{ edges, retract string }{
		{`G(a,b). G(b,a). G(c,a).`, `G(a,b)`},
		{`G(a,b). G(a,c). G(b,a). G(c,d). G(a,e). G(e,d).`, `G(e,d)`},
		{`G(a,c). G(a,b). G(b,a). G(c,d). G(a,e). G(e,d).`, `G(e,d)`},
	} {
		u := value.New()
		p := parser.MustParse(queries.TC, u)
		v, err := Materialize(p, parser.MustParseFacts(c.edges, u), u, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceView(t, u, v)
		r := parser.MustParseFacts(c.retract+".", u).Relation("G").Tuples()[0]
		applyBoth(t, u, v, ref, nil, []Fact{{Pred: "G", Tuple: r}})
		if got, want := v.Instance().String(u), oracleRecompute(t, u, v).String(u); got != want {
			t.Fatalf("%s retract %s: view differs from recompute\ngot:\n%swant:\n%s", c.edges, c.retract, got, want)
		}
	}
}

// TestBatchRestoresDisprovedFact: in one batch the retract of G(b,c)
// takes T(a,c)'s only proof and the asserts of G(a,x) and G(x,c) give it
// a new one, through T(x,c), a fact only the insertion loop derives. The
// deletion step deletes T(a,c) and the insertion loop puts it back: it
// is in neither half of the net delta.
func TestBatchRestoresDisprovedFact(t *testing.T) {
	u := value.New()
	v, err := Materialize(parser.MustParse(queries.TC, u), parser.MustParseFacts(`G(a,b). G(b,c).`, u), u, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceView(t, u, v)
	g := func(x, y string) Fact { return Fact{Pred: "G", Tuple: tuple.Tuple{u.Sym(x), u.Sym(y)}} }
	d := applyBoth(t, u, v, ref, []Fact{g("a", "x"), g("x", "c")}, []Fact{g("b", "c")})
	ac := tuple.Tuple{u.Sym("a"), u.Sym("c")}
	if !v.Has("T", ac) || d.Added.Has("T", ac) || d.Removed.Has("T", ac) {
		t.Fatalf("T(a,c) should hold and be in neither half of the delta\nadded:\n%sremoved:\n%s", d.Added.String(u), d.Removed.String(u))
	}
	if !v.Instance().Equal(oracleRecompute(t, u, v)) {
		t.Fatal("incremental state differs from recompute")
	}
}

// TestDeleteReadsClosedGuard is TestRederiveReadsFinalLowerLayer with
// the guard closing: one batch takes away P(a,d)'s support through b
// and closes the guard on its way through c. The check runs after the
// lower layer is maintained, so it must see Closed(c) and find no proof.
func TestDeleteReadsClosedGuard(t *testing.T) {
	u := value.New()
	p := parser.MustParse(`
		Closed(X) :- F(X,X).
		P(X,Y)    :- E(X,Y).
		P(X,Y)    :- P(X,Z), E(Z,Y), !Closed(Z).
	`, u)
	// P(a,d) holds through b and through c.
	v, err := Materialize(p, parser.MustParseFacts(`E(a,b). E(b,d). E(a,c). E(c,d).`, u), u, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceView(t, u, v)
	fact := func(pred, x, y string) Fact { return Fact{Pred: pred, Tuple: tuple.Tuple{u.Sym(x), u.Sym(y)}} }
	d := applyBoth(t, u, v, ref, []Fact{fact("F", "c", "c")}, []Fact{fact("E", "b", "d")})
	if v.Has("P", fact("P", "a", "d").Tuple) || !d.Removed.Has("P", fact("P", "a", "d").Tuple) {
		t.Fatalf("P(a,d) survived: the check read the guard as it was before the batch\nremoved:\n%s", d.Removed.String(u))
	}
	if !v.Instance().Equal(oracleRecompute(t, u, v)) {
		t.Fatal("incremental state differs from recompute")
	}
}

// TestDeletionStagesFollowDepthNotFacts: every layer runs one loop of
// deletion waves and one semi-naive loop per batch, so a batch costs a
// number of stages set by how far its changes propagate, however many
// facts are checked on the way.
func TestDeletionStagesFollowDepthNotFacts(t *testing.T) {
	stagesOf := func(v *View, assert, retract []Fact) int {
		t.Helper()
		before := v.Stats.Summary().Stages
		if _, err := v.Apply(assert, retract); err != nil {
			t.Fatal(err)
		}
		return v.Stats.Summary().Stages - before
	}

	// The self-supporting cycle, its support retracted and asserted
	// again. Retracting G(a,b): a wave checks T(a,b) and T(a,a), the heads
	// of the firings through G(a,b), finds no firing of either and
	// deletes both; a wave checks T(b,b) and T(b,a), the heads of the
	// firings through those, proves T(b,a) by G(b,a) and deletes T(b,b),
	// through which nothing fires; then a round with no gain to fire.
	// Asserting it again: a wave with nothing to check; then rounds adding
	// {T(a,b), T(a,a)}, {T(b,b)} and nothing.
	u := value.New()
	v, err := Materialize(parser.MustParse(queries.TC, u), parser.MustParseFacts(`G(a,b). G(b,a).`, u), u,
		&engine.Options{Stats: stats.New()})
	if err != nil {
		t.Fatal(err)
	}
	ab := []Fact{{Pred: "G", Tuple: tuple.Tuple{u.Sym("a"), u.Sym("b")}}}
	if n := stagesOf(v, nil, ab); n != 2+1 {
		t.Errorf("retracting the cycle's support took %d stages, want 2 waves + 1 round", n)
	}
	if n := stagesOf(v, ab, nil); n != 1+3 {
		t.Errorf("asserting it again took %d stages, want 1 wave + 3 rounds", n)
	}
	if !v.Instance().Equal(oracleRecompute(t, u, v)) {
		t.Fatal("incremental state differs from recompute")
	}

	// The dense graph. T's waves and rounds each end one past the longest
	// chain of firings, which no shortest path over 60 nodes exceeds.
	// Unreach above reads no fact of its own layer: one wave checks the
	// candidates and gathers none, a round adds what the gains derive and
	// a round with no variant to fire ends the loop.
	dense, ops, _ := denseGraph(t, &engine.Options{Stats: stats.New()})
	for i, op := range ops {
		if n := stagesOf(dense, op[0], op[1]); n > 2*(60+1)+1+2 {
			t.Errorf("batch %d took %d stages", i, n)
		}
	}
}

// TestDeletesWhatLeaves: on the dense graph a batch deletes from T about
// what leaves the model, and the view moves in step with referenceDRed.
// Delete–rederive deleted 1 956 of T's 2 134 facts a batch there, to
// remove 129.
func TestDeletesWhatLeaves(t *testing.T) {
	col := stats.New()
	v, ops, u := denseGraph(t, &engine.Options{Stats: col})
	ref := referenceView(t, u, v)
	deleted, removed := 0, 0
	for _, op := range ops {
		d := applyBothBy(t, u, v, countDeletions("T", col, &deleted), ref, op[0], op[1])
		if r := d.Removed.Relation("T"); r != nil {
			removed += r.Len()
		}
	}
	n := float64(len(ops))
	t.Logf("per batch: %.1f facts deleted from T, %.1f removed", float64(deleted)/n, float64(removed)/n)
	if deleted > 2*removed {
		t.Errorf("deleted %d facts from T over %d batches to remove %d, want at most twice that", deleted, len(ops), removed)
	}
}

// TestLossSeedReadsPreBatchState: a batch takes away a firing through
// two of its body facts at once. The loss seed matches the firing with
// one changed fact pinned and the other read where the batch found it;
// read as the batch left it, neither pin completes the firing, and P(a)
// would outlive its last proof.
func TestLossSeedReadsPreBatchState(t *testing.T) {
	for _, c := range []struct {
		name, program, facts string
		assert, retract      string
	}{
		{"both-retracted", `P(X) :- A(X), B(X).`, `A(a). B(a).`, ``, `A(a). B(a).`},
		{"support-retracted-guard-asserted", `P(X) :- A(X), !B(X).`, `A(a).`, `B(a).`, `A(a).`},
	} {
		t.Run(c.name, func(t *testing.T) {
			u := value.New()
			v, err := Materialize(parser.MustParse(c.program, u), parser.MustParseFacts(c.facts, u), u, nil)
			if err != nil {
				t.Fatal(err)
			}
			facts := func(src string) []Fact {
				var fs []Fact
				parser.MustParseFacts(src, u).EachRel(func(pred string, r *tuple.Relation) {
					for _, tup := range r.SortedTuples(u) {
						fs = append(fs, Fact{Pred: pred, Tuple: tup})
					}
				})
				return fs
			}
			d := applyBoth(t, u, v, referenceView(t, u, v), facts(c.assert), facts(c.retract))
			if pa := (tuple.Tuple{u.Sym("a")}); v.Has("P", pa) || !d.Removed.Has("P", pa) {
				t.Errorf("P(a) survived or is missing from the delta\nremoved:\n%s", d.Removed.String(u))
			}
			if !v.Instance().Equal(oracleRecompute(t, u, v)) {
				t.Error("incremental state differs from recompute")
			}
		})
	}
}

// TestBatchesWriteInPlace: a view copies none of its relations to
// maintain them. Once the batches have written each relation the view
// shares with the caller's input, they promote nothing more; with a
// snapshot held across ten batches, each relation they write is
// promoted once, and the snapshot stays as it was taken.
func TestBatchesWriteInPlace(t *testing.T) {
	col := stats.New()
	v, ops, u := denseGraph(t, &engine.Options{Stats: col})
	promotions := func() uint64 { return col.Cow().Load().Promotions }
	for _, op := range ops { // the first write to a relation shared with the input copies it
		if _, err := v.Apply(op[0], op[1]); err != nil {
			t.Fatal(err)
		}
	}
	base := promotions()
	for _, op := range ops {
		if _, err := v.Apply(op[0], op[1]); err != nil {
			t.Fatal(err)
		}
	}
	if n := promotions() - base; n != 0 {
		t.Fatalf("%d batches with no snapshot held promoted %d relations, want 0", len(ops), n)
	}

	snap := v.Snapshot()
	want := snap.String(u)
	base = promotions()
	written := map[string]bool{}
	for _, op := range ops[:10] {
		d, err := v.Apply(op[0], op[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []*tuple.Instance{d.Added, d.Removed} {
			in.EachRel(func(pred string, r *tuple.Relation) { written[pred] = written[pred] || !r.Empty() })
		}
	}
	if got := snap.String(u); got != want {
		t.Fatalf("the held snapshot changed under ten batches\ngot:\n%swant:\n%s", got, want)
	}
	moved := 0
	for _, pred := range v.Instance().Names() {
		switch g := v.Instance().Relation(pred).Generation() - snap.Relation(pred).Generation(); {
		case g > 1:
			t.Errorf("%s promoted %d times under one snapshot, want once", pred, g)
		case g == 1:
			moved++
		case written[pred]:
			t.Errorf("%s changed but was not promoted", pred)
		}
	}
	if n := promotions() - base; n != uint64(moved) || moved == 0 {
		t.Errorf("ten batches promoted %d times, %d relations moved: want one promotion for each", n, moved)
	}
}
