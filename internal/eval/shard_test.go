package eval

import (
	"fmt"
	"sort"
	"testing"

	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// shardFixture builds one semi-naive delta round of transitive
// closure: E is the edge relation inside the current instance, T holds
// the closed facts so far, and delta carries the frontier derived last
// round. Returns the delta variant for "T(X,Z) :- E(X,Y), T(Y,Z)."
// with the T literal pinned to the delta.
func shardFixture(t *testing.T, n int) (*value.Universe, []DeltaVariant, *Ctx, *tuple.Instance) {
	t.Helper()
	u := value.New()
	in := tuple.NewInstance()
	delta := tuple.NewInstance()
	for i := 0; i < n; i++ {
		a := u.Sym(fmt.Sprintf("n%d", i))
		b := u.Sym(fmt.Sprintf("n%d", (i+1)%n))
		in.Insert("E", tuple.Tuple{a, b})
		in.Insert("T", tuple.Tuple{a, b})
		delta.Insert("T", tuple.Tuple{a, b})
	}
	r, err := parser.ParseRule("T(X,Z) :- E(X,Y), T(Y,Z).", u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	dv := cr.Delta(1)
	base := &Ctx{In: in, Adom: ActiveDomain(u, nil, in)}
	return u, []DeltaVariant{{Rule: dv, Index: -1}}, base, delta
}

// collectSharded runs one RunSharded round over a fresh partition of
// delta and returns the facts it handed back, rendered and sorted, with
// the emitted-fact count. Every fact must sit in the part its hash
// names and the parts must share one schema: the result is the next
// round's partitioned delta.
func collectSharded(t *testing.T, u *value.Universe, variants []DeltaVariant, base *Ctx, delta *tuple.Instance, shards int) ([]string, uint64) {
	t.Helper()
	parts, emitted := RunSharded(variants, base, delta.Partition(shards))
	var got []string
	for s, part := range parts {
		if a, b := fmt.Sprint(part.Names()), fmt.Sprint(parts[0].Names()); a != b {
			t.Errorf("part %d has relations %s, part 0 %s: the parts must share one schema", s, a, b)
		}
		part.EachRel(func(name string, r *tuple.Relation) {
			r.Each(func(tp tuple.Tuple) bool {
				if tp.Shard(len(parts)) != s {
					t.Errorf("%s%s handed back in part %d of %d", name, tp.String(u), s, len(parts))
				}
				got = append(got, name+tp.String(u))
				return true
			})
		})
	}
	sort.Strings(got)
	return got, emitted
}

// serialRound is the reference: the variants fired on one goroutine
// over the whole delta into a Staging, as the serial engine does; the
// facts it stages go into a snapshot of In, which In does not see.
func serialRound(u *value.Universe, variants []DeltaVariant, base *Ctx, delta *tuple.Instance) ([]string, uint64) {
	st := NewStaging(base.In.Snapshot())
	emitted := uint64(0)
	for _, v := range variants {
		ctx := *base
		ctx.Delta, ctx.DeltaLit = delta, v.Rule.DeltaLit()
		v.Rule.Fire(&ctx, -1, nil, func(f Fact) bool {
			emitted++
			return st.Emit(f)
		})
	}
	st.Fold()
	var got []string
	st.Delta.EachRel(func(name string, r *tuple.Relation) {
		for _, tp := range r.Tuples() {
			got = append(got, name+tp.String(u))
		}
	})
	sort.Strings(got)
	return got, emitted
}

// TestRunShardedMatchesSerial is the round's unit test: at 1, 2 and 8
// shards the facts handed back — each once, in the part its hash names,
// none that In already holds — must be the facts the serial round
// stages, and the emitted count must be the serial round's: every delta
// tuple lives on exactly one shard, so shards neither overlap nor drop
// work.
func TestRunShardedMatchesSerial(t *testing.T) {
	u, variants, base, delta := shardFixture(t, 64)
	// One fact of the round is already known: it is emitted, not staged.
	base.In.Insert("T", tuple.Tuple{u.Sym("n0"), u.Sym("n2")})
	ref, refEmitted := serialRound(u, variants, base, delta)
	if len(ref) != 63 || refEmitted != 64 {
		t.Fatalf("fixture staged %d facts of %d emitted, want 63 of 64", len(ref), refEmitted)
	}
	for _, shards := range []int{1, 2, 8} {
		got, emitted := collectSharded(t, u, variants, base, delta, shards)
		if emitted != refEmitted {
			t.Errorf("shards=%d emitted %d facts, serial %d — shards overlap or drop work", shards, emitted, refEmitted)
		}
		if len(got) != len(ref) {
			t.Fatalf("shards=%d handed back %d facts, serial staged %d", shards, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("shards=%d fact %d = %s, serial %s", shards, i, got[i], ref[i])
			}
		}
	}
}

// TestRunShardedCancelled closes Done before the round starts: workers
// must notice at their first poll (every 256 firings; each of the 8 has
// about 512 to do), the call must join them and return, and the base
// context must report the stop. Partial output is acceptable; a hang or
// a full round is not.
func TestRunShardedCancelled(t *testing.T) {
	u, variants, base, delta := shardFixture(t, 4096)
	done := make(chan struct{})
	close(done)
	base.Done = done
	_, emitted := collectSharded(t, u, variants, base, delta, 8)
	if emitted >= 4096 {
		t.Fatalf("cancelled round emitted %d facts, the full round 4096", emitted)
	}
	if !base.Stopped() {
		t.Fatal("the base context does not report the stopped round")
	}
}

// TestRunShardedDegenerateParts pins the edges: a shard count of zero
// partitions into one part, which runs as the serial round does, and no
// parts at all is an empty round, not a panic.
func TestRunShardedDegenerateParts(t *testing.T) {
	u, variants, base, delta := shardFixture(t, 16)
	ref, _ := serialRound(u, variants, base, delta)
	got, _ := collectSharded(t, u, variants, base, delta, 0)
	if len(got) != len(ref) {
		t.Fatalf("one-part run handed back %d facts, serial %d", len(got), len(ref))
	}
	if parts, emitted := RunSharded(variants, base, nil); len(parts) != 0 || emitted != 0 {
		t.Fatalf("empty partition: %d parts, %d emitted", len(parts), emitted)
	}
}

// TestRunShardedNegInSnapshot exercises the NegIn snapshot path with a
// stratified-shape rule reading a negated literal.
func TestRunShardedNegInSnapshot(t *testing.T) {
	u := value.New()
	in := tuple.NewInstance()
	negIn := tuple.NewInstance()
	delta := tuple.NewInstance()
	for i := 0; i < 32; i++ {
		a := u.Sym(fmt.Sprintf("n%d", i))
		in.Insert("P", tuple.Tuple{a})
		delta.Insert("P", tuple.Tuple{a})
		if i%2 == 0 {
			negIn.Insert("Q", tuple.Tuple{a})
		}
	}
	negIn.Ensure("Q", 1)
	r, err := parser.ParseRule("R(X) :- P(X), !Q(X).", u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	dv := cr.Delta(0)
	variants := []DeltaVariant{{Rule: dv, Index: -1}}
	base := &Ctx{In: in, NegIn: negIn, Adom: ActiveDomain(u, nil, in)}
	got, _ := collectSharded(t, u, variants, base, delta, 4)
	if len(got) != 16 {
		t.Fatalf("want 16 facts (odd-indexed P's), got %d: %v", len(got), got)
	}
}
