package value

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestSymInterning(t *testing.T) {
	u := New()
	a := u.Sym("a")
	b := u.Sym("b")
	if a == b {
		t.Fatalf("distinct symbols interned to same value")
	}
	if u.Sym("a") != a {
		t.Fatalf("re-interning a symbol changed its value")
	}
	if u.Kind(a) != KindSym {
		t.Fatalf("Kind(a) = %v, want sym", u.Kind(a))
	}
	if u.Name(a) != "a" || u.Name(b) != "b" {
		t.Fatalf("names not preserved: %q %q", u.Name(a), u.Name(b))
	}
	if u.Len() != 2 {
		t.Fatalf("Len = %d, want 2", u.Len())
	}
}

func TestIntInterning(t *testing.T) {
	u := New()
	v1 := u.Int(42)
	v2 := u.Int(-7)
	if v1 == v2 {
		t.Fatalf("distinct ints interned to same value")
	}
	if u.Int(42) != v1 {
		t.Fatalf("re-interning int changed value")
	}
	if n, ok := u.IntVal(v1); !ok || n != 42 {
		t.Fatalf("IntVal = %d,%v want 42,true", n, ok)
	}
	if u.Name(v2) != "-7" {
		t.Fatalf("Name(-7) = %q", u.Name(v2))
	}
	if _, ok := u.IntVal(u.Sym("x")); ok {
		t.Fatalf("IntVal succeeded on a symbol")
	}
}

func TestSymAndIntDistinct(t *testing.T) {
	u := New()
	s := u.Sym("7")
	i := u.Int(7)
	if s == i {
		t.Fatalf("symbol \"7\" and integer 7 collided")
	}
}

func TestFresh(t *testing.T) {
	u := New()
	a := u.Sym("a")
	f1 := u.Fresh()
	f2 := u.Fresh()
	if f1 == f2 || f1 == a || f2 == a {
		t.Fatalf("fresh values not distinct: %v %v %v", a, f1, f2)
	}
	if !u.IsFresh(f1) || u.IsFresh(a) {
		t.Fatalf("IsFresh misclassifies")
	}
	if u.FreshCount() != 2 {
		t.Fatalf("FreshCount = %d, want 2", u.FreshCount())
	}
	if u.Name(f1) != "$1" {
		t.Fatalf("Name(fresh) = %q, want $1", u.Name(f1))
	}
}

func TestLookup(t *testing.T) {
	u := New()
	if u.Lookup("missing") != None {
		t.Fatalf("Lookup of missing symbol should be None")
	}
	a := u.Sym("a")
	if u.Lookup("a") != a {
		t.Fatalf("Lookup(a) mismatch")
	}
	if u.LookupInt(5) != None {
		t.Fatalf("LookupInt of missing int should be None")
	}
	n := u.Int(5)
	if u.LookupInt(5) != n {
		t.Fatalf("LookupInt mismatch")
	}
}

func TestNoneInvalid(t *testing.T) {
	u := New()
	if u.Kind(None) != KindInvalid {
		t.Fatalf("Kind(None) = %v", u.Kind(None))
	}
	if u.Name(None) != "?" {
		t.Fatalf("Name(None) = %q", u.Name(None))
	}
}

func TestCompareOrdering(t *testing.T) {
	u := New()
	b := u.Sym("b")
	a := u.Sym("a")
	i1 := u.Int(1)
	i2 := u.Int(2)
	f := u.Fresh()
	// syms < ints < fresh
	pairs := []struct{ lo, hi Value }{{a, b}, {b, i1}, {i1, i2}, {i2, f}}
	for _, p := range pairs {
		if u.Compare(p.lo, p.hi) >= 0 {
			t.Errorf("Compare(%s,%s) = %d, want <0", u.Name(p.lo), u.Name(p.hi), u.Compare(p.lo, p.hi))
		}
		if u.Compare(p.hi, p.lo) <= 0 {
			t.Errorf("Compare(%s,%s) want >0", u.Name(p.hi), u.Name(p.lo))
		}
	}
	if u.Compare(a, a) != 0 {
		t.Errorf("Compare(a,a) != 0")
	}
}

func TestCompareTotalOrderProperty(t *testing.T) {
	u := New()
	var vals []Value
	for _, s := range []string{"x", "y", "z", "alpha", "beta"} {
		vals = append(vals, u.Sym(s))
	}
	for _, n := range []int64{-3, 0, 3, 100} {
		vals = append(vals, u.Int(n))
	}
	vals = append(vals, u.Fresh(), u.Fresh())

	// Antisymmetry and transitivity over the sample, checked via
	// quick with indexes into the sample.
	f := func(i, j, k uint8) bool {
		a := vals[int(i)%len(vals)]
		b := vals[int(j)%len(vals)]
		c := vals[int(k)%len(vals)]
		if u.Compare(a, b) != -u.Compare(b, a) {
			return false
		}
		if u.Compare(a, b) <= 0 && u.Compare(b, c) <= 0 && u.Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// liveHeap is the heap still in use after two collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSymKeepsNoText: the universe copies the names it interns, so a
// name sliced out of a large text (a parsed source) does not keep that
// text alive. Interning the last two bytes of sixteen 1 MB texts into
// a kept universe leaves under 64 KB live.
func TestSymKeepsNoText(t *testing.T) {
	u := New()
	before := liveHeap()
	for i := 0; i < 16; i++ {
		text := strings.Repeat("x", 1<<20) + string(rune('a'+i)) + "0"
		u.Sym(text[len(text)-2:])
	}
	if live := int64(liveHeap()) - int64(before); live >= 64<<10 {
		t.Fatalf("16 two-byte names sliced from 1 MB texts leave %d KB live, want < 64", live>>10)
	}
	if u.Len() != 16 || u.Name(u.Lookup("p0")) != "p0" {
		t.Fatalf("%d names, p0 = %q", u.Len(), u.Name(u.Lookup("p0")))
	}
}

// TestSymChunks: names longer than a chunk, and enough names to fill
// several, keep their texts and their values, in the universe and in
// its clones.
func TestSymChunks(t *testing.T) {
	u := New()
	long := strings.Repeat("l", 3*firstChunk)
	var names []string
	for i := 0; i < 5000; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
		if i%1000 == 0 {
			names = append(names, long+strconv.Itoa(i))
		}
	}
	vals := make([]Value, len(names))
	for i, n := range names {
		vals[i] = u.Sym(n)
	}
	c := u.Clone()
	cv := c.Sym("only-in-the-clone")
	uv := u.Sym("only-in-the-parent")
	for i, n := range names {
		if u.Sym(n) != vals[i] || u.Name(vals[i]) != n || c.Name(vals[i]) != n || c.Lookup(n) != vals[i] {
			t.Fatalf("name %d %.10q: value %d, names %.10q / %.10q", i, n, vals[i], u.Name(vals[i]), c.Name(vals[i]))
		}
	}
	if c.Name(cv) != "only-in-the-clone" || u.Name(uv) != "only-in-the-parent" || u.Lookup("only-in-the-clone") != None {
		t.Fatalf("clone %q, parent %q", c.Name(cv), u.Name(uv))
	}
}
