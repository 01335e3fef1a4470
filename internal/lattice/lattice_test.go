package lattice

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func mustChain(t *testing.T, names ...string) *Lattice {
	t.Helper()
	l, err := Chain(names...)
	if err != nil {
		t.Fatalf("Chain(%v): %v", names, err)
	}
	return l
}

// lawLattices are the lattices the law tests run over: Taint and the
// chains of length 1 through 8.
func lawLattices(t *testing.T) []*Lattice {
	lats := []*Lattice{Taint()}
	for n := 1; n <= 8; n++ {
		names := make([]string, n)
		for i := range names {
			names[i] = "l" + strconv.Itoa(i)
		}
		lats = append(lats, mustChain(t, names...))
	}
	return lats
}

func TestTaintLattice(t *testing.T) {
	l := Taint()
	if l.Size() != 2 {
		t.Fatalf("Size = %d, want 2", l.Size())
	}
	u, ok := l.Lookup(UntaintedName)
	if !ok {
		t.Fatalf("Lookup(%q) failed", UntaintedName)
	}
	ta, ok := l.Lookup(TaintedName)
	if !ok {
		t.Fatalf("Lookup(%q) failed", TaintedName)
	}
	if l.Bottom() != u {
		t.Errorf("Bottom = %v, want untainted", l.Name(l.Bottom()))
	}
	if l.Top() != ta {
		t.Errorf("Top = %v, want tainted", l.Name(l.Top()))
	}
	if !l.Lt(u, ta) {
		t.Errorf("want untainted < tainted")
	}
	if l.Lt(ta, u) {
		t.Errorf("tainted < untainted should be false")
	}
	if got := l.Join(u, ta); got != ta {
		t.Errorf("Join(u,t) = %v, want tainted", l.Name(got))
	}
}

func TestChainOrder(t *testing.T) {
	l := mustChain(t, "a", "b", "c", "d")
	a, _ := l.Lookup("a")
	b, _ := l.Lookup("b")
	c, _ := l.Lookup("c")
	d, _ := l.Lookup("d")
	if l.Bottom() != a || l.Top() != d {
		t.Fatalf("bounds = %v,%v want a,d", l.Name(l.Bottom()), l.Name(l.Top()))
	}
	if !l.Leq(a, c) || !l.Leq(b, b) || l.Leq(c, b) {
		t.Errorf("chain order wrong")
	}
	if l.Join(b, c) != c || l.Join(d, a) != d {
		t.Errorf("chain join wrong")
	}
	if _, ok := l.Lookup("e"); ok {
		t.Errorf("Lookup found an element the chain does not declare")
	}
}

// Chain builds every lattice, so its errors are the builder's.
func TestBuilderRejectsDuplicate(t *testing.T) {
	if _, err := Chain("x", "x"); err == nil {
		t.Fatalf("Chain accepted a duplicate element name")
	}
	if _, err := Chain("x", "y", "x"); err == nil {
		t.Fatalf("Chain accepted a non-adjacent duplicate element name")
	}
}

// A chain's covering relation is its order, so no cover can be malformed;
// the empty chain is the one input left to reject.
func TestBuilderRejectsEmptyAndBadCovers(t *testing.T) {
	if _, err := Chain(); err == nil {
		t.Fatalf("Chain accepted no elements")
	}
}

func TestDownStrict(t *testing.T) {
	l := mustChain(t, "bot", "mid", "top")
	bo, _ := l.Lookup("bot")
	mid, _ := l.Lookup("mid")
	to, _ := l.Lookup("top")
	if down := l.DownStrict(to); len(down) != 2 || down[0] != bo || down[1] != mid {
		t.Fatalf("DownStrict(top) = %v, want [bot mid]", down)
	}
	if down := l.DownStrict(mid); len(down) != 1 || down[0] != bo {
		t.Fatalf("DownStrict(mid) = %v, want [bot]", down)
	}
	if got := l.DownStrict(bo); len(got) != 0 {
		t.Fatalf("DownStrict(bot) = %v, want empty", got)
	}
}

// TestLatticeLawsQuick checks the lattice laws of ⊔ and ≤ on random
// triples of every law lattice.
func TestLatticeLawsQuick(t *testing.T) {
	for _, l := range lawLattices(t) {
		n := l.Size()
		property := func(x, y, z uint8) bool {
			a, b, c := Elem(int(x)%n), Elem(int(y)%n), Elem(int(z)%n)
			// Idempotence.
			if l.Join(a, a) != a {
				return false
			}
			// Commutativity.
			if l.Join(a, b) != l.Join(b, a) {
				return false
			}
			// Associativity.
			if l.Join(l.Join(a, b), c) != l.Join(a, l.Join(b, c)) {
				return false
			}
			// Order consistency: a ≤ b iff a ⊔ b = b; < is ≤ without =.
			if l.Leq(a, b) != (l.Join(a, b) == b) || l.Lt(a, b) != (l.Leq(a, b) && a != b) {
				return false
			}
			// Bounds.
			if !l.Leq(l.Bottom(), a) || !l.Leq(a, l.Top()) {
				return false
			}
			// The join is an upper bound.
			j := l.Join(a, b)
			return l.Leq(a, j) && l.Leq(b, j)
		}
		cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}
		if err := quick.Check(property, cfg); err != nil {
			t.Fatalf("%v: %v", l, err)
		}
	}
}

func TestJoinIsLeastUpperBound(t *testing.T) {
	// For every pair (a,b) and every upper bound u of {a,b}: join(a,b) ≤ u.
	for _, l := range lawLattices(t) {
		for _, a := range l.Elems() {
			for _, b := range l.Elems() {
				j := l.Join(a, b)
				for _, u := range l.Elems() {
					if l.Leq(a, u) && l.Leq(b, u) && !l.Leq(j, u) {
						t.Fatalf("%v: join(%v,%v)=%v not least", l, l.Name(a), l.Name(b), l.Name(j))
					}
				}
			}
		}
	}
}

func TestStringIsStable(t *testing.T) {
	l := mustChain(t, "u", "t")
	if got := l.String(); got != "{u ≤ t}" {
		t.Errorf("String = %q", got)
	}
}

func TestElemsAscending(t *testing.T) {
	l := mustChain(t, "a", "b", "c", "d")
	es := l.Elems()
	for i, e := range es {
		if int(e) != i || l.Name(e) != string(rune('a'+i)) {
			t.Fatalf("Elems[%d] = %d (%s)", i, e, l.Name(e))
		}
	}
}
