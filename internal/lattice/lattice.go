// Package lattice implements finite complete lattices of safety types, the
// foundation of the information-flow model of Huang et al. (DSN 2004, §3.1).
//
// Following Denning's lattice model of secure information flow, every
// program variable is associated with a safety type drawn from a finite set
// T that is partially ordered by ≤ and forms a complete lattice: there is a
// bottom element ⊥ (the safest, most trusted level), a top element ⊤ (the
// least trusted level), and every subset of T has both a greatest lower
// bound (meet, ⊓) and a least upper bound (join, ⊔).
//
// A Lattice is constructed either from a Hasse diagram via Builder, or with
// the convenience constructors Chain, Product, and Taint. Elements
// are identified by dense integer handles (Elem) so that meet/join/leq are
// table lookups, which keeps the SAT encoding of lattice operations cheap.
package lattice

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Elem is a handle to a lattice element. Handles are dense indices in the
// range [0, Lattice.Size()). The zero handle is valid and refers to the
// first element added to the Builder; use Lattice.Bottom and Lattice.Top to
// obtain the distinguished bounds.
type Elem int

// ErrNotALattice is returned by Builder.Build when the constructed partial
// order is not a complete lattice (some pair of elements lacks a unique
// least upper bound or greatest lower bound, or the order has no global
// bottom or top).
var ErrNotALattice = errors.New("lattice: partial order is not a complete lattice")

// Lattice is an immutable finite complete lattice. All methods are safe for
// concurrent use.
type Lattice struct {
	names  []string
	index  map[string]Elem
	leq    [][]bool
	join   [][]Elem
	meet   [][]Elem
	bottom Elem
	top    Elem
}

// Builder accumulates elements and covering relations of a Hasse diagram
// and then verifies and freezes them into a Lattice.
type Builder struct {
	names []string
	index map[string]Elem
	cover [][2]Elem // x < y with nothing in between (x covered by y)
	err   error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[string]Elem)}
}

// Add registers a named element and returns its handle. Adding the same
// name twice returns the original handle and records an error that
// surfaces from Build.
func (b *Builder) Add(name string) Elem {
	if e, ok := b.index[name]; ok {
		b.err = fmt.Errorf("lattice: duplicate element %q", name)
		return e
	}
	e := Elem(len(b.names))
	b.names = append(b.names, name)
	b.index[name] = e
	return e
}

// Covers declares that hi covers lo: lo < hi with no element in between.
// The full order is the reflexive-transitive closure of these edges.
func (b *Builder) Covers(hi, lo Elem) {
	n := Elem(len(b.names))
	if hi < 0 || hi >= n || lo < 0 || lo >= n {
		b.err = fmt.Errorf("lattice: Covers(%d, %d) out of range [0,%d)", hi, lo, n)
		return
	}
	if hi == lo {
		b.err = fmt.Errorf("lattice: element %q cannot cover itself", b.names[hi])
		return
	}
	b.cover = append(b.cover, [2]Elem{lo, hi})
}

// Build verifies the accumulated Hasse diagram and returns the resulting
// Lattice. It fails if the diagram contains a cycle, if the order is not a
// complete lattice, or if any Add/Covers call was invalid.
func (b *Builder) Build() (*Lattice, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.names)
	if n == 0 {
		return nil, errors.New("lattice: no elements")
	}

	leq := make([][]bool, n)
	for i := range leq {
		leq[i] = make([]bool, n)
		leq[i][i] = true
	}
	for _, c := range b.cover {
		leq[c[0]][c[1]] = true
	}
	// Warshall transitive closure.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !leq[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if leq[k][j] {
					leq[i][j] = true
				}
			}
		}
	}
	// Antisymmetry: a cycle manifests as two distinct mutually-≤ elements.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if leq[i][j] && leq[j][i] {
				return nil, fmt.Errorf("lattice: order cycle through %q and %q", b.names[i], b.names[j])
			}
		}
	}

	l := &Lattice{
		names: append([]string(nil), b.names...),
		index: make(map[string]Elem, n),
		leq:   leq,
	}
	for name, e := range b.index {
		l.index[name] = e
	}

	var ok bool
	if l.bottom, ok = l.findBottom(); !ok {
		return nil, fmt.Errorf("%w: no global lower bound", ErrNotALattice)
	}
	if l.top, ok = l.findTop(); !ok {
		return nil, fmt.Errorf("%w: no global upper bound", ErrNotALattice)
	}
	if err := l.buildTables(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Lattice) findBottom() (Elem, bool) {
	for i := range l.names {
		all := true
		for j := range l.names {
			if !l.leq[i][j] {
				all = false
				break
			}
		}
		if all {
			return Elem(i), true
		}
	}
	return 0, false
}

func (l *Lattice) findTop() (Elem, bool) {
	for i := range l.names {
		all := true
		for j := range l.names {
			if !l.leq[j][i] {
				all = false
				break
			}
		}
		if all {
			return Elem(i), true
		}
	}
	return 0, false
}

// buildTables computes the meet and join tables, verifying that every pair
// of elements has a unique least upper bound and greatest lower bound.
func (l *Lattice) buildTables() error {
	n := len(l.names)
	l.join = make([][]Elem, n)
	l.meet = make([][]Elem, n)
	for i := 0; i < n; i++ {
		l.join[i] = make([]Elem, n)
		l.meet[i] = make([]Elem, n)
		for j := 0; j < n; j++ {
			jv, ok := l.lub(Elem(i), Elem(j))
			if !ok {
				return fmt.Errorf("%w: %q and %q have no least upper bound",
					ErrNotALattice, l.names[i], l.names[j])
			}
			l.join[i][j] = jv
			mv, ok := l.glb(Elem(i), Elem(j))
			if !ok {
				return fmt.Errorf("%w: %q and %q have no greatest lower bound",
					ErrNotALattice, l.names[i], l.names[j])
			}
			l.meet[i][j] = mv
		}
	}
	return nil
}

func (l *Lattice) lub(a, b Elem) (Elem, bool) {
	var ubs []Elem
	for c := range l.names {
		if l.leq[a][c] && l.leq[b][c] {
			ubs = append(ubs, Elem(c))
		}
	}
	return uniqueMinimum(l, ubs)
}

func (l *Lattice) glb(a, b Elem) (Elem, bool) {
	var lbs []Elem
	for c := range l.names {
		if l.leq[c][a] && l.leq[c][b] {
			lbs = append(lbs, Elem(c))
		}
	}
	return uniqueMaximum(l, lbs)
}

// uniqueMinimum returns the element of set that is ≤ every other element of
// set, if one exists.
func uniqueMinimum(l *Lattice, set []Elem) (Elem, bool) {
	for _, c := range set {
		all := true
		for _, d := range set {
			if !l.leq[c][d] {
				all = false
				break
			}
		}
		if all {
			return c, true
		}
	}
	return 0, false
}

// uniqueMaximum returns the element of set that is ≥ every other element of
// set, if one exists.
func uniqueMaximum(l *Lattice, set []Elem) (Elem, bool) {
	for _, c := range set {
		all := true
		for _, d := range set {
			if !l.leq[d][c] {
				all = false
				break
			}
		}
		if all {
			return c, true
		}
	}
	return 0, false
}

// Size returns the number of elements in the lattice.
func (l *Lattice) Size() int { return len(l.names) }

// Bottom returns ⊥, the global lower bound (the safest type).
func (l *Lattice) Bottom() Elem { return l.bottom }

// Top returns ⊤, the global upper bound (the least trusted type).
func (l *Lattice) Top() Elem { return l.top }

// Name returns the name of element e.
func (l *Lattice) Name(e Elem) string { return l.names[e] }

// Lookup resolves a name to its element handle.
func (l *Lattice) Lookup(name string) (Elem, bool) {
	e, ok := l.index[name]
	return e, ok
}

// Leq reports whether a ≤ b.
func (l *Lattice) Leq(a, b Elem) bool { return l.leq[a][b] }

// Lt reports whether a < b, i.e. a ≤ b and a ≠ b.
func (l *Lattice) Lt(a, b Elem) bool { return a != b && l.leq[a][b] }

// Join returns a ⊔ b, the least upper bound.
func (l *Lattice) Join(a, b Elem) Elem { return l.join[a][b] }

// Meet returns a ⊓ b, the greatest lower bound.
func (l *Lattice) Meet(a, b Elem) Elem { return l.meet[a][b] }

// JoinAll returns the least upper bound of elems, or ⊥ for an empty set,
// matching the paper's convention that ⊔∅ = ⊥.
func (l *Lattice) JoinAll(elems ...Elem) Elem {
	acc := l.bottom
	for _, e := range elems {
		acc = l.join[acc][e]
	}
	return acc
}

// MeetAll returns the greatest lower bound of elems, or ⊤ for an empty
// set, matching the paper's convention that ⊓∅ = ⊤.
func (l *Lattice) MeetAll(elems ...Elem) Elem {
	acc := l.top
	for _, e := range elems {
		acc = l.meet[acc][e]
	}
	return acc
}

// DownStrict returns every element strictly below bound, in ascending
// handle order. These are exactly the values that satisfy the assertion
// assert(x, bound) of the abstract interpretation: t_x < bound.
func (l *Lattice) DownStrict(bound Elem) []Elem {
	var out []Elem
	for c := range l.names {
		if l.Lt(Elem(c), bound) {
			out = append(out, Elem(c))
		}
	}
	return out
}

// DownClosed returns every element ≤ bound, in ascending handle order.
func (l *Lattice) DownClosed(bound Elem) []Elem {
	var out []Elem
	for c := range l.names {
		if l.leq[c][bound] {
			out = append(out, Elem(c))
		}
	}
	return out
}

// Elems returns all element handles in ascending order.
func (l *Lattice) Elems() []Elem {
	out := make([]Elem, len(l.names))
	for i := range out {
		out[i] = Elem(i)
	}
	return out
}

// String renders the lattice as its element names sorted by the order's
// topological rank, for debugging.
func (l *Lattice) String() string {
	order := l.Elems()
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if l.Lt(a, b) {
			return true
		}
		if l.Lt(b, a) {
			return false
		}
		return l.names[a] < l.names[b]
	})
	names := make([]string, len(order))
	for i, e := range order {
		names[i] = l.names[e]
	}
	return "{" + strings.Join(names, " ≤ ") + "}"
}
