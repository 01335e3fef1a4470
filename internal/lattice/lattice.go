// Package lattice implements the finite chains of safety types that type
// program variables in the information-flow model of Huang et al. (DSN
// 2004, §3.1).
//
// Following Denning's lattice model of secure information flow, every
// program variable is associated with a safety type drawn from a finite set
// T that is ordered by ≤ and forms a complete lattice: there is a bottom
// element ⊥ (the safest, most trusted level), a top element ⊤ (the least
// trusted level), and every subset of T has a least upper bound (join, ⊔).
//
// Both ways a user can declare a lattice, the prelude's `lattice chain`
// line and a policy's JSON `lattice` list, declare a chain, so Chain is the
// only constructor. Elements are identified by dense integer handles
// (Elem) in chain order, so ≤ compares handles and ⊔ takes the larger one,
// which keeps the SAT encoding of lattice operations cheap.
package lattice

import (
	"errors"
	"fmt"
	"strings"
)

// Elem is a handle to a lattice element. Handle i is the i-th name given
// to Chain, so handles are dense indices in the range [0, Lattice.Size())
// and Bottom is 0.
type Elem int

// Lattice is an immutable finite chain. All methods are safe for
// concurrent use.
type Lattice struct {
	names []string
	index map[string]Elem
}

// TaintNames are the element names of the default two-point taint lattice
// used by WebSSARI's PHP prelude: Untainted (⊥) < Tainted (⊤).
const (
	UntaintedName = "untainted"
	TaintedName   = "tainted"
)

// Taint returns Denning's two-point taint lattice, Untainted < Tainted.
// This is the lattice WebSSARI ships with in its default prelude; custom
// preludes and policies may declare longer chains (see Chain).
func Taint() *Lattice {
	l, err := Chain(UntaintedName, TaintedName)
	if err != nil {
		// Unreachable: two distinct names always form a chain.
		panic(err)
	}
	return l
}

// Chain constructs the total order names[0] < names[1] < … < names[n-1].
// Every finite chain is a complete lattice.
func Chain(names ...string) (*Lattice, error) {
	if len(names) == 0 {
		return nil, errors.New("lattice: chain needs at least one element")
	}
	l := &Lattice{
		names: append([]string(nil), names...),
		index: make(map[string]Elem, len(names)),
	}
	for i, name := range names {
		if _, dup := l.index[name]; dup {
			return nil, fmt.Errorf("lattice: duplicate element %q", name)
		}
		l.index[name] = Elem(i)
	}
	return l, nil
}

// Size returns the number of elements in the lattice.
func (l *Lattice) Size() int { return len(l.names) }

// Bottom returns ⊥, the global lower bound (the safest type).
func (l *Lattice) Bottom() Elem { return 0 }

// Top returns ⊤, the global upper bound (the least trusted type).
func (l *Lattice) Top() Elem { return Elem(len(l.names) - 1) }

// Name returns the name of element e.
func (l *Lattice) Name(e Elem) string { return l.names[e] }

// Lookup resolves a name to its element handle.
func (l *Lattice) Lookup(name string) (Elem, bool) {
	e, ok := l.index[name]
	return e, ok
}

// Leq reports whether a ≤ b.
func (l *Lattice) Leq(a, b Elem) bool { return a <= b }

// Lt reports whether a < b, i.e. a ≤ b and a ≠ b.
func (l *Lattice) Lt(a, b Elem) bool { return a < b }

// Join returns a ⊔ b, the least upper bound: the higher of the two.
func (l *Lattice) Join(a, b Elem) Elem { return max(a, b) }

// DownStrict returns every element strictly below bound, in ascending
// handle order. These are exactly the values that satisfy the assertion
// assert(x, bound) of the abstract interpretation: t_x < bound.
func (l *Lattice) DownStrict(bound Elem) []Elem {
	return l.Elems()[:bound]
}

// Elems returns all element handles in ascending order.
func (l *Lattice) Elems() []Elem {
	out := make([]Elem, len(l.names))
	for i := range out {
		out[i] = Elem(i)
	}
	return out
}

// String renders the lattice as its element names from ⊥ to ⊤, for
// debugging and error messages.
func (l *Lattice) String() string {
	return "{" + strings.Join(l.names, " ≤ ") + "}"
}
