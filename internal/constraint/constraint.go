// Package constraint implements the constraint construction procedure
// C(c, g) of Figure 5: it walks the renamed AI, threading the guard g
// (initially true) through commands, and produces
//
//   - one guarded equation  t(vα) = g ? e : t(vα-1)  per assignment,
//   - one guarded check     g ⇒ ⋀ t(arg) < τr       per assertion.
//
// Guards are boolean expressions over the nondeterministic branch
// variables BN. The paper's Figure 5 maps stop to the trivial constraint
// true; this implementation refines that by tracking the continuation
// guard — after "if b { stop }" the rest of the sequence runs under g∧¬b —
// which keeps the encoding exactly faithful to the AI's execution semantics
// (and to the reference evaluator in package ai).
//
// Per §3.3.2, the per-assertion formula is
//
//	B_i = C(c, g) ∧ ¬C(assert_i, g)
//
// where c is the concatenation of all commands preceding assert_i, and —
// following the paper's iteration — every already-checked assertion is
// added positively before moving to the next one.
//
// Build also records which equations fold to a constant safety type in
// every encoding of every B_i (see System.Folded), so the encoder visits
// only the equations that can need SAT variables.
package constraint

import (
	"fmt"
	"sort"
	"strings"

	"webssari/internal/lattice"
	"webssari/internal/rename"
)

// Bool is a guard formula over branch variables.
type Bool interface {
	boolExpr()
	String() string
}

// True is the constant true guard.
type True struct{}

// False is the constant false guard (unreachable code after stop).
type False struct{}

// Branch is a literal over nondeterministic branch variable b_ID.
type Branch struct {
	ID  int
	Neg bool
}

// And is conjunction.
type And struct {
	Parts []Bool
}

// Or is disjunction.
type Or struct {
	Parts []Bool
}

func (True) boolExpr()   {}
func (False) boolExpr()  {}
func (Branch) boolExpr() {}
func (And) boolExpr()    {}
func (Or) boolExpr()     {}

// String implements Bool.
func (True) String() string { return "true" }

// String implements Bool.
func (False) String() string { return "false" }

// String implements Bool.
func (b Branch) String() string {
	if b.Neg {
		return fmt.Sprintf("¬b%d", b.ID)
	}
	return fmt.Sprintf("b%d", b.ID)
}

// String implements Bool.
func (a And) String() string { return joinBools(a.Parts, " ∧ ") }

// String implements Bool.
func (o Or) String() string { return joinBools(o.Parts, " ∨ ") }

func joinBools(parts []Bool, sep string) string {
	ss := make([]string, len(parts))
	for i, p := range parts {
		ss[i] = p.String()
	}
	return "(" + strings.Join(ss, sep) + ")"
}

// MkAnd builds a simplified conjunction.
func MkAnd(parts ...Bool) Bool {
	var flat []Bool
	for _, p := range parts {
		switch p := p.(type) {
		case nil, True:
			continue
		case False:
			return False{}
		case And:
			flat = append(flat, p.Parts...)
		default:
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return True{}
	case 1:
		return flat[0]
	default:
		return And{Parts: flat}
	}
}

// MkOr builds a simplified disjunction.
func MkOr(parts ...Bool) Bool {
	var flat []Bool
	for _, p := range parts {
		switch p := p.(type) {
		case nil, False:
			continue
		case True:
			return True{}
		case Or:
			flat = append(flat, p.Parts...)
		default:
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return False{}
	case 1:
		return flat[0]
	default:
		return Or{Parts: flat}
	}
}

// EvalBool evaluates a guard under a branch assignment (missing branches
// default to false, matching "branch not taken").
func EvalBool(b Bool, branches map[int]bool) bool {
	switch b := b.(type) {
	case True:
		return true
	case False:
		return false
	case Branch:
		return branches[b.ID] != b.Neg
	case And:
		for _, p := range b.Parts {
			if !EvalBool(p, branches) {
				return false
			}
		}
		return true
	case Or:
		for _, p := range b.Parts {
			if EvalBool(p, branches) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Equation is the Figure 5 constraint for one single assignment:
// t(V) = Guard ? RHS : t(Prev), where Prev is V with index α−1.
type Equation struct {
	V     rename.SSAVar
	Guard Bool
	RHS   rename.Expr
	// Prev is the previous index of the same variable (Idx = V.Idx−1).
	Prev rename.SSAVar
	// Origin is the renamed assignment this equation encodes.
	Origin *rename.Set
}

// String renders the equation as in Figure 6's constraint column.
func (e Equation) String() string {
	return fmt.Sprintf("t(%s) = %s ? %s : t(%s)", e.V, e.Guard, e.RHS, e.Prev)
}

// BranchMark records a nondeterministic branch's position in the command
// order, so the encoder can allocate a BN variable for every branch in an
// assertion's prefix — including branches that guard no assignment (empty
// arms), whose decisions still distinguish counterexample traces.
type BranchMark struct {
	ID   int
	Tick int
}

// Check is the Figure 5 constraint for one assertion:
// Guard ⇒ ⋀_args t(arg) < Bound (the bound lives in Origin).
type Check struct {
	// ID is the assertion's index in textual order.
	ID    int
	Guard Bool
	// Origin carries the renamed assertion (args, bound, source site).
	Origin *rename.Assert
	// Prefix is the number of equations that precede this assertion: the
	// formula B_i contains exactly Equations[:Prefix].
	Prefix int
	// Tick is the assertion's position in the global command order,
	// comparable with BranchMark.Tick.
	Tick int
}

// String renders the check.
func (c Check) String() string {
	args := make([]string, len(c.Origin.Args))
	for i, a := range c.Origin.Args {
		args[i] = a.Expr.String()
	}
	return fmt.Sprintf("%s ⇒ (%s < τr)", c.Guard, strings.Join(args, ", "))
}

// System is the constraint view of a renamed program: the ordered
// equations plus one check per assertion.
type System struct {
	Renamed   *rename.Program
	Equations []Equation
	Checks    []Check
	// Marks lists every branch with its command-order position, in
	// command order.
	Marks []BranchMark
	// Folded maps each SSA variable whose equation the encoder folds to
	// a constant, allocating no SAT variable and no clause, to that
	// constant and its equation's index. The constant is the same in
	// every check whose prefix holds the equation.
	Folded map[rename.SSAVar]Folded
	// Dynamic lists, in ascending order, the indices of the equations
	// that are not folded: the only ones an encoding has to visit.
	Dynamic []int

	// markIDs holds Marks' branch IDs in the same order.
	markIDs []int
}

// Folded is the constant type of a folded equation's variable.
type Folded struct {
	Type lattice.Elem
	// Eq is the index of the defining equation in System.Equations.
	Eq int
}

// Build runs the constraint construction procedure over the whole renamed
// program.
func Build(p *rename.Program) *System {
	s := &System{Renamed: p}
	tick := 0
	s.walk(p.Cmds, True{}, &tick)
	s.fold()
	return s
}

// PrefixBranches returns the IDs of every branch preceding the check in
// command order — the BN variables of the formula B_i. Callers must not
// modify the returned slice.
func (s *System) PrefixBranches(c Check) []int {
	n := sort.Search(len(s.Marks), func(i int) bool { return s.Marks[i].Tick >= c.Tick })
	return s.markIDs[:n]
}

// fold splits the equations into folded and dynamic ones. An equation
// folds when the encoder, encoding the equations in order, would give
// its variable a constant without allocating a variable or a clause:
//
//   - its guard is True, False or a single Branch, whose variable the
//     encoder allocates before any equation. A conjunction or
//     disjunction may take a Tseitin variable, and its number depends on
//     the encoding order, so it stays dynamic;
//   - every leaf of its RHS is constant, also under a False guard (the
//     encoder still encodes that RHS, and a join with a non-constant part
//     may allocate a one-hot group);
//   - under a Branch guard, RHS and previous value are the same constant.
//
// A leaf reading a variable is constant when that variable is folded or
// not yet defined (the encoder reads its initial type), and not when a
// dynamic equation defines it.
func (s *System) fold() {
	s.Folded = make(map[rename.SSAVar]Folded)
	dynamic := make(map[rename.SSAVar]bool)
	ai := s.Renamed.AI
	constOf := func(v rename.SSAVar) (lattice.Elem, bool) {
		if f, ok := s.Folded[v]; ok {
			return f.Type, true
		}
		if dynamic[v] {
			return 0, false
		}
		return ai.InitialType(v.Name), true
	}
	var constExpr func(rename.Expr) (lattice.Elem, bool)
	constExpr = func(x rename.Expr) (lattice.Elem, bool) {
		switch x := x.(type) {
		case rename.Const:
			return x.Type, true
		case rename.Ref:
			return constOf(x.V)
		case rename.Join:
			if len(x.Parts) == 0 {
				return ai.Lat.Bottom(), true
			}
			var acc lattice.Elem
			for i, part := range x.Parts {
				t, ok := constExpr(part)
				if !ok {
					return 0, false
				}
				if i == 0 {
					acc = t
				} else {
					acc = ai.Lat.Join(acc, t)
				}
			}
			return acc, true
		default:
			return ai.Lat.Top(), true
		}
	}
	for i, eq := range s.Equations {
		t, ok := constExpr(eq.RHS)
		if ok {
			switch eq.Guard.(type) {
			case True:
			case False:
				t, ok = constOf(eq.Prev)
			case Branch:
				prev, pok := constOf(eq.Prev)
				ok = pok && prev == t
			default:
				ok = false
			}
		}
		if ok {
			s.Folded[eq.V] = Folded{Type: t, Eq: i}
		} else {
			dynamic[eq.V] = true
			s.Dynamic = append(s.Dynamic, i)
		}
	}
}

// walk processes a command sequence under guard g and returns the
// continuation guard (False after an unconditional stop; g∧¬b style
// refinements after conditional stops).
func (s *System) walk(cmds []rename.Cmd, g Bool, tick *int) Bool {
	for _, c := range cmds {
		*tick++
		switch c := c.(type) {
		case *rename.Set:
			s.Equations = append(s.Equations, Equation{
				V:      c.V,
				Guard:  g,
				RHS:    c.RHS,
				Prev:   rename.SSAVar{Name: c.V.Name, Idx: c.V.Idx - 1},
				Origin: c,
			})
		case *rename.Assert:
			s.Checks = append(s.Checks, Check{
				ID:     c.ID,
				Guard:  g,
				Origin: c,
				Prefix: len(s.Equations),
				Tick:   *tick,
			})
		case *rename.If:
			s.Marks = append(s.Marks, BranchMark{ID: c.ID, Tick: *tick})
			s.markIDs = append(s.markIDs, c.ID)
			bPos := Branch{ID: c.ID}
			bNeg := Branch{ID: c.ID, Neg: true}
			gThen := s.walk(c.Then, MkAnd(g, bPos), tick)
			gElse := s.walk(c.Else, MkAnd(g, bNeg), tick)
			// Continuation: either arm completed without stopping. When
			// neither arm contains a stop this simplifies back to g.
			if isAndOf(gThen, g, bPos) && isAndOf(gElse, g, bNeg) {
				// Neither arm stopped.
				continue
			}
			g = MkOr(gThen, gElse)
		case *rename.Stop:
			g = False{}
		}
	}
	return g
}

// isAndOf reports whether got is exactly MkAnd(g, lit) — the unchanged
// continuation guard of a stop-free arm.
func isAndOf(got Bool, g Bool, lit Branch) bool {
	want := MkAnd(g, lit)
	return got.String() == want.String()
}

// String renders the whole system.
func (s *System) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "constraints for %s\n", s.Renamed.AI.File)
	for _, eq := range s.Equations {
		fmt.Fprintf(&b, "  %s\n", eq)
	}
	for _, ch := range s.Checks {
		fmt.Fprintf(&b, "  assert_%d: %s\n", ch.ID, ch)
	}
	return b.String()
}
