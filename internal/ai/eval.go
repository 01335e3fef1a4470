package ai

import (
	"cmp"
	"slices"
	"strconv"

	"webssari/internal/lattice"
)

// Violation is one concrete assertion failure observed while executing an
// AI program along a specific resolution of its nondeterministic branches.
type Violation struct {
	// Assert is the failed assertion.
	Assert *Assert
	// ArgTypes holds the evaluated type of each checked argument; entries
	// that satisfied the assertion are still included.
	ArgTypes []lattice.Elem
	// Failing lists the indices into Assert.Args whose types violated the
	// bound.
	Failing []int
	// Branches records the branch decisions *encountered on the path* that
	// reached the assertion (branch ID → taken). Branches that were never
	// reached (inside untaken arms, or after a stop) are absent; this makes
	// Branches the canonical identity of a counterexample trace.
	Branches map[int]bool
}

// Key returns a canonical identity for the violation: the assertion site
// plus the encountered branch decisions (see TraceKey).
func (v Violation) Key() string { return TraceKey(v.Assert, v.Branches) }

// Decision is one branch decision on an error trace: the branch ID and
// whether its then-arm was taken.
type Decision struct {
	ID    int
	Taken bool
}

// TraceKey renders the canonical identity of an error trace that reaches
// assertion a under the given branch decisions (see AppendTraceKey).
func TraceKey(a *Assert, branches map[int]bool) string {
	var dBuf [32]Decision
	ds := dBuf[:0]
	for id, taken := range branches {
		ds = append(ds, Decision{ID: id, Taken: taken})
	}
	slices.SortFunc(ds, func(x, y Decision) int { return cmp.Compare(x.ID, y.ID) })
	var buf [128]byte
	return string(AppendTraceKey(buf[:0], a, ds))
}

// AppendTraceKey appends the canonical identity of an error trace that
// reaches assertion a under the given decisions, which must be ascending
// by branch ID: "<site>|<fn>|" followed by "+id" (taken) or "-id" (not
// taken) for each decision. Both the exhaustive oracle and the model
// checker's counterexamples are keyed by it, and canonical
// counterexample order is lexicographic over these bytes, so they must
// not change.
func AppendTraceKey(b []byte, a *Assert, decisions []Decision) []byte {
	b = a.Site.Pos.Append(b)
	b = append(b, '|')
	b = append(b, a.Fn...)
	b = append(b, '|')
	for _, d := range decisions {
		if d.Taken {
			b = append(b, '+')
		} else {
			b = append(b, '-')
		}
		b = strconv.AppendInt(b, int64(d.ID), 10)
	}
	return b
}

// Eval executes the program with branch decisions supplied by choose
// (called once per encountered If, with its ID) and returns every
// violation observed plus the final variable-type environment.
func (p *Program) Eval(choose func(id int) bool) ([]Violation, map[string]lattice.Elem) {
	env := make(map[string]lattice.Elem, len(p.InitialTypes))
	for name, t := range p.InitialTypes {
		env[name] = t
	}
	encountered := make(map[int]bool)
	var viols []Violation
	p.evalCmds(p.Cmds, env, choose, encountered, &viols)
	return viols, env
}

// evalCmds executes a command sequence; it returns false when a stop
// command terminated execution.
func (p *Program) evalCmds(
	cmds []Cmd,
	env map[string]lattice.Elem,
	choose func(int) bool,
	encountered map[int]bool,
	viols *[]Violation,
) bool {
	for _, c := range cmds {
		switch c := c.(type) {
		case *Set:
			env[c.Var] = p.evalExpr(c.RHS, env)
		case *Assert:
			var failing []int
			argTypes := make([]lattice.Elem, len(c.Args))
			for i, a := range c.Args {
				t := p.evalExpr(a.Expr, env)
				argTypes[i] = t
				if !p.Lat.Lt(t, c.Bound) {
					failing = append(failing, i)
				}
			}
			if len(failing) > 0 {
				branches := make(map[int]bool, len(encountered))
				for id, v := range encountered {
					branches[id] = v
				}
				*viols = append(*viols, Violation{
					Assert:   c,
					ArgTypes: argTypes,
					Failing:  failing,
					Branches: branches,
				})
			}
		case *If:
			taken := choose(c.ID)
			encountered[c.ID] = taken
			arm := c.Then
			if !taken {
				arm = c.Else
			}
			if !p.evalCmds(arm, env, choose, encountered, viols) {
				return false
			}
		case *Stop:
			return false
		}
	}
	return true
}

func (p *Program) evalExpr(e Expr, env map[string]lattice.Elem) lattice.Elem {
	switch e := e.(type) {
	case nil:
		return p.Lat.Bottom()
	case Const:
		return e.Type
	case Var:
		if t, ok := env[e.Name]; ok {
			return t
		}
		return p.Lat.Bottom()
	case Join:
		acc := p.Lat.Bottom()
		for _, part := range e.Parts {
			acc = p.Lat.Join(acc, p.evalExpr(part, env))
		}
		return acc
	default:
		return p.Lat.Top()
	}
}

// ExhaustiveViolations enumerates every distinct counterexample trace by
// brute force over all 2^Branches branch resolutions, deduplicating by
// trace identity (assertion site + encountered branch decisions). It is the
// reference oracle the bounded model checker is tested against (the flow
// tests' violations helper, TestExhaustiveViolationsDedup); it is
// exponential and must only be used on small programs.
func (p *Program) ExhaustiveViolations() []Violation {
	seen := make(map[string]Violation)
	n := p.Branches
	if n > 20 {
		// Clamp quietly rather than hanging: callers use this oracle only
		// in tests and ablations, on small programs.
		n = 20
	}
	var order []string
	for mask := 0; mask < 1<<uint(n); mask++ {
		viols, _ := p.Eval(func(id int) bool {
			if id >= n {
				return false
			}
			return mask&(1<<uint(id)) != 0
		})
		for _, v := range viols {
			k := v.Key()
			if _, dup := seen[k]; !dup {
				seen[k] = v
				order = append(order, k)
			}
		}
	}
	out := make([]Violation, len(order))
	for i, k := range order {
		out[i] = seen[k]
	}
	return out
}
