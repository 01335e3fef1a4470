// Package sat implements a conflict-driven clause-learning (CDCL)
// propositional satisfiability solver — the reproduction's stand-in for
// ZChaff [Moskewicz et al., DAC 2001], which the paper's xBMC used. It
// implements the algorithm family ZChaff introduced:
//
//   - two-watched-literal unit propagation,
//   - first-UIP conflict analysis with clause learning and
//     non-chronological backjumping,
//   - VSIDS-style decision heuristics with activity decay,
//   - phase saving,
//   - Luby-sequence restarts,
//   - activity-driven learned-clause database reduction.
//
// The solver is incremental in the way the paper's counterexample
// enumeration requires: after a satisfying assignment is found, the caller
// may add a blocking clause and call Solve again; learned clauses and
// heuristic state carry over.
package sat

import (
	"fmt"
	"strconv"
)

// Lit is a literal: a propositional variable or its negation. Variables are
// 1-based; the positive literal of variable v is Lit(+v) and the negative
// literal is Lit(-v), mirroring DIMACS conventions. The zero Lit is invalid.
type Lit int32

// MkLit builds a literal from a 1-based variable index and a sign.
func MkLit(v int, neg bool) Lit {
	if neg {
		return Lit(-v)
	}
	return Lit(v)
}

// Var returns the literal's 1-based variable index.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// IsNeg reports whether the literal is negative.
func (l Lit) IsNeg() bool { return l < 0 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return -l }

// String renders the literal in DIMACS form.
func (l Lit) String() string { return strconv.Itoa(int(l)) }

// index maps the literal to a dense array index: variable v contributes
// slots 2v (positive) and 2v+1 (negative).
func (l Lit) index() int {
	v := l.Var()
	if l.IsNeg() {
		return 2*v + 1
	}
	return 2 * v
}

// lbool is a three-valued boolean.
type lbool uint8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

func (b lbool) negate() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	default:
		return lUndef
	}
}

func (b lbool) String() string {
	switch b {
	case lTrue:
		return "true"
	case lFalse:
		return "false"
	default:
		return "undef"
	}
}

// Stats collects solver counters for benchmarks, ablations, and the
// telemetry layer's per-assertion profiles.
type Stats struct {
	Decisions      uint64 `json:"decisions"`
	Propagations   uint64 `json:"propagations"`
	Conflicts      uint64 `json:"conflicts"`
	Restarts       uint64 `json:"restarts"`
	LearntClauses  uint64 `json:"learnt_clauses"`
	DeletedClauses uint64 `json:"deleted_clauses"`
	// MinimizedLits counts literals dropped from learned clauses by
	// conflict-clause minimization — a direct measure of how much the
	// minimization pass shrinks the learned database.
	MinimizedLits uint64 `json:"minimized_lits"`
	MaxDepth      int    `json:"max_depth"`
}

// Add accumulates o into s; MaxDepth takes the maximum. It is how
// per-assertion stats roll up into a whole-run profile.
func (s *Stats) Add(o Stats) {
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Conflicts += o.Conflicts
	s.Restarts += o.Restarts
	s.LearntClauses += o.LearntClauses
	s.DeletedClauses += o.DeletedClauses
	s.MinimizedLits += o.MinimizedLits
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
}

// String summarizes the counters.
func (s Stats) String() string {
	return fmt.Sprintf("decisions=%d propagations=%d conflicts=%d restarts=%d learnt=%d deleted=%d minimized=%d",
		s.Decisions, s.Propagations, s.Conflicts, s.Restarts, s.LearntClauses, s.DeletedClauses, s.MinimizedLits)
}
