package cnf

import (
	"webssari/internal/constraint"
	"webssari/internal/lattice"
	"webssari/internal/rename"
	"webssari/internal/sat"
)

// This file implements the shared-solver encoding, an incremental-SAT
// extension beyond the paper: instead of building one CNF per assertion
// (the paper rebuilds B_i from scratch and discards the solver each time),
// the whole constraint system is encoded once and each assertion's
// negation ¬C(assert_i, g) is gated behind a fresh selector literal s_i.
// Checking assertion i is then a SolveAssuming([s_i]) call on one solver,
// so learned clauses about the program's data flow are shared across all
// assertions. Counterexample blocking clauses are gated behind the same
// selector so they never constrain other assertions' checks. Measured as
// an ablation in BenchmarkSharedSolver.

// EncodedAll is the whole-program shared encoding.
type EncodedAll struct {
	// F is the program encoding: all equations plus gated check negations.
	F *sat.CNF
	// BranchVars maps branch IDs to SAT variables (shared by all checks).
	BranchVars map[int]int
	// Selectors holds one activation literal per check, indexed by check
	// position; assuming Selectors[i] activates ¬C(assert_i, g).
	Selectors []sat.Lit
	// HoldSelectors holds one activation literal per check, indexed by
	// check position; assuming HoldSelectors[j] activates C(assert_j, g)
	// positively — "assertion j holds". Populated only under
	// Options.AssumePriorAsserts: checking assertion i under the paper's
	// incremental restriction assumes Selectors[i] plus HoldSelectors[j]
	// for every j < i.
	HoldSelectors []sat.Lit
	// TrivialUnsat marks checks decided at encode time (never violable).
	TrivialUnsat []bool
	// prefixBranches lists, per check, the branch IDs in its prefix (for
	// blocking-clause construction and trace decoding).
	prefixBranches [][]int
}

// EncodeAllChecks builds the shared encoding for every check of the
// system. opts.MaxVars and opts.MaxClauses cap the whole-program
// formula as EncodeCheck caps one check's: when a ceiling trips,
// encoding stops and a *LimitError is returned. The shared formula
// holds every equation once plus every check's gated negation, so it
// can trip a ceiling that no single check's encoding reaches.
func EncodeAllChecks(sys *constraint.System, opts Options) (*EncodedAll, error) {
	e := &encoder{
		sys:        sys,
		lat:        sys.Renamed.AI.Lat,
		f:          &sat.CNF{},
		opts:       opts,
		vals:       make(map[rename.SSAVar]vec),
		branch:     make(map[int]int),
		guardCache: make(map[string]glit),
	}

	// Allocate every branch variable and encode every dynamic equation
	// once, bailing out as soon as a resource ceiling trips.
	for _, m := range sys.Marks {
		e.branchVar(m.ID)
	}
	for _, i := range sys.Dynamic {
		e.pos = i
		e.encodeEquation(sys.Equations[i])
		if e.limit != nil {
			return nil, e.limit
		}
	}
	e.pos = len(sys.Equations)

	out := &EncodedAll{
		BranchVars:     e.branch,
		Selectors:      make([]sat.Lit, len(sys.Checks)),
		TrivialUnsat:   make([]bool, len(sys.Checks)),
		prefixBranches: make([][]int, len(sys.Checks)),
	}

	for i, ch := range sys.Checks {
		out.prefixBranches[i] = sys.PrefixBranches(ch)
		sel := sat.Lit(e.newVar())
		out.Selectors[i] = sel
		if !e.encodeGatedNegation(ch, sel) {
			out.TrivialUnsat[i] = true
		}
	}
	if opts.AssumePriorAsserts {
		out.HoldSelectors = make([]sat.Lit, len(sys.Checks))
		for j, ch := range sys.Checks {
			hold := sat.Lit(e.newVar())
			out.HoldSelectors[j] = hold
			e.encodeGatedHold(ch, hold)
		}
	}
	if e.limit != nil {
		return nil, e.limit
	}
	out.F = e.f
	return out, nil
}

// PriorAssumptions returns the assumption set for checking assertion i
// under the paper's incremental restriction: the check's own selector
// plus the hold selector of every prior assertion. Without hold
// selectors (AssumePriorAsserts off) it is just the selector.
func (ea *EncodedAll) PriorAssumptions(check int) []sat.Lit {
	if ea.HoldSelectors == nil {
		return []sat.Lit{ea.Selectors[check]}
	}
	out := make([]sat.Lit, 0, check+1)
	out = append(out, ea.Selectors[check])
	out = append(out, ea.HoldSelectors[:check]...)
	return out
}

// encodeGatedHold adds hold ⇒ C(check): under the hold selector, the
// check's guard implies every argument stays below the bound — the
// gated mirror of the per-assertion encoder's assumeCheckHolds. A check
// that fails unconditionally yields the unit ¬hold, so assuming it
// makes the instance Unsat, matching the ungated encoder's
// TrivialUnsat outcome.
func (e *encoder) encodeGatedHold(ch constraint.Check, hold sat.Lit) {
	g := e.encodeGuard(ch.Guard)
	if g.isConst && !g.b {
		return // unreachable check: holds vacuously
	}
	bad := e.badElems(ch.Origin.Bound)
	for _, arg := range ch.Origin.Args {
		v := e.encodeExpr(arg.Expr)
		if v.isConst {
			if bad[v.c] && !g.isConst {
				e.addClause(hold.Not(), g.lit.Not())
			} else if bad[v.c] && g.isConst && g.b {
				e.addClause(hold.Not())
			}
			continue
		}
		for a, av := range v.vars {
			if !bad[lattice.Elem(a)] {
				continue
			}
			if g.isConst {
				e.addClause(hold.Not(), sat.Lit(-av))
			} else {
				e.addClause(hold.Not(), g.lit.Not(), sat.Lit(-av))
			}
		}
	}
}

// encodeGatedNegation adds sel ⇒ ¬C(check): under the selector, the
// check's guard holds and some argument breaches the bound. It reports
// false when the negation is unsatisfiable regardless of selector.
func (e *encoder) encodeGatedNegation(ch constraint.Check, sel sat.Lit) bool {
	g := e.encodeGuard(ch.Guard)
	if g.isConst && !g.b {
		return false // unreachable: the check can never fail
	}
	if !g.isConst {
		e.addClause(sel.Not(), g.lit)
	}

	bad := e.badElems(ch.Origin.Bound)
	var fail []sat.Lit
	for _, arg := range ch.Origin.Args {
		v := e.encodeExpr(arg.Expr)
		if v.isConst {
			if bad[v.c] {
				return true // constant violation: guard clause suffices
			}
			continue
		}
		for a, av := range v.vars {
			if bad[lattice.Elem(a)] {
				fail = append(fail, sat.Lit(av))
			}
		}
	}
	if len(fail) == 0 {
		return false
	}
	e.addClause(append(fail, sel.Not())...)
	return true
}

// DecodeBranches reads the branch assignment restricted to check i's
// prefix out of a SAT model.
func (ea *EncodedAll) DecodeBranches(check int, model []bool) map[int]bool {
	out := make(map[int]bool)
	for _, id := range ea.prefixBranches[check] {
		v := ea.BranchVars[id]
		if v < len(model) {
			out[id] = model[v]
		}
	}
	return out
}

// BlockingClause builds the gated negation clause for check i's current
// model: it excludes this branch assignment only while the check's
// selector is assumed. restrictTo, when non-nil, limits the clause to
// those branch IDs.
func (ea *EncodedAll) BlockingClause(check int, model []bool, restrictTo map[int]bool) []sat.Lit {
	out := []sat.Lit{ea.Selectors[check].Not()}
	for _, id := range ea.prefixBranches[check] {
		if restrictTo != nil {
			if _, ok := restrictTo[id]; !ok {
				continue
			}
		}
		v := ea.BranchVars[id]
		out = append(out, sat.MkLit(v, model[v]))
	}
	if len(out) == 1 {
		return nil // nothing trace-identifying to block on
	}
	return out
}
