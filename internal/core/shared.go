package core

import (
	"context"
	"time"

	"webssari/internal/cnf"
	"webssari/internal/constraint"
	"webssari/internal/sat"
)

// This file implements the shared-solver verification mode: one
// incremental CDCL solver holds the whole program's encoding, and each
// assertion is checked by solving under its selector assumption (see
// internal/cnf/shared.go). Learnt clauses accumulate across assertions
// on the one instance.
//
// Blocking clauses added during counterexample enumeration are not
// implied by the program formula, but each one carries the negation of
// its assertion's selector (cnf.EncodedAll.BlockingClause), so it is
// satisfied — and inert — whenever another assertion is being checked.

// SolveShared is the shared-solver back end over a compiled Program.
// Like Solve it checks the assertions in order and never writes into the
// Program, so it can run beside concurrent Solves of the same artifact.
//
// AssumePriorAsserts is honored through prior-check hold selectors: the
// shared encoding carries a gated positive encoding of every assertion,
// and checking assertion i assumes the hold selector of every j < i
// alongside i's own negation selector — the paper's C(c,g) ∧
// C(assert_j, g) restriction without mutating the clause database
// between checks.
func SolveShared(ctx context.Context, p *Program, opts Options) *Result {
	if ctx == nil {
		ctx = opts.context()
	}
	opts.Ctx = ctx
	if opts.MaxCounterexamples <= 0 {
		opts.MaxCounterexamples = DefaultMaxCEX
	}
	sys := p.System
	res := &Result{
		AI:      p.AI,
		Renamed: p.Renamed,
		System:  sys,
		// Copied, not aliased: the Program may be shared across solves.
		Warnings:    append([]string(nil), p.AI.Warnings...),
		ParseErrors: append([]string(nil), p.ParseErrors...),
	}

	// The one whole-program encoding is charged to assertion 0, and each
	// assertion's enumeration is its search, so the profile counts one
	// encode and one search per searched assertion.
	encStart := time.Now()
	encoded, err := cnf.EncodeAllChecks(sys, opts.cnfOptions())
	encodeTime := time.Since(encStart)
	if err != nil {
		// The whole-program formula tripped a ceiling: no assertion can
		// be decided on it.
		cause := ceilingCause(err)
		for _, ch := range sys.Checks {
			res.PerAssert = append(res.PerAssert, &AssertResult{Assert: ch.Origin, Unknown: true, Cause: cause})
		}
		if len(res.PerAssert) > 0 {
			res.PerAssert[0].EncodeTime = encodeTime
		}
		return res
	}
	sopts := opts.Solver
	sopts.Interrupt = interruptFor(ctx, opts.Solver.Interrupt)
	solver := sat.NewWith(sopts)
	loaded := encoded.F.LoadInto(solver)

	// The one solver's counters are cumulative, so each assertion records
	// only what its enumeration added; the per-assertion stats then sum to
	// the solver's final stats instead of re-counting earlier searches.
	var charged sat.Stats
	for i := range sys.Checks {
		ar := &AssertResult{
			Assert:         sys.Checks[i].Origin,
			EncodedVars:    encoded.F.NumVars,
			EncodedClauses: len(encoded.F.Clauses),
		}
		res.PerAssert = append(res.PerAssert, ar)
		if encoded.TrivialUnsat[i] || !loaded {
			continue
		}
		if err := ctxErr(opts); err != nil {
			ar.Unknown = true
			ar.Cause = CauseDeadline
			continue
		}
		searchStart := time.Now()
		enumerateShared(sys, encoded, solver, i, opts, ar)
		now := solver.Stats()
		ar.SolverStats = now.Sub(charged)
		charged = now
		ar.SearchTime = time.Since(searchStart)
		sortCounterexamples(ar)
	}
	if len(res.PerAssert) > 0 {
		res.PerAssert[0].EncodeTime = encodeTime
	}
	return res
}

func ctxErr(opts Options) error { return opts.context().Err() }

func enumerateShared(
	sys *constraint.System,
	encoded *cnf.EncodedAll,
	solver *sat.Solver,
	idx int,
	opts Options,
	ar *AssertResult,
) {
	target := sys.Checks[idx].Origin
	assumptions := encoded.PriorAssumptions(idx)
	seen := make(map[string]bool)
	for {
		verdict := solver.SolveAssuming(assumptions)
		if verdict == sat.Unsat {
			return
		}
		if verdict != sat.Sat {
			// Budget exhausted or interrupted: undecided, never "safe".
			ar.Unknown = true
			if ctxErr(opts) != nil {
				ar.Cause = CauseDeadline
			} else {
				ar.Cause = CauseConflictBudget
			}
			return
		}
		model := solver.Model()
		branches := encoded.DecodeBranches(idx, model)

		cex := replayTrace(sys.Renamed, target, branches)
		if cex != nil && !seen[cex.Key()] {
			seen[cex.Key()] = true
			ar.Counterexamples = append(ar.Counterexamples, cex)
			if len(ar.Counterexamples) >= opts.MaxCounterexamples {
				ar.Truncated = true
				return
			}
		}

		var blocking []sat.Lit
		if opts.BlockAllBN || cex == nil {
			blocking = encoded.BlockingClause(idx, model, nil)
		} else {
			blocking = encoded.BlockingClause(idx, model, cex.Branches)
		}
		if blocking == nil {
			return // single trace class exhausted
		}
		if !solver.AddClause(blocking...) {
			return
		}
	}
}
