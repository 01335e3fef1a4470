package core

import (
	"context"
	"time"

	"webssari/internal/ai"
	"webssari/internal/cnf"
	"webssari/internal/constraint"
	"webssari/internal/sat"
	"webssari/internal/telemetry"
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

// VerifyAIShared verifies every assertion with a single incremental
// solver: CompileAI followed by SolveShared. It produces the same
// counterexample sets as VerifyAI in its default configuration, and —
// unlike earlier revisions — also supports AssumePriorAsserts, realized
// as hold-selector assumptions rather than re-encoded constraints.
func VerifyAIShared(prog *ai.Program, opts Options) (*Result, error) {
	p, err := CompileAI(prog)
	if err != nil {
		return nil, err
	}
	return SolveShared(opts.context(), p, opts)
}

// SolveShared is the shared-solver back end over a compiled Program.
// Unlike Solve it is inherently sequential — the incremental solver's
// learnt-clause state is serial — but like Solve it never writes into the
// Program, so it can run beside concurrent Solves of the same artifact.
//
// AssumePriorAsserts is honored through prior-check hold selectors: the
// shared encoding carries a gated positive encoding of every assertion,
// and checking assertion i assumes the hold selector of every j < i
// alongside i's own negation selector — the paper's C(c,g) ∧
// C(assert_j, g) restriction without mutating the clause database
// between checks.
func SolveShared(ctx context.Context, p *Program, opts Options) (*Result, error) {
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
		Unit:    p.Unit,
		// Copied, not aliased: the Program may be shared across solves.
		Warnings:    append([]string(nil), p.AI.Warnings...),
		ParseErrors: append([]string(nil), p.ParseErrors...),
	}

	ctx, ssp := telemetry.StartSpan(ctx, "solve_shared", "asserts", len(sys.Checks))
	defer ssp.End()

	// The one whole-program encoding is charged to assertion 0, and each
	// assertion's enumeration is its search, so the profile counts one
	// encode and one search per searched assertion.
	encStart := time.Now()
	_, esp := telemetry.StartSpan(ctx, "encode")
	encoded := cnf.EncodeAllChecks(sys, opts.cnfOptions())
	esp.End()
	encodeTime := time.Since(encStart)
	sopts := opts.Solver
	sopts.Interrupt = interruptFor(ctx, opts.Solver.Interrupt)
	solver := sat.NewWith(sopts)
	loaded := encoded.F.LoadInto(solver)

	// When the caller seeded prior SAFE verdicts, fingerprint every
	// check once up front, exactly as Solve does.
	var fps []string
	if len(opts.KnownSafeChecks) > 0 {
		fps = p.CheckFingerprints()
	}

	for i := range sys.Checks {
		if fps != nil && opts.KnownSafeChecks[fps[i]] {
			res.PerAssert = append(res.PerAssert, &AssertResult{
				Assert: sys.Checks[i].Origin,
				Reused: true,
			})
			continue
		}
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
		_, srsp := telemetry.StartSpan(ctx, "search", "index", i)
		err := enumerateShared(sys, encoded, solver, i, opts, ar)
		srsp.End()
		ar.SearchTime = time.Since(searchStart)
		if err != nil {
			return res, err
		}
		sortCounterexamples(ar)
	}
	if len(res.PerAssert) > 0 {
		res.PerAssert[0].EncodeTime = encodeTime
	}
	return res, nil
}

func ctxErr(opts Options) error { return opts.context().Err() }

func enumerateShared(
	sys *constraint.System,
	encoded *cnf.EncodedAll,
	solver *sat.Solver,
	idx int,
	opts Options,
	ar *AssertResult,
) error {
	target := sys.Checks[idx].Origin
	assumptions := encoded.PriorAssumptions(idx)
	seen := make(map[string]bool)
	for {
		verdict := solver.SolveAssuming(assumptions)
		ar.SolverStats = solver.Stats()
		if verdict == sat.Unsat {
			return nil
		}
		if verdict != sat.Sat {
			// Budget exhausted or interrupted: undecided, never "safe".
			ar.Unknown = true
			if ctxErr(opts) != nil {
				ar.Cause = CauseDeadline
			} else {
				ar.Cause = CauseConflictBudget
			}
			return nil
		}
		model := solver.Model()
		branches := encoded.DecodeBranches(idx, model)

		cex := replayTrace(sys.Renamed, target, branches)
		if cex != nil && !seen[cex.Key()] {
			seen[cex.Key()] = true
			ar.Counterexamples = append(ar.Counterexamples, cex)
			if len(ar.Counterexamples) >= opts.MaxCounterexamples {
				ar.Truncated = true
				return nil
			}
		}

		var blocking []sat.Lit
		if opts.BlockAllBN || cex == nil {
			blocking = encoded.BlockingClause(idx, model, nil)
		} else {
			blocking = encoded.BlockingClause(idx, model, cex.Branches)
		}
		if blocking == nil {
			return nil // single trace class exhausted
		}
		if !solver.AddClause(blocking...) {
			return nil
		}
	}
}
