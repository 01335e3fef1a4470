package core

// This file is the engine's back end: per-assertion CNF encoding and the
// CDCL all-counterexample enumeration loop of §3.3.2, run over the
// immutable Program artifact the front end (compile.go) produced. Because
// a Program is never written after compilation, independent Solves over
// one shared Program can run concurrently; every piece of per-solve state
// (solver instance, seen-set, result slices, warning lists) lives on this
// side of the split.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"webssari/internal/ai"
	"webssari/internal/cnf"
	"webssari/internal/constraint"
	"webssari/internal/lattice"
	"webssari/internal/rename"
	"webssari/internal/sat"
)

// Solve runs the model checker over a compiled Program: the §3.3.2 loop,
// checking the assertions one after another in order.
//
// Faults are isolated per assertion: a tripped resource ceiling, an
// exhausted budget, an expired deadline, or a recovered panic degrades
// that assertion to Unknown (with its cause) and the run moves on, so one
// pathological assertion can neither hang nor blank the rest of the
// result.
//
// ctx carries cancellation and the wall-clock deadline; nil means
// opts.Ctx, then context.Background().
func Solve(ctx context.Context, p *Program, opts Options) *Result {
	if ctx == nil {
		ctx = opts.context()
	}
	if opts.MaxCounterexamples <= 0 {
		opts.MaxCounterexamples = DefaultMaxCEX
	}
	sys := p.System
	res := &Result{
		AI:      p.AI,
		Renamed: p.Renamed,
		System:  sys,
		// Copy, never alias: the Program (and its AI) may be shared by
		// concurrent solves, so per-solve appends must not write into the
		// shared slices' backing arrays.
		Warnings:    append([]string(nil), p.AI.Warnings...),
		ParseErrors: append([]string(nil), p.ParseErrors...),
	}

	n := len(sys.Checks)
	if n == 0 {
		return res
	}
	for idx := range sys.Checks {
		if ctx.Err() != nil {
			// Deadline expired: degrade instead of aborting, so the report
			// still has one entry per assertion and callers can see exactly
			// what went unchecked.
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"deadline expired before assert_%d: %d assertion(s) unchecked", idx, n-idx))
			for _, check := range sys.Checks[idx:] {
				res.PerAssert = append(res.PerAssert, &AssertResult{
					Assert:  check.Origin,
					Unknown: true,
					Cause:   CauseDeadline,
				})
			}
			break
		}
		ar, err := checkAssertion(ctx, sys, idx, opts)
		if err != nil {
			// Fault isolation: a panic or internal error in one
			// assertion's encode/solve degrades it to Unknown.
			ar = &AssertResult{
				Assert:  sys.Checks[idx].Origin,
				Unknown: true,
				Cause:   CauseInternal,
			}
			res.Warnings = append(res.Warnings, fmt.Sprintf("assert_%d degraded: %v", idx, err))
		}
		res.PerAssert = append(res.PerAssert, ar)
	}
	return res
}

// checkAssertion runs the per-assertion enumeration loop of §3.3.2. A
// panic anywhere in encode/solve/replay is recovered into a *StageError
// so the caller can degrade just this assertion. All state is local: the
// constraint system is only read, the solver is freshly constructed, and
// opts is a value copy, so concurrent Solves can share one System.
func checkAssertion(ctx context.Context, sys *constraint.System, idx int, opts Options) (ar *AssertResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			ar, err = nil, &StageError{Stage: "solve", Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	if opts.Hooks.BeforeAssert != nil {
		opts.Hooks.BeforeAssert(idx)
	}
	check := sys.Checks[idx]
	ar = &AssertResult{Assert: check.Origin}

	encStart := time.Now()
	encoded, err := cnf.EncodeCheck(sys, idx, opts.cnfOptions())
	ar.EncodeTime = time.Since(encStart)
	var lim *cnf.LimitError
	if errors.As(err, &lim) {
		ar.Unknown = true
		ar.Cause = ceilingCause(lim)
		return ar, nil
	}
	if err != nil {
		return nil, err
	}
	ar.EncodedVars = encoded.F.NumVars
	ar.EncodedClauses = len(encoded.F.Clauses)
	if encoded.Trivial == cnf.TrivialUnsat {
		return ar, nil
	}

	enumerateAssert(ctx, sys, idx, encoded, opts, ar)
	return ar, nil
}

// ceilingCause is the degradation cause of an assertion whose encoding
// tripped a resource ceiling.
func ceilingCause(err error) string {
	return fmt.Sprintf("%s (%s)", CauseCNFCeiling, err)
}

// enumerateAssert runs the counterexample enumeration loop of §3.3.2
// over an already encoded check, on a fresh solver built from
// opts.Solver (the context interrupt is merged in here). It fills ar's
// search-side fields and leaves the counterexamples in canonical
// trace-key order.
func enumerateAssert(ctx context.Context, sys *constraint.System, idx int, encoded *cnf.Encoded, opts Options, ar *AssertResult) {
	check := sys.Checks[idx]
	sopts := opts.Solver
	sopts.Interrupt = interruptFor(ctx, sopts.Interrupt)
	solver := sat.NewWith(sopts)

	// The search below has several exit paths (including clause loading
	// detecting trivial unsatisfiability); a deferred close stamps the
	// search duration on every one of them, so the profile counts one
	// search per assertion that reached the solver.
	searchStart := time.Now()
	defer func() {
		ar.SearchTime = time.Since(searchStart)
		sortCounterexamples(ar)
	}()

	if !encoded.F.LoadInto(solver) {
		return
	}

	seen := make(map[string]bool)
	for iteration := 0; ; iteration++ {
		if opts.Hooks.BeforeSolve != nil {
			opts.Hooks.BeforeSolve(idx, iteration)
		}
		if ctx.Err() != nil {
			ar.Unknown = true
			ar.Cause = CauseDeadline
			return
		}
		verdict := solver.Solve()
		ar.SolverStats = solver.Stats()
		if verdict == sat.Unsat {
			return
		}
		if verdict != sat.Sat {
			// The solver gave up: either the wall-clock deadline fired
			// through the interrupt, or the conflict budget ran out. An
			// undecided assertion must never read as "no counterexample",
			// so mark it Unknown rather than silently returning.
			ar.Unknown = true
			if ctx.Err() != nil {
				ar.Cause = CauseDeadline
			} else {
				ar.Cause = CauseConflictBudget
			}
			return
		}
		model := solver.Model()
		branches := encoded.DecodeBranches(model)

		cex := replayTrace(sys.Renamed, check.Origin, branches)
		if cex != nil && !seen[cex.Key()] {
			seen[cex.Key()] = true
			ar.Counterexamples = append(ar.Counterexamples, cex)
			if len(ar.Counterexamples) >= opts.MaxCounterexamples {
				ar.Truncated = true
				return
			}
		}

		// Make B_i more restrictive: B_i^{j+1} = B_i^j ∧ N_i^j.
		var blocking []sat.Lit
		if opts.BlockAllBN || cex == nil {
			blocking = encoded.BlockingClause(model, nil)
		} else {
			blocking = encoded.BlockingClause(model, cex.Branches)
		}
		if len(blocking) == 0 {
			// No branch variables: the single model class is exhausted.
			return
		}
		if !solver.AddClause(blocking...) {
			return
		}
	}
}

// interruptFor combines context cancellation with any caller-supplied
// solver interrupt, returning nil when neither can ever fire. The
// returned func may be polled from concurrently running solver instances,
// so caller-supplied interrupts must be safe for concurrent calls (the
// robustness harness exercises this).
func interruptFor(ctx context.Context, prev func() bool) func() bool {
	if ctx.Done() == nil {
		return prev
	}
	if prev == nil {
		return func() bool { return ctx.Err() != nil }
	}
	return func() bool { return ctx.Err() != nil || prev() }
}

// replayTrace walks the renamed program along the given branch decisions,
// recording the executed single assignments, and checks the target
// assertion. It returns nil when the path does not actually violate the
// assertion (possible only in BlockAllBN mode quirks or when the path
// stops early).
func replayTrace(p *rename.Program, target *rename.Assert, branches map[int]bool) *Counterexample {
	cex := &Counterexample{
		Assert:   target,
		Branches: make(map[int]bool),
	}
	env := make(map[string]lattice.Elem)
	typeOf := func(v rename.SSAVar) lattice.Elem {
		if t, ok := env[v.Name]; ok {
			return t
		}
		return p.AI.InitialType(v.Name)
	}
	var evalExpr func(e rename.Expr) lattice.Elem
	evalExpr = func(e rename.Expr) lattice.Elem {
		switch e := e.(type) {
		case rename.Const:
			return e.Type
		case rename.Ref:
			return typeOf(e.V)
		case rename.Join:
			acc := p.AI.Lat.Bottom()
			for _, part := range e.Parts {
				acc = p.AI.Lat.Join(acc, evalExpr(part))
			}
			return acc
		default:
			return p.AI.Lat.Top()
		}
	}

	found := false
	var walk func(cmds []rename.Cmd) bool // returns false on stop/target
	walk = func(cmds []rename.Cmd) bool {
		for _, c := range cmds {
			switch c := c.(type) {
			case *rename.Set:
				val := evalExpr(c.RHS)
				env[c.V.Name] = val
				cex.Steps = append(cex.Steps, Step{Set: c, Value: val})
			case *rename.Assert:
				if c != target {
					continue
				}
				for i, arg := range c.Args {
					t := evalExpr(arg.Expr)
					if !p.AI.Lat.Lt(t, c.Bound) {
						cex.FailingArgs = append(cex.FailingArgs, i)
						for _, ref := range rename.ExprRefs(arg.Expr) {
							if !p.AI.Lat.Lt(typeOf(ref), c.Bound) {
								cex.Violating = append(cex.Violating, ref)
							}
						}
					}
				}
				found = len(cex.FailingArgs) > 0
				return false
			case *rename.If:
				taken := branches[c.ID]
				cex.Branches[c.ID] = taken
				arm := c.Then
				if !taken {
					arm = c.Else
				}
				if !walk(arm) {
					return false
				}
			case *rename.Stop:
				return false
			}
		}
		return true
	}
	walk(p.Cmds)
	if !found {
		return nil
	}
	// Deduplicate violating variables.
	uniq := cex.Violating[:0]
	seen := make(map[rename.SSAVar]bool)
	for _, v := range cex.Violating {
		if !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	cex.Violating = uniq
	cex.key = ai.TraceKey(target.Origin, cex.Branches)
	return cex
}
