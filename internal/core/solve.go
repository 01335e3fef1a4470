package core

// This file is the engine's back end: per-assertion CNF encoding and the
// CDCL all-counterexample enumeration loop of §3.3.2, run over the
// immutable Program artifact the front end (compile.go) produced. Because
// a Program is never written after compilation, independent assertions of
// one Solve — and independent Solves over one shared Program — can run
// concurrently; every piece of per-solve state (solver instance, seen-set,
// result slices, warning lists) lives on this side of the split.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"webssari/internal/cnf"
	"webssari/internal/constraint"
	"webssari/internal/lattice"
	"webssari/internal/rename"
	"webssari/internal/sat"
	"webssari/internal/telemetry"
)

// Solve runs the model checker over a compiled Program.
//
// Faults are isolated per assertion: a tripped resource ceiling, an
// exhausted budget, an expired deadline, or a recovered panic degrades
// that assertion to Unknown (with its cause) and the run moves on, so one
// pathological assertion can neither hang nor blank the rest of the
// result. When opts allows parallelism (Options.Parallelism > 1 or a
// shared Options.Workers pool with free slots), independent assertions
// are checked concurrently; the Result is identical to a sequential run
// because each assertion's check is deterministic and results are
// assembled in assertion order.
//
// ctx carries cancellation and the wall-clock deadline; nil means
// opts.Ctx, then context.Background().
func Solve(ctx context.Context, p *Program, opts Options) *Result {
	if ctx == nil {
		ctx = opts.context()
	}
	if opts.Mode == ModeShared {
		// The shared incremental solver has its own (sequential) loop;
		// verdicts and counterexample order are identical by the
		// canonical-ordering argument (see sortCounterexamples).
		res, _ := SolveShared(ctx, p, opts)
		return res
	}
	if opts.MaxCounterexamples <= 0 {
		opts.MaxCounterexamples = DefaultMaxCEX
	}
	sys := p.System
	res := &Result{
		AI:      p.AI,
		Renamed: p.Renamed,
		System:  sys,
		Unit:    p.Unit,
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
	ctx, ssp := telemetry.StartSpan(ctx, "solve", "asserts", n)
	defer ssp.End()
	results := make([]*AssertResult, n)
	degraded := make([]string, n)
	skipped := make([]bool, n)

	// When the caller seeded prior SAFE verdicts, fingerprint every check
	// once up front; matching assertions skip the SAT search entirely.
	var fps []string
	if len(opts.KnownSafeChecks) > 0 {
		fps = p.CheckFingerprints()
	}

	// Work is handed out through an atomic counter, so indices are claimed
	// in assertion order even under concurrency. Context errors are sticky,
	// which makes the skipped set a suffix of the index range exactly as in
	// a sequential run.
	var next int64 = -1
	work := func() {
		for {
			idx := int(atomic.AddInt64(&next, 1))
			if idx >= n {
				return
			}
			if ctx.Err() != nil {
				// Deadline expired: degrade instead of aborting, so the
				// report still has one entry per assertion and callers can
				// see exactly what went unchecked.
				results[idx] = &AssertResult{
					Assert:  sys.Checks[idx].Origin,
					Unknown: true,
					Cause:   CauseDeadline,
				}
				skipped[idx] = true
				continue
			}
			if fps != nil && opts.KnownSafeChecks[fps[idx]] {
				// The assertion's constraint slice is unchanged since a
				// prior run proved it safe: carry the verdict over.
				results[idx] = &AssertResult{
					Assert: sys.Checks[idx].Origin,
					Reused: true,
				}
				continue
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
				degraded[idx] = fmt.Sprintf("assert_%d degraded: %v", idx, err)
			}
			results[idx] = ar
		}
	}

	extra := opts.extraWorkers(n)
	if len(extra) > 0 {
		var wg sync.WaitGroup
		for _, release := range extra {
			wg.Add(1)
			go func(release func()) {
				defer wg.Done()
				if release != nil {
					defer release()
				}
				work()
			}(release)
		}
		work()
		wg.Wait()
	} else {
		work()
	}

	// Deterministic assembly: results and warnings in assertion order.
	firstSkipped, skippedCount := -1, 0
	for idx := 0; idx < n; idx++ {
		res.PerAssert = append(res.PerAssert, results[idx])
		if degraded[idx] != "" {
			res.Warnings = append(res.Warnings, degraded[idx])
		}
		if skipped[idx] {
			if firstSkipped < 0 {
				firstSkipped = idx
			}
			skippedCount++
		}
	}
	if firstSkipped >= 0 {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"deadline expired before assert_%d: %d assertion(s) unchecked", firstSkipped, skippedCount))
	}
	return res
}

// extraWorkers decides how many goroutines to add beside the calling one
// for a fan-out over n work items, returning one release func per extra
// worker (nil when the slot is private rather than pool-backed).
//
// When Workers is set the caller is assumed to already hold a slot of
// that shared pool, so extras are taken with TryAcquire only — never
// blocking — which keeps file-level and assertion-level sharing of one
// pool free of circular waits.
func (o *Options) extraWorkers(n int) []func() {
	var extra []func()
	if o.Workers != nil {
		for i := 1; i < n; i++ {
			if !o.Workers.TryAcquire() {
				break
			}
			extra = append(extra, o.Workers.Release)
		}
		return extra
	}
	p := o.Parallelism
	if p <= 1 {
		return nil
	}
	for i := 1; i < p && i < n; i++ {
		extra = append(extra, nil)
	}
	return extra
}

// checkAssertion runs the per-assertion enumeration loop of §3.3.2. A
// panic anywhere in encode/solve/replay is recovered into a *StageError
// so the caller can degrade just this assertion. All state is local: the
// constraint system is only read, the solver is freshly constructed, and
// opts is a value copy, so any number of checkAssertion calls can run
// concurrently over one System.
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

	// Concurrent assertion checks each get a fresh trace lane so their
	// intervals never interleave on one timeline row; encode/search spans
	// inherit the assertion's lane and nest under it.
	ctx, asp := telemetry.StartRootSpan(ctx, "assert", "index", idx)
	defer asp.End()

	encStart := time.Now()
	_, esp := telemetry.StartSpan(ctx, "encode")
	encoded, err := cnf.EncodeCheck(sys, idx, opts.cnfOptions())
	esp.End()
	ar.EncodeTime = time.Since(encStart)
	var lim *cnf.LimitError
	if errors.As(err, &lim) {
		ar.Unknown = true
		ar.Cause = fmt.Sprintf("%s (%s)", CauseCNFCeiling, lim.Error())
		return ar, nil
	}
	if err != nil {
		return nil, err
	}
	ar.EncodedVars = encoded.F.NumVars
	ar.EncodedClauses = len(encoded.F.Clauses)
	asp.SetArg("vars", ar.EncodedVars)
	asp.SetArg("clauses", ar.EncodedClauses)
	if encoded.Trivial == cnf.TrivialUnsat {
		return ar, nil
	}

	enumerateAssert(ctx, sys, idx, encoded, opts, ar)
	return ar, nil
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
	// search span and duration on every one of them, keeping the trace
	// consistent with the profile's per-assertion search count.
	searchStart := time.Now()
	_, srsp := telemetry.StartSpan(ctx, "search")
	defer func() {
		srsp.End()
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
	return cex
}
