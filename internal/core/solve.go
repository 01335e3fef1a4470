package core

// This file is the engine's back end: per-assertion CNF encoding and the
// CDCL all-counterexample enumeration loop of §3.3.2, run over the
// immutable Program artifact the front end (compile.go) produced. Because
// a Program is never written after compilation, independent Solves over
// one shared Program can run concurrently; every piece of per-solve state
// (solver instance, seen-set, result slices, warning lists) lives on this
// side of the split.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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
	rp := newReplayer(sys.Renamed, check.Origin, encoded)
	var model []bool
	var blocking []sat.Lit
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
		model = solver.ModelInto(model)

		violated := rp.replay(model)
		if violated && !seen[string(rp.key)] {
			cex := rp.counterexample()
			seen[cex.key] = true
			ar.Counterexamples = append(ar.Counterexamples, cex)
			if len(ar.Counterexamples) >= opts.MaxCounterexamples {
				ar.Truncated = true
				return
			}
		}

		// Make B_i more restrictive: B_i^{j+1} = B_i^j ∧ N_i^j. A path
		// that decides no branch reaches the assertion under every
		// model, so its single trace class is then exhausted.
		blocking = blocking[:0]
		switch {
		case opts.BlockAllBN || !violated:
			blocking = encoded.BlockingClause(blocking, model, nil)
		case len(rp.decisions) > 0:
			blocking = encoded.BlockingClause(blocking, model, rp.decisions)
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

// replayer walks the renamed program along a model's branch decisions
// (§3.3.2: "we can trace the AI and generate a sequence of single
// assignments"), recording the executed single assignments, and checks
// the target assertion. One replayer serves every model of one
// assertion's enumeration: it walks into scratch buffers it keeps, and a
// counterexample copies them out, so a replay allocates per trace, not
// per step or decision.
type replayer struct {
	p      *rename.Program
	target *rename.Assert
	enc    *cnf.Encoded
	model  []bool
	env    map[string]lattice.Elem

	// The last replay's trace: its steps, its decisions (ascending by
	// branch ID once replay returns), the failing argument indexes, the
	// distinct violating variables, and its key.
	steps     []Step
	decisions []Decision
	failing   []int
	violating []rename.SSAVar
	key       []byte
}

func newReplayer(p *rename.Program, target *rename.Assert, enc *cnf.Encoded) *replayer {
	return &replayer{p: p, target: target, enc: enc, env: make(map[string]lattice.Elem)}
}

// replay walks the path the model's branch variables choose and reports
// whether the target assertion fails on it. It is false when the path
// stops before the assertion or passes it (possible only in BlockAllBN
// mode quirks). A branch without a variable in the model reads as not
// taken.
func (r *replayer) replay(model []bool) bool {
	r.model = model
	clear(r.env)
	r.steps, r.decisions = r.steps[:0], r.decisions[:0]
	r.failing, r.violating = r.failing[:0], r.violating[:0]
	r.walk(r.p.Cmds)
	if len(r.failing) == 0 {
		return false
	}
	// The walk meets branches in program order, which ascends by ID
	// unless inlining or includes interleaved the numbering.
	for i := 1; i < len(r.decisions); i++ {
		if r.decisions[i].ID <= r.decisions[i-1].ID {
			slices.SortStableFunc(r.decisions, func(a, b Decision) int { return cmp.Compare(a.ID, b.ID) })
			r.decisions = slices.CompactFunc(r.decisions, func(a, b Decision) bool { return a.ID == b.ID })
			break
		}
	}
	r.key = ai.AppendTraceKey(r.key[:0], r.target.Origin, r.decisions)
	return true
}

// counterexample copies the last replay's trace out of the scratch
// buffers. replay must have returned true.
func (r *replayer) counterexample() *Counterexample {
	return &Counterexample{
		Assert:      r.target,
		Branches:    slices.Clone(r.decisions),
		Steps:       slices.Clone(r.steps),
		Violating:   slices.Clone(r.violating),
		FailingArgs: slices.Clone(r.failing),
		key:         string(r.key),
	}
}

// walk runs a command sequence; it returns false once the path stops or
// reaches the target assertion.
func (r *replayer) walk(cmds []rename.Cmd) bool {
	for _, c := range cmds {
		switch c := c.(type) {
		case *rename.Set:
			val := r.eval(c.RHS)
			r.env[c.V.Name] = val
			r.steps = append(r.steps, Step{Set: c, Value: val})
		case *rename.Assert:
			if c != r.target {
				continue
			}
			r.check(c)
			return false
		case *rename.If:
			v, ok := r.enc.BranchVars[c.ID]
			taken := ok && v < len(r.model) && r.model[v]
			r.decisions = append(r.decisions, Decision{ID: c.ID, Taken: taken})
			arm := c.Then
			if !taken {
				arm = c.Else
			}
			if !r.walk(arm) {
				return false
			}
		case *rename.Stop:
			return false
		}
	}
	return true
}

// check records the target's failing arguments and, for each, the
// distinct variables it reads whose own type breaches the bound.
func (r *replayer) check(c *rename.Assert) {
	lat := r.p.AI.Lat
	for i, arg := range c.Args {
		if lat.Lt(r.eval(arg.Expr), c.Bound) {
			continue
		}
		r.failing = append(r.failing, i)
		r.blame(arg.Expr, c.Bound)
	}
}

// blame records the variables e reads whose own type breaches bound,
// each once.
func (r *replayer) blame(e rename.Expr, bound lattice.Elem) {
	switch e := e.(type) {
	case rename.Ref:
		if !r.p.AI.Lat.Lt(r.typeOf(e.V), bound) && !slices.Contains(r.violating, e.V) {
			r.violating = append(r.violating, e.V)
		}
	case rename.Join:
		for _, part := range e.Parts {
			r.blame(part, bound)
		}
	}
}

func (r *replayer) typeOf(v rename.SSAVar) lattice.Elem {
	if t, ok := r.env[v.Name]; ok {
		return t
	}
	return r.p.AI.InitialType(v.Name)
}

func (r *replayer) eval(e rename.Expr) lattice.Elem {
	lat := r.p.AI.Lat
	switch e := e.(type) {
	case rename.Const:
		return e.Type
	case rename.Ref:
		return r.typeOf(e.V)
	case rename.Join:
		acc := lat.Bottom()
		for _, part := range e.Parts {
			acc = lat.Join(acc, r.eval(part))
		}
		return acc
	default:
		return lat.Top()
	}
}
