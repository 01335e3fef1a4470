// Package core implements xBMC, the paper's bounded model checker for Web
// application safety (§3.3): the pipeline
//
//	PHP → F(p) → AI(F(p)) → ρ (renaming) → C(c,g) → CNF(B_i) → SAT
//
// with the all-counterexample enumeration loop of §3.3.2. For each
// assertion assert_i, the engine builds B_i = C(c,g) ∧ ¬C(assert_i,g),
// hands CNF(B_i) to the CDCL solver, and while B_i is satisfiable extracts
// a counterexample trace from the truth assignment of the nondeterministic
// branch variables BN, then adds the negation clause of that assignment
// and repeats until B_i is unsatisfiable. Since AI(F(p)) is loop-free, its
// diameter is fixed and the procedure is both sound and complete.
package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"webssari/internal/ai"
	"webssari/internal/cnf"
	"webssari/internal/constraint"
	"webssari/internal/flow"
	"webssari/internal/lattice"
	"webssari/internal/rename"
	"webssari/internal/sat"
)

// Options configures a verification run.
type Options struct {
	// Flow configures the filter (prelude, include loader, loop unroll).
	Flow flow.Options
	// Ctx carries cancellation and a wall-clock deadline for the whole
	// run; nil means context.Background(). Expiry does not abort the
	// run: assertions not yet decided degrade to Unknown and the result
	// is reported Incomplete.
	Ctx context.Context
	// MaxVars and MaxClauses cap each assertion's CNF encoding; an
	// encoding that trips a cap degrades its assertion to Unknown instead
	// of exhausting memory. Zero means DefaultMaxVars /
	// DefaultMaxClauses; negative disables the cap.
	MaxVars    int
	MaxClauses int
	// Hooks injects faults for the robustness test harness; all fields
	// are nil in production use.
	Hooks Hooks
	// AssumePriorAsserts reproduces the paper's incremental restriction:
	// each checked assertion is assumed to hold while checking later ones
	// ("we continue the constraint generation procedure C(c,g) := C(c,g) ∧
	// C(assert_i, g)"). It suppresses downstream duplicates of the same
	// propagation, but an assertion that fails on *every* path then blanks
	// all later assertions, which can hide independent roots from the
	// fixing-set analysis — so it is off by default; it is measured as an
	// ablation in bench_test.go.
	AssumePriorAsserts bool
	// BlockAllBN blocks counterexamples on the full BN assignment, exactly
	// as §3.3.2 describes. The default (false) blocks only the branch
	// decisions actually encountered on the counterexample's path, which
	// enumerates each distinct trace exactly once; the full-BN mode can
	// re-derive the same trace under differing irrelevant branches (an
	// ablation measured in bench_test.go).
	BlockAllBN bool
	// MaxCounterexamples bounds enumeration per assertion (0 = DefaultMaxCEX).
	MaxCounterexamples int
	// Solver tunes the SAT solver (ablations).
	Solver sat.Options
	// Parallelism is ignored: Solve checks a file's assertions one after
	// another, and project runs bound their file pool themselves. The
	// field remains only for callers that still set it.
	Parallelism int
}

// DefaultMaxCEX bounds counterexample enumeration per assertion.
const DefaultMaxCEX = 4096

// Default resource ceilings for per-assertion CNF encodings. They are
// far above anything the paper's corpus produces; tripping one means the
// input is pathological and the assertion degrades to Unknown.
const (
	DefaultMaxVars    = 2_000_000
	DefaultMaxClauses = 8_000_000
)

// Hooks are fault-injection points used by the robustness test harness
// to prove every stage terminates cleanly under loader failures, budget
// exhaustion, and deadline expiry mid-enumeration.
type Hooks struct {
	// BeforeAssert runs at the start of each assertion's encode+solve
	// step, inside its panic-recovery scope.
	BeforeAssert func(idx int)
	// BeforeSolve runs before each solver invocation of the
	// counterexample enumeration loop (iteration counts from 0).
	BeforeSolve func(assertIdx, iteration int)
}

// Degradation causes recorded on Unknown assertion results and surfaced
// as a report's Limits.
const (
	CauseDeadline        = "deadline"
	CauseConflictBudget  = "conflict budget"
	CauseCNFCeiling      = "CNF ceiling"
	CauseAITruncated     = "statement ceiling"
	CauseParseErrors     = "parse errors"
	CauseInternal        = "internal error"
	CauseMissingIncludes = "unresolved includes"
)

// StageError is a structured failure attributed to one pipeline stage,
// produced by panic recovery at stage boundaries so a bug on one input
// can never crash a whole project run.
type StageError struct {
	// Stage names the pipeline stage: "parse", "flow", "constraint",
	// "solve".
	Stage string
	Err   error
}

// Error implements error.
func (e *StageError) Error() string { return fmt.Sprintf("%s stage: %v", e.Stage, e.Err) }

// Unwrap returns the underlying cause.
func (e *StageError) Unwrap() error { return e.Err }

// guard runs fn, converting a panic into a *StageError for the given
// stage.
func guard(stage string, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &StageError{Stage: stage, Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	fn()
	return nil
}

// context returns the run's context, defaulting to Background.
func (o *Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// cnfOptions resolves the encoding options with ceiling defaults.
func (o *Options) cnfOptions() cnf.Options {
	c := cnf.Options{
		AssumePriorAsserts: o.AssumePriorAsserts,
		MaxVars:            o.MaxVars,
		MaxClauses:         o.MaxClauses,
	}
	if c.MaxVars == 0 {
		c.MaxVars = DefaultMaxVars
	} else if c.MaxVars < 0 {
		c.MaxVars = 0
	}
	if c.MaxClauses == 0 {
		c.MaxClauses = DefaultMaxClauses
	} else if c.MaxClauses < 0 {
		c.MaxClauses = 0
	}
	return c
}

// Step is one executed single assignment on a counterexample trace.
type Step struct {
	// Set is the renamed assignment.
	Set *rename.Set
	// Value is the safety type the assignment computed on this path.
	Value lattice.Elem
}

// Decision is one branch decision on a counterexample trace: the branch
// ID and whether its then-arm was taken.
type Decision = ai.Decision

// Counterexample is one error trace: a branch resolution under which an
// assertion fails, together with the single-assignment sequence (§3.3.2:
// "we can trace the AI and generate a sequence of single assignments,
// which represents one counterexample trace").
type Counterexample struct {
	// Assert is the violated assertion.
	Assert *rename.Assert
	// Branches is the trace identity: every branch decision encountered on
	// the path, strictly ascending by branch ID.
	Branches []Decision
	// Steps is the executed single-assignment sequence, in order.
	Steps []Step
	// Violating lists the violating variables: the renamed variables read
	// by the failing assertion arguments whose own type breaches the bound
	// (§3.3.3).
	Violating []rename.SSAVar
	// FailingArgs indexes Assert.Args entries that breached the bound.
	FailingArgs []int

	// key caches Key, set by the replayer before the value escapes.
	key string
}

// Key returns the canonical trace identity, ai.AppendTraceKey's bytes for
// the assertion and its decisions, so it is comparable with
// ai.Violation.Key. Branches being sorted, it needs no sort. The
// model checker computes it once, when it builds the counterexample; a
// Counterexample built any other way computes it on every call and never
// stores it, so Key writes nothing and is safe on a Result shared across
// goroutines.
func (c *Counterexample) Key() string {
	if c.key != "" {
		return c.key
	}
	var buf [128]byte
	return string(ai.AppendTraceKey(buf[:0], c.Assert.Origin, c.Branches))
}

// AssertResult is the verification outcome for one assertion.
type AssertResult struct {
	Assert *rename.Assert
	// Counterexamples is empty iff the assertion provably holds (UNSAT)
	// and Unknown is unset.
	Counterexamples []*Counterexample
	// Truncated is set when enumeration stopped at MaxCounterexamples;
	// the violation verdict itself is still exact.
	Truncated bool
	// Unknown is set when the verifier gave up before deciding the
	// assertion (deadline, conflict budget, resource ceiling, recovered
	// fault): the assertion is neither proved nor refuted, so a result
	// containing one must never be reported Safe.
	Unknown bool
	// Cause names what degraded an Unknown result (one of the Cause*
	// constants, optionally with detail).
	Cause string
	// EncodedVars and EncodedClauses record the CNF(B_i) size.
	EncodedVars    int
	EncodedClauses int
	// SolverStats aggregates the SAT search effort for this assertion.
	SolverStats sat.Stats
	// EncodeTime and SearchTime split this assertion's wall time between
	// CNF encoding and the SAT enumeration loop. Each is zero when its
	// step never ran: no encode for an assertion skipped at the deadline
	// or faulted; no search for one the encoder decided.
	EncodeTime time.Duration
	SearchTime time.Duration
}

// Result is a whole-program verification outcome.
type Result struct {
	AI      *ai.Program
	Renamed *rename.Program
	System  *constraint.System
	// PerAssert holds one entry per assertion, in textual order.
	PerAssert []*AssertResult
	// Warnings carries filter approximation notes.
	Warnings []string
	// ParseErrors records syntax errors the parser recovered from: the
	// model then covers only what parsed, so the result is Incomplete.
	ParseErrors []string
}

// sortCounterexamples puts one assertion's counterexamples into
// canonical trace-key order. A complete enumeration always discovers the
// same *set* of trace classes, but the order it discovers them in
// depends on the solver's heuristics (decision order, learning,
// restarts); sorting makes the order a function of the set alone. The
// order is lexicographic over the key bytes ("+10" sorts before "+9"),
// and reports depend on it byte for byte (testdata/report_identity.golden).
func sortCounterexamples(ar *AssertResult) {
	slices.SortStableFunc(ar.Counterexamples, func(a, b *Counterexample) int {
		return strings.Compare(a.Key(), b.Key())
	})
}

// Counterexamples returns all counterexamples across assertions.
func (r *Result) Counterexamples() []*Counterexample {
	var out []*Counterexample
	for _, ar := range r.PerAssert {
		out = append(out, ar.Counterexamples...)
	}
	return out
}

// Safe reports whether every assertion holds on every path — the paper's
// soundness guarantee ("Soundness guarantees the absence of bugs"). It
// only inspects decided assertions; callers presenting a verdict must
// also consult Incomplete, since a degraded run proves nothing about
// what it skipped.
func (r *Result) Safe() bool {
	for _, ar := range r.PerAssert {
		if len(ar.Counterexamples) > 0 {
			return false
		}
	}
	return true
}

// IncompleteCauses lists the distinct degradation causes, in first-hit
// order (empty for a fully decided run): an Unknown assertion, a
// truncated AI, or recovered parse errors. An incomplete result must
// never be presented as Safe.
func (r *Result) IncompleteCauses() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(cause string) {
		if cause != "" && !seen[cause] {
			seen[cause] = true
			out = append(out, cause)
		}
	}
	if len(r.ParseErrors) > 0 {
		add(CauseParseErrors)
	}
	if r.AI != nil && r.AI.Truncated {
		add(CauseAITruncated)
	}
	if r.AI != nil && len(r.AI.UnresolvedIncludes) > 0 {
		add(CauseMissingIncludes)
	}
	for _, ar := range r.PerAssert {
		if ar.Unknown {
			add(ar.Cause)
		}
	}
	return out
}

// VerifyAI runs the model checker over an abstract interpretation: it is
// CompileAI followed by Solve. The returned error is non-nil only when a
// whole pipeline stage fails (constraint construction panicking).
func VerifyAI(prog *ai.Program, opts Options) (*Result, error) {
	p, err := CompileAI(prog)
	if err != nil {
		return nil, err
	}
	return Solve(opts.context(), p, opts), nil
}
