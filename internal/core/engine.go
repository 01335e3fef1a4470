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
	"sort"
	"time"

	"webssari/internal/ai"
	"webssari/internal/cnf"
	"webssari/internal/constraint"
	"webssari/internal/flow"
	"webssari/internal/ir"
	"webssari/internal/lattice"
	"webssari/internal/php/ast"
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
	// encoding that trips a cap degrades that assertion to Unknown
	// instead of exhausting memory. Zero means DefaultMaxVars /
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
	// fixing-set analysis — so NewOptions leaves it off; it is measured as
	// an ablation in bench_test.go.
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
	// Mode selects the back-end strategy: per-assertion solvers (the
	// paper's loop, the default) or one shared incremental solver. Both
	// modes produce identical verdicts and counterexample sets —
	// counterexamples are canonically ordered by trace key in each — so
	// Mode is verdict-neutral.
	Mode SolveMode
	// Parallelism bounds how many assertions one Solve checks
	// concurrently. Zero or one means sequential (the default, which
	// reproduces the paper's loop exactly); results are identical either
	// way because each assertion's check is deterministic and results are
	// assembled in assertion order.
	Parallelism int
	// Workers, when set, is a slot pool shared with the caller (project
	// verification shares one pool between its file-level fan-out and each
	// file's assertion-level fan-out). The caller is assumed to already
	// hold one slot; Solve takes extra slots with TryAcquire only and
	// always works inline on the caller's slot, so the sharing cannot
	// deadlock. Workers takes precedence over Parallelism.
	Workers *Pool
	// KnownSafeChecks holds check fingerprints (see CheckFingerprint)
	// proved safe by a previous run under the same configuration. An
	// assertion whose fingerprint is in the set is not re-solved: its
	// constraint slice is unchanged, so the prior UNSAT verdict still
	// holds, and Solve returns a Reused result for it. Only SAFE verdicts
	// may be seeded here — a fingerprint covers the formula B_i, and
	// reusing anything weaker (Unknown, violated) would skip work whose
	// outcome callers expect re-derived (counterexample traces, causes).
	KnownSafeChecks map[string]bool
}

// SolveMode selects the back-end solving strategy (Options.Mode).
type SolveMode int

const (
	// ModePerAssert builds one fresh CNF and solver per assertion — the
	// paper's loop, and the reference every other mode must match.
	ModePerAssert SolveMode = iota
	// ModeShared encodes the whole program once and checks each
	// assertion under a selector assumption on one incremental solver,
	// retaining learnt clauses across assertions.
	ModeShared
)

// String returns the mode's wire spelling.
func (m SolveMode) String() string {
	switch m {
	case ModeShared:
		return "shared"
	default:
		return "per-assert"
	}
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

// NewOptions returns the default engine configuration for the given flow
// options.
func NewOptions(f flow.Options) Options {
	return Options{Flow: f}
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

// Counterexample is one error trace: a branch resolution under which an
// assertion fails, together with the single-assignment sequence (§3.3.2:
// "we can trace the AI and generate a sequence of single assignments,
// which represents one counterexample trace").
type Counterexample struct {
	// Assert is the violated assertion.
	Assert *rename.Assert
	// Branches is the trace identity: every branch decision encountered on
	// the path, by branch ID.
	Branches map[int]bool
	// Steps is the executed single-assignment sequence, in order.
	Steps []Step
	// Violating lists the violating variables: the renamed variables read
	// by the failing assertion arguments whose own type breaches the bound
	// (§3.3.3).
	Violating []rename.SSAVar
	// FailingArgs indexes Assert.Args entries that breached the bound.
	FailingArgs []int
}

// Key returns a canonical identity (assert site + branch decisions),
// comparable with ai.Violation.Key.
func (c *Counterexample) Key() string {
	ids := make([]int, 0, len(c.Branches))
	for id := range c.Branches {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	key := fmt.Sprintf("%s|%s|", c.Assert.Origin.Site, c.Assert.Origin.Fn)
	for _, id := range ids {
		if c.Branches[id] {
			key += fmt.Sprintf("+%d", id)
		} else {
			key += fmt.Sprintf("-%d", id)
		}
	}
	return key
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
	// step never ran: no encode for an assertion skipped at the deadline,
	// reused, or faulted; no search for one the encoder decided. In
	// shared mode the single whole-program encoding is charged to
	// assertion 0.
	EncodeTime time.Duration
	SearchTime time.Duration
	// Reused is set when the assertion was not solved at all: its check
	// fingerprint matched Options.KnownSafeChecks, so the prior SAFE
	// verdict was carried over. A Reused result has no counterexamples,
	// no encoding sizes, and no solver stats.
	Reused bool
}

// Result is a whole-program verification outcome.
type Result struct {
	AI      *ai.Program
	Renamed *rename.Program
	System  *constraint.System
	// Unit is the entry file's lowered flow IR (nil when the run started
	// from a bare AI or was reconstructed from a stored report). The
	// incremental planner persists its function fingerprints.
	Unit *ir.Unit
	// PerAssert holds one entry per assertion, in textual order.
	PerAssert []*AssertResult
	// Warnings carries filter approximation notes.
	Warnings []string
	// ParseErrors records syntax errors the parser recovered from: the
	// model then covers only what parsed, so the result is Incomplete.
	ParseErrors []string
}

// sortCounterexamples puts one assertion's counterexamples into
// canonical trace-key order. Every solve mode applies it, which is what
// makes reports byte-identical across per-assertion and shared
// solving: a complete enumeration always discovers the same *set* of
// trace classes, only the discovery order is heuristic-dependent.
func sortCounterexamples(ar *AssertResult) {
	if len(ar.Counterexamples) < 2 {
		return
	}
	keys := make(map[*Counterexample]string, len(ar.Counterexamples))
	for _, c := range ar.Counterexamples {
		keys[c] = c.Key()
	}
	sort.SliceStable(ar.Counterexamples, func(i, j int) bool {
		return keys[ar.Counterexamples[i]] < keys[ar.Counterexamples[j]]
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

// Incomplete reports whether any part of the model escaped verification:
// an Unknown assertion, a truncated AI, or recovered parse errors. An
// incomplete result must never be presented as Safe.
func (r *Result) Incomplete() bool { return len(r.IncompleteCauses()) > 0 }

// IncompleteCauses lists the distinct degradation causes, in first-hit
// order (empty for a fully decided run).
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

// VerifySource parses, filters, and verifies one PHP source text: it is
// Compile followed by Solve. A panic in the parser or the filter is
// recovered into a *StageError; recoverable syntax errors are recorded on
// the Result (making it Incomplete) and also returned for callers that
// want them as errors.
func VerifySource(name string, src []byte, opts Options) (*Result, []error) {
	p, errs := Compile(name, src, opts)
	if p == nil {
		return nil, errs
	}
	return Solve(opts.context(), p, opts), errs
}

// VerifyFile verifies an already-parsed file.
func VerifyFile(file *ast.File, opts Options) (*Result, error) {
	p, err := CompileFile(file, opts)
	if err != nil {
		return nil, err
	}
	return Solve(opts.context(), p, opts), nil
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
