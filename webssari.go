// Package webssari is a Go reproduction of WebSSARI's bounded-model-
// checking verifier for Web application security (Huang, Yu, Hang, Tsai,
// Lee, Kuo: "Verifying Web Applications Using Bounded Model Checking",
// DSN 2004).
//
// The library statically verifies PHP code against taint-style
// vulnerabilities (cross-site scripting, SQL injection, command injection,
// remote file inclusion) formalized as a secure-information-flow problem,
// and automatically patches vulnerable code with sanitization runtime
// guards. The verification pipeline is the paper's xBMC1.0:
//
//	PHP  →  F(p)  →  AI(F(p))  →  ρ (single assignment)  →  C(c,g)  →  CNF(B_i)  →  SAT
//
// Because the abstract interpretation is loop-free (fixed diameter),
// bounded model checking is sound and complete: a Safe verdict proves the
// absence of information-flow bugs in the model, and every counterexample
// corresponds to a concrete tainted path. Counterexamples are grouped by
// root cause: the minimal set of error introductions whose sanitization
// removes every error trace (a MINIMUM-INTERSECTING-SET instance, solved
// greedily per the paper's §3.3.4).
//
// # Quick start
//
//	rep, err := webssari.Verify([]byte(src), "page.php")
//	if err != nil { ... }
//	if !rep.Safe {
//	    fmt.Print(rep)                            // grouped error report
//	    patched, _, _ := webssari.Patch([]byte(src), "page.php")
//	    os.WriteFile("page.php", patched, 0o644)  // secured PHP
//	}
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package webssari

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"webssari/internal/core"
	"webssari/internal/fixing"
	"webssari/internal/flow"
	"webssari/internal/ir"
	"webssari/internal/lattice"
	"webssari/internal/patch"
	"webssari/internal/policy"
	"webssari/internal/prelude"
	"webssari/internal/report"
	"webssari/internal/sat"
	"webssari/internal/store"
	"webssari/internal/telemetry"
	"webssari/internal/typestate"
)

// The report types are defined in internal/report, which builds them
// and renders them on demand: Report's String method renders the grouped
// text report, so fmt.Print(rep) prints it.
type (
	Report     = report.Report
	Finding    = report.Finding
	TraceStep  = report.TraceStep
	PatchPoint = report.PatchPoint
	Location   = report.Location
)

// The values of Report.Verdict (see internal/report).
const (
	VerdictSafe       = report.VerdictSafe
	VerdictUnsafe     = report.VerdictUnsafe
	VerdictIncomplete = report.VerdictIncomplete
)

// EngineError is a structured analysis failure: the pipeline stage that
// failed (including internal panics recovered at the Verify boundary)
// together with the file being analyzed. It is returned as the error of
// Verify/Patch/VerifyDir variants and recorded in ProjectReport.Failures.
type EngineError struct {
	// Stage names the failed pipeline stage: "parse", "flow",
	// "constraint", "solve", "analysis", "patch", or "report".
	Stage string `json:"stage"`
	// File is the entry file being analyzed.
	File string `json:"file"`
	// Err is the underlying cause.
	Err error `json:"-"`
}

// Error implements error.
func (e *EngineError) Error() string {
	return fmt.Sprintf("webssari: %s: %s stage: %v", e.File, e.Stage, e.Err)
}

// Unwrap returns the underlying cause.
func (e *EngineError) Unwrap() error { return e.Err }

// Option configures Verify and Patch.
type Option func(*config) error

type config struct {
	pre *prelude.Prelude
	// policy is the active security policy (nil = bare default prelude,
	// the seed behavior); policyName/policyJSON record how it was
	// selected so the choice round-trips through ExportConfig and the
	// cluster wire format.
	policy       *policy.Compiled
	policyName   string
	policyJSON   string
	loader       func(string) ([]byte, error)
	dir          string
	unroll       int
	paperMode    bool
	blockAll     bool
	routine      string
	solver       sat.Options
	maxCEX       int
	deadline     time.Duration
	limits       ResourceLimits
	parallelism  int
	telemetry    *telemetry.Telemetry
	resultStore  store.Backend
	observer     func(*Report)
	fileVerifier FileVerifier
	incremental  bool
	depRecorder  func(depRecord)
	// The prelude-shaping options also record their textual form so the
	// resolved configuration round-trips through the exported Config
	// (ExportConfig / WithConfig) — the prelude itself holds only the
	// merged lattice, not where its entries came from.
	preludeText   string
	extraPreludes []string
	sinkSpecs     []SinkSpec
	sanitizers    []string
	sources       []string
}

// WithPrelude replaces the default trust environment with a prelude parsed
// from the given text (see internal prelude format; the default covers the
// common PHP channels).
func WithPrelude(text string) Option {
	return func(c *config) error {
		p, err := prelude.Parse("option", []byte(text))
		if err != nil {
			return err
		}
		c.pre = p
		// Replacing the prelude discards earlier merged-in entries, so the
		// recorded forms reset too — Config mirrors the effective state.
		c.preludeText = text
		c.extraPreludes = nil
		c.sinkSpecs = nil
		c.sanitizers = nil
		c.sources = nil
		return nil
	}
}

// WithPolicy selects a built-in security policy by name (see Policies
// for the available set). The policy supplies the trust environment —
// lattice, sources, sinks, sanitizers — plus sink classes, per-context
// sink bounds, constant-argument sanitizer variants, and the repair
// guards the patcher chooses from. Later WithSink/WithSanitizer/
// WithSource options layer on top of the policy's prelude; a later
// WithPrelude replaces the prelude but keeps the policy's context rules.
func WithPolicy(name string) Option {
	return func(c *config) error {
		p, err := policy.Lookup(name)
		if err != nil {
			return err
		}
		c.policy = p
		c.policyName = name
		c.policyJSON = ""
		c.pre = p.Prelude()
		c.preludeText = ""
		c.extraPreludes = nil
		c.sinkSpecs = nil
		c.sanitizers = nil
		c.sources = nil
		return nil
	}
}

// WithPolicyJSON loads a custom policy from its JSON declaration (the
// format documented in DESIGN.md §15 and written by the built-in
// policies' MarshalJSON). name labels errors, usually the file path.
func WithPolicyJSON(name string, data []byte) Option {
	return func(c *config) error {
		p, err := policy.LoadJSON(name, data)
		if err != nil {
			return err
		}
		c.policy = p
		c.policyName = p.Name()
		c.policyJSON = string(data)
		c.pre = p.Prelude()
		c.preludeText = ""
		c.extraPreludes = nil
		c.sinkSpecs = nil
		c.sanitizers = nil
		c.sources = nil
		return nil
	}
}

// Policies lists the built-in security policies selectable with
// WithPolicy, in sorted order.
func Policies() []string { return policy.Names() }

// WithExtraPrelude merges additional prelude directives (sinks, sources,
// sanitizers, variable types) into the current environment — the
// project-specific prelude files of the paper.
func WithExtraPrelude(text string) Option {
	return func(c *config) error {
		extra, err := prelude.Parse("option", []byte(text))
		if err != nil {
			return err
		}
		if c.pre == nil {
			c.pre = prelude.Default()
		}
		// Re-parse over the existing lattice by registering directly.
		if err := mergeTextual(c.pre, extra); err != nil {
			return err
		}
		c.extraPreludes = append(c.extraPreludes, text)
		return nil
	}
}

// mergeTextual copies definitions from extra (parsed over its own lattice)
// into dst, translating safety types by element name, so user preludes
// need not re-declare the lattice.
func mergeTextual(dst, extra *prelude.Prelude) error {
	translate := func(t string) (int, error) {
		el, ok := dst.Lattice().Lookup(t)
		if !ok {
			return 0, fmt.Errorf("webssari: prelude type %q not in lattice %v", t, dst.Lattice())
		}
		return int(el), nil
	}
	for _, name := range extra.Vars() {
		el, err := translate(extra.Lattice().Name(extra.VarType(name)))
		if err != nil {
			return err
		}
		dst.SetVarType(name, lattice.Elem(el))
	}
	for _, s := range extra.Sinks() {
		el, err := translate(extra.Lattice().Name(s.Bound))
		if err != nil {
			return err
		}
		dst.AddSink(s.Name, lattice.Elem(el), s.Args...)
	}
	for _, s := range extra.Sources() {
		el, err := translate(extra.Lattice().Name(s.Type))
		if err != nil {
			return err
		}
		dst.AddSource(s.Name, lattice.Elem(el))
	}
	for _, s := range extra.Sanitizers() {
		el, err := translate(extra.Lattice().Name(s.Type))
		if err != nil {
			return err
		}
		dst.AddSanitizer(s.Name, lattice.Elem(el))
	}
	return nil
}

// WithSink registers an additional sensitive output channel whose listed
// 1-based argument positions (none = all) must receive trusted data —
// e.g. WithSink("DoSQL", 1) for the paper's PHP Surveyor example.
func WithSink(name string, args ...int) Option {
	return func(c *config) error {
		if c.pre == nil {
			c.pre = prelude.Default()
		}
		c.pre.AddSink(name, c.pre.Lattice().Top(), args...)
		c.sinkSpecs = append(c.sinkSpecs, SinkSpec{Name: name, Args: append([]int(nil), args...)})
		return nil
	}
}

// WithSanitizer registers an additional sanitization routine.
func WithSanitizer(name string) Option {
	return func(c *config) error {
		if c.pre == nil {
			c.pre = prelude.Default()
		}
		c.pre.AddSanitizer(name, c.pre.Lattice().Bottom())
		c.sanitizers = append(c.sanitizers, name)
		return nil
	}
}

// WithSource registers an additional untrusted input channel.
func WithSource(name string) Option {
	return func(c *config) error {
		if c.pre == nil {
			c.pre = prelude.Default()
		}
		c.pre.AddSource(name, c.pre.Lattice().Top())
		c.sources = append(c.sources, name)
		return nil
	}
}

// WithLoader resolves include/require paths, enabling cross-file analysis.
func WithLoader(loader func(path string) ([]byte, error)) Option {
	return func(c *config) error {
		c.loader = loader
		return nil
	}
}

// WithDir sets the base directory for relative include paths and enables a
// filesystem loader rooted there.
func WithDir(dir string) Option {
	return func(c *config) error {
		c.dir = dir
		if c.loader == nil {
			c.loader = func(path string) ([]byte, error) { return os.ReadFile(path) }
		}
		return nil
	}
}

// WithLoopUnroll sets the number of selection copies loops deconstruct
// into (default 1, the paper's single pass).
func WithLoopUnroll(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("webssari: loop unroll must be ≥ 1, got %d", n)
		}
		c.unroll = n
		return nil
	}
}

// WithPaperEnumeration enables the paper's exact §3.3.2 enumeration
// behaviour: prior assertions are assumed to hold while checking later
// ones, and blocking clauses negate the full BN assignment.
func WithPaperEnumeration() Option {
	return func(c *config) error {
		c.paperMode = true
		c.blockAll = true
		return nil
	}
}

// WithRoutine sets the runtime-guard routine name Patch wraps fix points
// in (default "websafe", registered as a sanitizer in the default
// prelude).
func WithRoutine(name string) Option {
	return func(c *config) error {
		c.routine = name
		return nil
	}
}

// WithMaxCounterexamples bounds enumeration per assertion.
func WithMaxCounterexamples(n int) Option {
	return func(c *config) error {
		c.maxCEX = n
		return nil
	}
}

// WithDeadline bounds each verification unit's wall-clock time. When the
// deadline expires mid-run the pipeline does not abort: assertions not
// yet decided degrade to Unknown and the report comes back with
// VerdictIncomplete — never a Safe claim over a partially checked model.
// Under VerifyDir the deadline applies per file, so one pathological
// file cannot starve the rest of the project.
func WithDeadline(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("webssari: deadline must be positive, got %v", d)
		}
		c.deadline = d
		return nil
	}
}

// ResourceLimits caps model and formula sizes so pathological inputs
// degrade into an Incomplete verdict instead of exhausting memory. Zero
// fields keep the engine defaults; negative values disable a cap.
type ResourceLimits struct {
	// MaxStatements caps the AI command count after loop deconstruction
	// and call unfolding (default flow.DefaultMaxCmds).
	MaxStatements int
	// MaxCNFVars and MaxCNFClauses cap each assertion's encoded formula
	// (defaults core.DefaultMaxVars / core.DefaultMaxClauses).
	MaxCNFVars    int
	MaxCNFClauses int
}

// WithResourceLimits overrides the engine's hard resource caps.
func WithResourceLimits(l ResourceLimits) Option {
	return func(c *config) error {
		c.limits = l
		return nil
	}
}

// WithParallelism bounds the file pool of project verification
// (VerifyDir); the default (unset) is GOMAXPROCS and 1 verifies one file
// at a time. Each file's assertions are checked in order, so single-file
// entry points (Verify, Patch, VerifyToHTML) ignore it. Reports are
// identical at every parallelism level — every stage is deterministic and
// results are assembled in file order.
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("webssari: parallelism must be ≥ 1, got %d", n)
		}
		c.parallelism = n
		return nil
	}
}

// Telemetry is the observability sink a run reports into: a metrics
// registry (counters, gauges, histograms — exposable over HTTP via
// ServeMetrics) and a span tracer (exportable as Chrome trace-event JSON
// via WriteTrace). One Telemetry is safe for concurrent use across a
// whole parallel project run. See internal/telemetry for the full API.
type Telemetry = telemetry.Telemetry

// RunProfile is the exportable performance summary attached to every
// Report and ProjectReport (JSON key "profile").
type RunProfile = telemetry.RunProfile

// NewTelemetry returns a Telemetry collecting both metrics and spans.
func NewTelemetry() *Telemetry { return telemetry.New() }

// ServeMetrics starts an HTTP server on addr (":0" picks a free port;
// the chosen address is in the returned server's Addr) exposing the
// telemetry's metrics as a Prometheus text page at /metrics, an expvar
// view at /debug/vars, the pprof handlers under /debug/pprof/, and —
// when the telemetry carries a log flight recorder — recent structured
// log events at /debug/events.
func ServeMetrics(addr string, t *Telemetry) (*telemetry.Server, error) {
	var reg *telemetry.Registry
	var rec *telemetry.FlightRecorder
	if t != nil {
		reg = t.Metrics
		rec = t.Logs
	}
	return telemetry.Serve(addr, reg, rec)
}

// WriteTrace writes every span the telemetry collected as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto.
func WriteTrace(t *Telemetry, w io.Writer) error {
	if t == nil || t.Tracer == nil {
		return fmt.Errorf("webssari: no tracer attached")
	}
	return t.Tracer.WriteJSON(w)
}

// WithTelemetry attaches an observability sink to the run: every
// pipeline stage records spans and metrics into it. Without this option
// runs are uninstrumented (Profile is still populated — its collection
// is built into the engine and costs only a few clock reads).
func WithTelemetry(t *Telemetry) Option {
	return func(c *config) error {
		c.telemetry = t
		return nil
	}
}

func buildConfig(opts []Option) (*config, error) {
	c := &config{}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if c.pre == nil {
		// No option wrote to the prelude, and nothing writes to it after
		// this: share the built-in one instead of copying it.
		c.pre = prelude.Builtin()
	}
	return c, nil
}

// metrics is the configured metrics registry, nil (recording nothing)
// without telemetry.
func (c *config) metrics() *telemetry.Registry {
	if c.telemetry == nil {
		return nil
	}
	return c.telemetry.Metrics
}

func (c *config) engineOptions(ctx context.Context) core.Options {
	return core.Options{
		Flow: flow.Options{
			Prelude:    c.pre,
			Policy:     c.policy,
			Loader:     c.loader,
			Dir:        c.dir,
			LoopUnroll: c.unroll,
			MaxCmds:    c.limits.MaxStatements,
		},
		Ctx:                ctx,
		MaxVars:            c.limits.MaxCNFVars,
		MaxClauses:         c.limits.MaxCNFClauses,
		AssumePriorAsserts: c.paperMode,
		BlockAllBN:         c.blockAll,
		MaxCounterexamples: c.maxCEX,
		Solver:             c.solver,
	}
}

// applyDeadline derives the unit's context from the configured deadline.
func (c *config) applyDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.deadline > 0 {
		return context.WithTimeout(ctx, c.deadline)
	}
	return ctx, func() {}
}

// engineErr maps an analysis failure to the public *EngineError.
func engineErr(name string, errs []error) error {
	if len(errs) == 0 {
		return &EngineError{Stage: "analysis", File: name, Err: errors.New("analysis failed")}
	}
	var se *core.StageError
	if errors.As(errs[0], &se) {
		return &EngineError{Stage: se.Stage, File: name, Err: se.Err}
	}
	return &EngineError{Stage: "analysis", File: name, Err: errs[0]}
}

// compiles counts the front-end compiles this process ran since the last
// ResetCompileCache.
var compiles atomic.Int64

// CompileCacheStats returns 0 hits and the number of front-end compiles
// since the last ResetCompileCache.
//
// Deprecated: there is no compile cache; every verified file is compiled
// when it is verified, so hits is always 0.
func CompileCacheStats() (hits, misses int64) { return 0, compiles.Load() }

// ResetCompileCache zeroes the compile count CompileCacheStats reports.
//
// Deprecated: there is no compile cache to empty.
func ResetCompileCache() { compiles.Store(0) }

// runAnalysis drives the core pipeline — Compile followed by Solve —
// and the counterexample analysis under ctx, recovering any panic
// that escapes a stage boundary into a structured *EngineError so a
// single pathological input can never crash a project-wide run. It
// builds the file's RunProfile and rolls it into the metrics, also when
// the compile fails.
//
// When cfg carries a Telemetry it is attached to ctx here — the single
// point all entry paths (Verify, Patch, VerifyToHTML, VerifyDir workers)
// funnel through — and the whole file gets a root span on a fresh trace
// lane, under which the engine's stage spans are drawn from the profile.
func runAnalysis(ctx context.Context, src []byte, name string, cfg *config) (res *core.Result, analysis *fixing.Analysis, prof *RunProfile, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, analysis, prof = nil, nil, nil
			err = &EngineError{Stage: "analysis", File: name, Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	ctx = telemetry.WithTelemetry(ctx, cfg.telemetry)
	ctx, fsp := telemetry.StartRootSpan(ctx, "verify_file", "file", name)
	defer fsp.End()
	eopts := cfg.engineOptions(ctx)
	start := time.Now()
	prog, cs, errs := core.Compile(name, src, eopts)
	compiles.Add(1)
	prof = &RunProfile{CompileWallNS: time.Since(start).Nanoseconds()}
	// A failed compile stops at the failing stage: the stages after it
	// never ran and are not counted.
	prof.AddStage("parse", time.Duration(cs.ParseNS))
	prof.AddStage("lower", time.Duration(cs.LowerNS))
	prof.AddStage("flow", time.Duration(cs.FlowNS))
	prof.AddStage("rename", time.Duration(cs.RenameNS))
	prof.AddStage("constraints", time.Duration(cs.ConstraintsNS))
	if prog == nil {
		prof.Failed = true
		cfg.metrics().Record(prof)
		telemetry.DrawProfile(ctx, start, name, prof, "")
		return nil, nil, nil, engineErr(name, errs)
	}
	solveStart := time.Now()
	res = core.Solve(ctx, prog, eopts)
	prof.SolveWallNS = time.Since(solveStart).Nanoseconds()
	analysis = fixing.Analyze(res)
	for i, ar := range res.PerAssert {
		prof.AddStage("encode", ar.EncodeTime)
		prof.AddStage("search", ar.SearchTime)
		prof.Solver.Add(ar.SolverStats)
		ap := telemetry.AssertProfile{
			Index:           i,
			Vars:            ar.EncodedVars,
			Clauses:         ar.EncodedClauses,
			Counterexamples: len(ar.Counterexamples),
			Unknown:         ar.Unknown,
			Cause:           ar.Cause,
			EncodeNS:        ar.EncodeTime.Nanoseconds(),
			SearchNS:        ar.SearchTime.Nanoseconds(),
			Solver:          ar.SolverStats,
		}
		if ar.Assert != nil {
			ap.Sink = ar.Assert.Origin.Fn
			pos := ar.Assert.Origin.Site.Pos
			ap.Site = fmt.Sprintf("%s:%d:%d", pos.File, pos.Line, pos.Col)
		}
		prof.Assertions = append(prof.Assertions, ap)
		if ar.Unknown {
			prof.AddDegraded(telemetry.CauseLabel(ar.Cause))
		}
	}
	cfg.metrics().Record(prof)
	telemetry.DrawProfile(ctx, start, name, prof, "")
	return res, analysis, prof, nil
}

// Verify analyzes one PHP source text and returns its report. A non-nil
// error means the analysis itself could not run (unparseable prelude,
// fatal engine fault); findings are reported in the Report, not as
// errors.
func Verify(src []byte, name string, opts ...Option) (*Report, error) {
	return VerifyContext(context.Background(), src, name, opts...)
}

// VerifyContext is Verify under a context: cancellation or deadline
// expiry degrades undecided assertions to Unknown and yields a report
// with VerdictIncomplete rather than aborting.
//
// With a WithStore result store attached, the store is consulted first:
// a valid persisted report for identical content under an identical
// configuration is returned directly (Report.Profile.StoreHit), and complete
// fresh reports are written back for future runs — including runs in
// future processes.
func VerifyContext(ctx context.Context, src []byte, name string, opts ...Option) (*Report, error) {
	return VerifyRemote(ctx, src, name, nil, opts...)
}

// ErrRunHere is what an analysis step handed to VerifyRemote returns to
// have the file analyzed in this process instead.
var ErrRunHere = errors.New("webssari: analyze the file in this process")

// VerifyRemote is VerifyContext with the analysis step handed in: the
// result store is consulted first, and on a miss analyze runs in place
// of the engine. It returns the report of a run elsewhere, decoded from
// its result envelope (DecodeResult), or ErrRunHere to run the engine
// here under opts; any other error is the verification's. Either way
// the report is written to the store and recorded in the dependency
// graph, from the include snapshot it carries, as a local one is. A nil
// analyze always runs here. This is the cluster coordinator's entry
// point: the step dispatches the file to a worker.
func VerifyRemote(ctx context.Context, src []byte, name string, analyze func(context.Context) (*Report, error), opts ...Option) (*Report, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	var key string
	if cfg.resultStore != nil {
		key = resultKey(name, src, cfg)
		if rep, ok := storeGet(telemetry.WithTelemetry(ctx, cfg.telemetry), cfg, name, key); ok {
			cfg.recordDeps(name, src, key, report.Includes(rep))
			return rep, nil
		}
	}
	err = ErrRunHere
	var rep *Report
	if analyze != nil {
		rep, err = analyze(ctx)
	}
	if errors.Is(err, ErrRunHere) {
		rep, err = analyzeHere(ctx, src, name, cfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.resultStore != nil {
		storePut(telemetry.WithTelemetry(ctx, cfg.telemetry), cfg, name, key, rep)
	}
	if rep.Incomplete {
		// Incomplete reports are never persisted; an empty key makes the
		// dependency graph re-plan the file instead of trusting a miss.
		key = ""
	}
	cfg.recordDeps(name, src, key, report.Includes(rep))
	return rep, nil
}

// analyzeHere runs the engine on one file under its configured deadline
// and builds the report.
func analyzeHere(ctx context.Context, src []byte, name string, cfg *config) (*Report, error) {
	ctx, cancel := cfg.applyDeadline(ctx)
	defer cancel()
	res, analysis, prof, err := runAnalysis(ctx, src, name, cfg)
	if err != nil {
		return nil, err
	}
	rep := report.Build(res, analysis)
	rep.Profile = prof
	return rep, nil
}

// Patch verifies the source and, when vulnerable, returns a secured
// version with sanitization runtime guards wrapped around the minimal
// fixing set. Safe inputs are returned unmodified.
func Patch(src []byte, name string, opts ...Option) ([]byte, *Report, error) {
	return PatchContext(context.Background(), src, name, opts...)
}

// PatchContext is Patch under a context (see VerifyContext).
func PatchContext(ctx context.Context, src []byte, name string, opts ...Option) ([]byte, *Report, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := cfg.applyDeadline(ctx)
	defer cancel()
	res, analysis, prof, err := runAnalysis(ctx, src, name, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := report.Build(res, analysis)
	rep.Profile = prof
	if res.Safe() {
		return src, rep, nil
	}
	fixes := analysis.GreedyMinimalFix()
	patched, perrs := patch.PatchSourceGuards(name, src, fixes, cfg.routine,
		guardSelector(cfg, analysis, fixes))
	if len(perrs) > 0 {
		return patched, rep, &EngineError{Stage: "patch", File: name, Err: perrs[0]}
	}
	return patched, rep, nil
}

// guardSelector chooses a per-fix-point guard routine under the active
// policy. Each constraint is attributed to the first chosen fix point
// among its options (the same attribution report.Build uses to cluster
// findings into groups); a fix point's guard must then be adequate for
// every (context, bound) pair it repairs, so SelectGuard picks the
// strongest-needed context guard. Without a policy — or with an
// explicitly configured routine — every fix point keeps the default
// behavior ("" falls back to the Patcher routine).
func guardSelector(cfg *config, analysis *fixing.Analysis, fixes []*fixing.FixPoint) func(*fixing.FixPoint) string {
	if cfg.policy == nil || cfg.routine != "" {
		return func(*fixing.FixPoint) string { return "" }
	}
	chosen := make(map[string]bool, len(fixes))
	for _, f := range fixes {
		chosen[f.Key()] = true
	}
	violations := make(map[string][]policy.Violation)
	for _, con := range analysis.Constraints {
		for _, opt := range con.Options {
			if !chosen[opt.Key()] {
				continue
			}
			violations[opt.Key()] = append(violations[opt.Key()], policy.Violation{
				Context: con.Cex.Assert.Origin.Context,
				Bound:   con.Cex.Assert.Origin.Bound,
			})
			break
		}
	}
	return func(f *fixing.FixPoint) string {
		if g, ok := cfg.policy.SelectGuard(violations[f.Key()]); ok {
			return g
		}
		return ""
	}
}

// VerifyToHTML verifies the source and writes a self-contained,
// cross-referenced HTML report (in the spirit of the PHPXREF-style
// validation aids of the paper's §5) to w.
func VerifyToHTML(src []byte, name string, w io.Writer, opts ...Option) (*Report, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	rep, err := analyzeHere(context.Background(), src, name, cfg)
	if err != nil {
		return nil, err
	}
	if err := report.WriteHTML(w, rep, map[string][]byte{name: src}); err != nil {
		return nil, &EngineError{Stage: "report", File: name, Err: err}
	}
	return rep, nil
}

// SymptomCount runs only the fast TS baseline and returns its error count.
func SymptomCount(src []byte, name string, opts ...Option) (int, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return 0, err
	}
	unit, errs := ir.LowerSource(name, src)
	if unit == nil {
		if len(errs) > 0 {
			return 0, errs[0]
		}
		return 0, &EngineError{Stage: "lower", File: name, Err: errors.New("lowering produced no unit")}
	}
	return typestate.CountUnit(unit, cfg.engineOptions(context.Background()).Flow)
}

// ClassOf names the vulnerability class a sink belongs to (e.g. "SQL
// injection" for mysql_query).
func ClassOf(sink string) string {
	return report.VulnClass(sink)
}
