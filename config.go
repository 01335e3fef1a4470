package webssari

// This file is the v1 unified configuration surface: a plain-data
// Config struct covering the functional options, applied with
// WithConfig and recovered with ExportConfig. The With* options remain
// the primary API and Config is built on top of them, so the two can
// never drift; Config exists for callers that need configuration as
// data — the webssarid daemon (per-job options round-trip through it),
// config files, and tests.

import (
	"fmt"
	"time"
)

// SinkSpec names one additional sensitive output channel and the
// 1-based argument positions that must receive trusted data (empty =
// all arguments). The data form of WithSink.
type SinkSpec struct {
	Name string `json:"name"`
	Args []int  `json:"args,omitempty"`
}

// SolverConfig is the solver's search budgets, applied together with
// WithSolverConfig. The zero value means "all defaults" (unlimited
// budgets). It is carried verbatim by Config.Solver, by the v1 wire
// schema's "solver" job field, and by the typed client.
//
// Every assertion is checked on a fresh solver over its own encoding,
// the paper's §3.3.2 loop. The budgets are verdict-shaping (an exhausted
// budget degrades assertions to Unknown) and participate in result-store
// keys.
type SolverConfig struct {
	// MaxConflicts caps SAT effort per solver call in conflicts
	// (0 = unlimited).
	MaxConflicts uint64 `json:"max_conflicts,omitempty"`
	// MaxRestarts caps SAT effort per solver call in restarts
	// (0 = unlimited).
	MaxRestarts uint64 `json:"max_restarts,omitempty"`
}

// WithSolverConfig applies a SolverConfig. Zero fields leave the
// corresponding setting unchanged, so the option composes with earlier
// WithSolverConfig applications (later options win).
func WithSolverConfig(sc SolverConfig) Option {
	return func(c *config) error {
		if sc.MaxConflicts != 0 {
			c.solver.MaxConflicts = sc.MaxConflicts
		}
		if sc.MaxRestarts != 0 {
			c.solver.MaxRestarts = sc.MaxRestarts
		}
		return nil
	}
}

// Config is the declarative form of the verification options. The zero
// value means "all defaults" — identical to calling Verify with no
// options. Fields mirror the corresponding With* option; WithConfig
// applies them in a fixed canonical order (prelude replacement first,
// then merges and registrations, then scalar knobs), so a Config is an
// unambiguous description where an option list is order-sensitive.
//
// Function-valued configuration (WithLoader, WithFileObserver,
// WithFileVerifier) is deliberately not representable: Config must survive
// JSON round-trips for the daemon. Dir implies the standard filesystem
// loader, which covers every file- and directory-based entry point.
type Config struct {
	// Policy selects a built-in security policy by name (WithPolicy);
	// PolicyJSON instead carries a complete custom policy declaration
	// (WithPolicyJSON) and wins when both are set. Policies apply before
	// every other trust-environment field, so Prelude/Sinks/... layer on
	// top exactly as the equivalent option order would.
	Policy     string `json:"policy,omitempty"`
	PolicyJSON string `json:"policy_json,omitempty"`
	// Prelude, when non-empty, replaces the default trust environment
	// (WithPrelude); ExtraPreludes are then merged in order
	// (WithExtraPrelude).
	Prelude       string   `json:"prelude,omitempty"`
	ExtraPreludes []string `json:"extra_preludes,omitempty"`
	// Sinks, Sanitizers, and Sources register additional channels
	// (WithSink / WithSanitizer / WithSource).
	Sinks      []SinkSpec `json:"sinks,omitempty"`
	Sanitizers []string   `json:"sanitizers,omitempty"`
	Sources    []string   `json:"sources,omitempty"`
	// Dir is the include base directory (WithDir).
	Dir string `json:"dir,omitempty"`
	// LoopUnroll is the loop deconstruction depth; 0 means the default
	// single pass (WithLoopUnroll).
	LoopUnroll int `json:"loop_unroll,omitempty"`
	// PaperEnumeration enables the paper's exact §3.3.2 enumeration
	// (WithPaperEnumeration).
	PaperEnumeration bool `json:"paper_enumeration,omitempty"`
	// Routine is the runtime-guard routine Patch inserts (WithRoutine).
	Routine string `json:"routine,omitempty"`
	// MaxCounterexamples bounds enumeration per assertion
	// (WithMaxCounterexamples).
	MaxCounterexamples int `json:"max_counterexamples,omitempty"`
	// Deadline bounds each verification unit's wall time (WithDeadline).
	Deadline time.Duration `json:"deadline,omitempty"`
	// Solver is the solver's search budgets (WithSolverConfig).
	Solver SolverConfig `json:"solver,omitempty"`
	// Limits caps model and formula sizes (WithResourceLimits).
	Limits ResourceLimits `json:"limits,omitempty"`
	// Parallelism bounds the file pool of project runs; single-file
	// entry points ignore it (WithParallelism).
	Parallelism int `json:"parallelism,omitempty"`
	// Incremental enables delta re-verification under VerifyDir
	// (WithIncremental); it requires Store to do anything.
	Incremental bool `json:"incremental,omitempty"`
	// Store and Telemetry attach the persistent result store and the
	// observability sink (WithStore / WithTelemetry). Live handles, not
	// data: excluded from JSON and from ExportConfig equality concerns
	// beyond pointer identity.
	Store     *ResultStore `json:"-"`
	Telemetry *Telemetry   `json:"-"`
	// StoreBackend attaches any other result-store backend
	// (WithStoreBackend). Ignored when Store is also set (the concrete
	// local store wins). Live handle, excluded from JSON like Store.
	StoreBackend StoreBackend `json:"-"`
}

// WithConfig applies an entire Config as one option. It composes with
// further With* options (later options win, as always); applying the
// zero Config is a no-op.
func WithConfig(cc Config) Option {
	return func(c *config) error {
		var opts []Option
		switch {
		case cc.PolicyJSON != "":
			name := cc.Policy
			if name == "" {
				name = "config"
			}
			opts = append(opts, WithPolicyJSON(name, []byte(cc.PolicyJSON)))
		case cc.Policy != "":
			opts = append(opts, WithPolicy(cc.Policy))
		}
		if cc.Prelude != "" {
			opts = append(opts, WithPrelude(cc.Prelude))
		}
		for _, text := range cc.ExtraPreludes {
			opts = append(opts, WithExtraPrelude(text))
		}
		for _, s := range cc.Sinks {
			opts = append(opts, WithSink(s.Name, s.Args...))
		}
		for _, name := range cc.Sanitizers {
			opts = append(opts, WithSanitizer(name))
		}
		for _, name := range cc.Sources {
			opts = append(opts, WithSource(name))
		}
		if cc.Dir != "" {
			opts = append(opts, WithDir(cc.Dir))
		}
		if cc.LoopUnroll > 0 {
			opts = append(opts, WithLoopUnroll(cc.LoopUnroll))
		}
		if cc.PaperEnumeration {
			opts = append(opts, WithPaperEnumeration())
		}
		if cc.Routine != "" {
			opts = append(opts, WithRoutine(cc.Routine))
		}
		if cc.MaxCounterexamples != 0 {
			opts = append(opts, WithMaxCounterexamples(cc.MaxCounterexamples))
		}
		if cc.Deadline > 0 {
			opts = append(opts, WithDeadline(cc.Deadline))
		}
		if cc.Solver != (SolverConfig{}) {
			opts = append(opts, WithSolverConfig(cc.Solver))
		}
		if cc.Limits != (ResourceLimits{}) {
			opts = append(opts, WithResourceLimits(cc.Limits))
		}
		if cc.Parallelism > 0 {
			opts = append(opts, WithParallelism(cc.Parallelism))
		}
		if cc.Incremental {
			opts = append(opts, WithIncremental())
		}
		if cc.Store != nil {
			opts = append(opts, WithStore(cc.Store))
		} else if cc.StoreBackend != nil {
			opts = append(opts, WithStoreBackend(cc.StoreBackend))
		}
		if cc.Telemetry != nil {
			opts = append(opts, WithTelemetry(cc.Telemetry))
		}
		for _, opt := range opts {
			if err := opt(c); err != nil {
				return fmt.Errorf("webssari: applying Config: %w", err)
			}
		}
		return nil
	}
}

// ExportConfig resolves an option list into its Config form, validating
// the options along the way. For every Config cc,
// ExportConfig(WithConfig(cc)) returns cc back (function-valued fields
// compare by pointer); for hand-built option lists the result is the
// canonical Config describing the same effective configuration.
func ExportConfig(opts ...Option) (Config, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return Config{}, err
	}
	return c.export(), nil
}

func (c *config) export() Config {
	cc := Config{
		Policy:             c.policyName,
		PolicyJSON:         c.policyJSON,
		Prelude:            c.preludeText,
		ExtraPreludes:      append([]string(nil), c.extraPreludes...),
		Sinks:              append([]SinkSpec(nil), c.sinkSpecs...),
		Sanitizers:         append([]string(nil), c.sanitizers...),
		Sources:            append([]string(nil), c.sources...),
		Dir:                c.dir,
		LoopUnroll:         c.unroll,
		PaperEnumeration:   c.paperMode,
		Routine:            c.routine,
		MaxCounterexamples: c.maxCEX,
		Deadline:           c.deadline,
		Solver: SolverConfig{
			MaxConflicts: c.solver.MaxConflicts,
			MaxRestarts:  c.solver.MaxRestarts,
		},
		Limits:      c.limits,
		Parallelism: c.parallelism,
		Incremental: c.incremental,
		Telemetry:   c.telemetry,
	}
	// The store handle exports under the most specific field that holds
	// it: a local *ResultStore as Store, anything else as StoreBackend.
	switch s := c.resultStore.(type) {
	case nil:
	case *ResultStore:
		cc.Store = s
	default:
		cc.StoreBackend = s
	}
	return cc
}

// WithIncremental enables delta re-verification for VerifyDir runs that
// also carry a result store (WithStore): a persistent include-dependency
// graph, stored next to the results, lets the planner serve every file
// whose content and spliced includes are unchanged straight from the
// store — no stat beyond the directory walk, no hashing, no SAT — and
// re-verify only changed files plus their reverse-dependency closure.
//
// The mode only ever changes cost, never verdicts: any condition the
// planner cannot prove safe to skip (first run, corrupted or
// foreign-config graph, evicted store entries, missing store) degrades
// to verifying the affected files in full. Single-file entry points
// ignore the option.
func WithIncremental() Option {
	return func(c *config) error {
		c.incremental = true
		return nil
	}
}
