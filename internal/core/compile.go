package core

// This file is the engine's front end: everything in the pipeline before
// the SAT solver — parse, include resolution, filter F(p), abstract
// interpretation AI(F(p)), single-assignment renaming ρ, and constraint
// generation C(c,g). The front end is deterministic and solver-free, and
// its output is a durable Program artifact that Solve (the back end) can
// consume any number of times, concurrently.

import (
	"context"
	"sync"
	"time"

	"webssari/internal/ai"
	"webssari/internal/constraint"
	"webssari/internal/flow"
	"webssari/internal/ir"
	"webssari/internal/php/ast"
	"webssari/internal/php/parser"
	"webssari/internal/rename"
	"webssari/internal/telemetry"
)

// Program is the compiled form of one verification unit: the abstract
// interpretation together with its renamed form and generated constraint
// system.
//
// Invariants: a Program is immutable after Compile returns — no stage of
// Solve writes into AI, Renamed, or System — so one Program may be solved
// by any number of goroutines concurrently and may be cached and reused
// across Verify/Patch calls. Solve copies the slices it extends
// (warnings, parse errors) rather than appending to the Program's.
type Program struct {
	// Unit is the typed flow IR the entry file lowered to (before include
	// splicing); nil when the Program was compiled from a bare AI (e.g.
	// CompileAI). The incremental planner reads its function fingerprints.
	Unit *ir.Unit
	// AI is the abstract interpretation AI(F(p)).
	AI *ai.Program
	// Renamed is AI under the single-assignment renaming ρ.
	Renamed *rename.Program
	// System is the generated constraint system C(c,g).
	System *constraint.System
	// ParseErrors records syntax errors the parser recovered from; a
	// non-empty list makes every Result solved from this Program
	// Incomplete.
	ParseErrors []string
	// Stats is the front end's per-stage wall-time breakdown.
	Stats CompileStats

	// fpOnce/fps memoize CheckFingerprints; see fingerprint.go.
	fpOnce sync.Once
	fps    []string
}

// CompileStats records the front end's per-stage wall time. It is always
// populated — the cost is two clock reads per stage — so run profiles
// have a stage breakdown even when no telemetry sink is attached. (A
// cached Program carries the stats of its original compile.)
type CompileStats struct {
	ParseNS       int64
	LowerNS       int64
	FlowNS        int64
	RenameNS      int64
	ConstraintsNS int64
}

// Compile parses, filters, and compiles one PHP source text into a
// Program. A panic in the parser or filter is recovered into a
// *StageError; recoverable syntax errors are recorded on the Program
// (making its results Incomplete) and also returned for callers that want
// them as errors. On a nil Program the error list explains why.
//
// Each stage is timed into the Program's CompileStats and, when opts.Ctx
// carries a Telemetry, emitted as a trace span.
func Compile(name string, src []byte, opts Options) (*Program, []error) {
	p, _, errs := compile(name, src, opts)
	return p, errs
}

// compile is Compile that also returns the stage timings on failure:
// the stages that ran before the failing one keep their wall times.
func compile(name string, src []byte, opts Options) (*Program, CompileStats, []error) {
	ctx := opts.context()

	var (
		parsed *parser.Result
		errs   []error
		stats  CompileStats
	)
	start := time.Now()
	_, sp := telemetry.StartSpan(ctx, "parse", "file", name)
	err := guard("parse", func() { parsed = parser.Parse(name, src) })
	sp.End()
	stats.ParseNS = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, stats, []error{err}
	}
	errs = append(errs, parsed.Errs...)

	var (
		unit     *ir.Unit
		lowerErr error
	)
	start = time.Now()
	_, sp = telemetry.StartSpan(ctx, "lower", "file", name)
	err = guard("lower", func() { unit, lowerErr = ir.Lower(parsed.File) })
	sp.End()
	stats.LowerNS = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, stats, append([]error{err}, errs...)
	}
	if lowerErr != nil {
		return nil, stats, append([]error{lowerErr}, errs...)
	}

	var (
		prog     *ai.Program
		buildErr error
	)
	start = time.Now()
	_, sp = telemetry.StartSpan(ctx, "flow", "file", name)
	err = guard("flow", func() { prog, buildErr = flow.BuildUnit(unit, opts.Flow) })
	sp.End()
	stats.FlowNS = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, stats, append([]error{err}, errs...)
	}
	if buildErr != nil {
		return nil, stats, append([]error{buildErr}, errs...)
	}

	p, cerr := compileAI(ctx, prog, &stats)
	if cerr != nil {
		return nil, stats, append(errs, cerr)
	}
	p.Unit = unit
	for _, perr := range parsed.Errs {
		p.ParseErrors = append(p.ParseErrors, perr.Error())
	}
	return p, stats, errs
}

// CompileFile compiles an already-parsed file.
func CompileFile(file *ast.File, opts Options) (*Program, error) {
	ctx := opts.context()
	start := time.Now()
	_, sp := telemetry.StartSpan(ctx, "lower")
	unit, err := ir.Lower(file)
	sp.End()
	var stats CompileStats
	stats.LowerNS = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}
	start = time.Now()
	_, sp = telemetry.StartSpan(ctx, "flow")
	prog, err := flow.BuildUnit(unit, opts.Flow)
	sp.End()
	stats.FlowNS = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}
	p, err := compileAI(ctx, prog, &stats)
	if err != nil {
		return nil, err
	}
	p.Unit = unit
	return p, nil
}

// CompileAI runs the back half of the front end — renaming and constraint
// generation — over an existing abstract interpretation. A panic is
// recovered into a *StageError.
func CompileAI(prog *ai.Program) (*Program, error) {
	return compileAI(context.Background(), prog, &CompileStats{})
}

// compileAI records the rename and constraints stages into stats, which
// becomes the returned Program's Stats.
func compileAI(ctx context.Context, prog *ai.Program, stats *CompileStats) (*Program, error) {
	var (
		ren *rename.Program
		sys *constraint.System
	)
	if err := guard("constraint", func() {
		start := time.Now()
		_, sp := telemetry.StartSpan(ctx, "rename")
		ren = rename.Rename(prog)
		sp.End()
		stats.RenameNS = time.Since(start).Nanoseconds()

		start = time.Now()
		_, sp = telemetry.StartSpan(ctx, "constraints")
		sys = constraint.Build(ren)
		sp.End()
		stats.ConstraintsNS = time.Since(start).Nanoseconds()
	}); err != nil {
		return nil, err
	}
	return &Program{AI: prog, Renamed: ren, System: sys, Stats: *stats}, nil
}
