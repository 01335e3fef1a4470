package core

// This file is the engine's front end: everything in the pipeline before
// the SAT solver — parse, include resolution, filter F(p), abstract
// interpretation AI(F(p)), single-assignment renaming ρ, and constraint
// generation C(c,g). The front end is deterministic and solver-free, and
// its output is a durable Program artifact that Solve (the back end) can
// consume any number of times, concurrently.

import (
	"time"

	"webssari/internal/ai"
	"webssari/internal/constraint"
	"webssari/internal/flow"
	"webssari/internal/ir"
	"webssari/internal/php/parser"
	"webssari/internal/rename"
)

// Program is the compiled form of one verification unit: the abstract
// interpretation together with its renamed form and generated constraint
// system.
//
// Invariants: a Program is immutable after Compile returns — no stage of
// Solve writes into AI, Renamed, or System — so one Program may be solved
// by any number of goroutines concurrently. Solve copies the slices it
// extends (warnings, parse errors) rather than appending to the Program's.
type Program struct {
	// Unit is the typed flow IR the entry file lowered to (before include
	// splicing); nil when the Program was compiled from a bare AI (e.g.
	// CompileAI).
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
}

// CompileStats records the front end's per-stage wall time — two clock
// reads per stage — from which the run profile's stage table and a
// traced run's stage spans are drawn. A stage that never ran reads 0.
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
// Each stage is timed into the returned CompileStats, also on failure:
// the stages that ran before the failing one keep their wall times.
func Compile(name string, src []byte, opts Options) (*Program, CompileStats, []error) {
	var (
		parsed *parser.Result
		errs   []error
		stats  CompileStats
	)
	start := time.Now()
	err := guard("parse", func() { parsed = parser.Parse(name, src) })
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
	err = guard("lower", func() { unit, lowerErr = ir.Lower(parsed.File) })
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
	err = guard("flow", func() { prog, buildErr = flow.BuildUnit(unit, opts.Flow) })
	stats.FlowNS = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, stats, append([]error{err}, errs...)
	}
	if buildErr != nil {
		return nil, stats, append([]error{buildErr}, errs...)
	}

	p, cerr := compileAI(prog, &stats)
	if cerr != nil {
		return nil, stats, append(errs, cerr)
	}
	p.Unit = unit
	for _, perr := range parsed.Errs {
		p.ParseErrors = append(p.ParseErrors, perr.Error())
	}
	return p, stats, errs
}

// CompileAI runs the back half of the front end — renaming and constraint
// generation — over an existing abstract interpretation. A panic is
// recovered into a *StageError.
func CompileAI(prog *ai.Program) (*Program, error) {
	return compileAI(prog, &CompileStats{})
}

// compileAI records the rename and constraints stages into stats.
func compileAI(prog *ai.Program, stats *CompileStats) (*Program, error) {
	var (
		ren *rename.Program
		sys *constraint.System
	)
	if err := guard("constraint", func() {
		start := time.Now()
		ren = rename.Rename(prog)
		stats.RenameNS = time.Since(start).Nanoseconds()

		start = time.Now()
		sys = constraint.Build(ren)
		stats.ConstraintsNS = time.Since(start).Nanoseconds()
	}); err != nil {
		return nil, err
	}
	return &Program{AI: prog, Renamed: ren, System: sys}, nil
}
