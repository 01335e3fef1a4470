// Package report generates the error reports WebSSARI presents to
// developers. The paper's central usability claim is that counterexample
// traces make reports *validatable*: instead of a bare list of vulnerable
// lines (which took the authors days to check by hand), each report names
// the root cause, shows the single-assignment trace from the untrusted
// input to the sensitive call, and groups all symptoms sharing that cause.
package report

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"webssari/internal/core"
	"webssari/internal/fixing"
	"webssari/internal/lattice"
	"webssari/internal/php/token"
	"webssari/internal/telemetry"
	"webssari/internal/typestate"
)

// Group is one error group: a fix point (root cause) together with every
// counterexample it repairs.
type Group struct {
	Fix *fixing.FixPoint
	// Cexs are the error traces this fix point covers.
	Cexs []*core.Counterexample
}

// Report is a complete per-unit verification report.
type Report struct {
	File string
	// Lat is the safety lattice, used to print type names in traces.
	Lat *lattice.Lattice
	// TSReports are the symptom-level findings of the TS baseline.
	TSReports []typestate.Report
	// Groups are the BMC findings clustered by root cause.
	Groups []Group
	// Warnings carries filter approximations.
	Warnings []string
	// Safe is set when BMC proved every assertion over the whole model —
	// it is withheld (false) when the run was Incomplete, since a proof
	// over a partial model is no proof at all.
	Safe bool
	// Incomplete is set when resource limits, deadlines, parse errors, or
	// recovered faults left part of the model unverified.
	Incomplete bool
	// Limits names the degradation causes of an Incomplete run.
	Limits []string
	// Profile, when set by the caller, adds a run-profile section (stage
	// wall times, per-assertion solver effort) to the HTML rendering.
	Profile *telemetry.RunProfile
}

// Build assembles a report from a verification result and its
// counterexample analysis, clustering symptoms by the minimal fixing set.
func Build(res *core.Result, analysis *fixing.Analysis) *Report {
	limits := res.IncompleteCauses()
	r := &Report{
		File: res.AI.File,
		Lat:  res.AI.Lat,
		// Copy rather than alias: results may be shared across
		// goroutines, and a report must never write into one.
		Warnings:   append([]string(nil), res.Warnings...),
		TSReports:  typestate.Check(res.AI),
		Safe:       res.Safe() && len(limits) == 0,
		Incomplete: len(limits) > 0,
		Limits:     limits,
	}
	for _, perr := range res.ParseErrors {
		r.Warnings = append(r.Warnings, "parse: "+perr)
	}

	// Fix points are interned by the analysis, so a pointer identifies
	// one as well as its key does.
	fix := analysis.GreedyMinimalFix()
	chosen := make(map[*fixing.FixPoint]*Group, len(fix))
	for _, f := range fix {
		chosen[f] = &Group{Fix: f}
	}
	type member struct {
		fix *fixing.FixPoint
		cex string
	}
	seen := make(map[member]bool)
	for _, con := range analysis.Constraints {
		for _, f := range con.Options {
			g, ok := chosen[f]
			if !ok {
				continue
			}
			if m := (member{f, con.Cex.Key()}); !seen[m] {
				seen[m] = true
				g.Cexs = append(g.Cexs, con.Cex)
			}
			break // attribute each constraint to its first chosen cover
		}
	}
	for _, f := range fix {
		r.Groups = append(r.Groups, *chosen[f])
	}
	sort.SliceStable(r.Groups, func(i, j int) bool {
		pi, _ := r.Groups[i].Fix.Span()
		pj, _ := r.Groups[j].Fix.Span()
		return pi.Offset < pj.Offset
	})
	return r
}

// SymptomCount returns the TS-style error count (Figure 10's "TS" column).
func (r *Report) SymptomCount() int { return len(r.TSReports) }

// GroupCount returns the BMC-style error-introduction count (Figure 10's
// "BMC" column): the size of the minimal fixing set.
func (r *Report) GroupCount() int { return len(r.Groups) }

// Write renders the report as human-readable text.
func (r *Report) Write(w io.Writer) error {
	_, err := w.Write(r.appendText(nil))
	return err
}

// String renders the report to a string.
func (r *Report) String() string { return string(r.appendText(nil)) }

// appendText appends the text rendering to b. The lines for each trace
// and trace step, which dominate on branchy files, are appended without
// fmt.
func (r *Report) appendText(b []byte) []byte {
	b = AppendHeader(b, r.File, r.Safe, r.Incomplete, r.Limits, r.SymptomCount(), r.GroupCount())
	var path []byte
	for i, g := range r.Groups {
		b = AppendGroup(b, i, g.Fix.Describe(), len(g.Cexs))
		for _, cex := range g.Cexs {
			// Policy-declared classes and output contexts win over the
			// classic name-based table; both degrade to the seed's exact
			// output when absent.
			origin := cex.Assert.Origin
			class := origin.Class
			if class == "" {
				class = VulnClass(origin.Fn)
			}
			b = AppendTrace(b, class, origin.Fn, origin.Context, origin.Site.Pos)
			for _, step := range cex.Steps {
				// Keep the trace readable: print only the tainted flow,
				// i.e. steps whose value breaches the assertion bound.
				if r.Lat.Lt(step.Value, cex.Assert.Bound) {
					continue
				}
				name := step.Set.Origin.SrcVar
				if name == "" {
					name = step.Set.V.Name
				}
				b = AppendStep(b, step.Set.Origin.Site.Pos, name, r.Lat.Name(step.Value))
			}
			if len(cex.Branches) > 0 {
				path = AppendBranches(path[:0], cex.Branches)
				b = AppendPath(b, path)
			}
		}
	}
	return AppendWarnings(b, r.Warnings)
}

// The Append* functions below emit the lines of the text report, one
// kind of line each. Report.String composes them from a verification
// result; the result store composes the same lines from a persisted
// report, so the text format lives here alone.

// AppendHeader appends the report's title and verdict lines.
func AppendHeader(b []byte, file string, safe, incomplete bool, limits []string, symptoms, groups int) []byte {
	b = fmt.Appendf(b, "== WebSSARI report for %s ==\n", file)
	switch {
	case safe:
		b = append(b, "VERIFIED: all sensitive calls provably receive trusted data.\n"...)
	case groups == 0 && incomplete:
		b = fmt.Appendf(b, "INCOMPLETE: verification degraded (%s); no Safe claim is made.\n",
			strings.Join(limits, ", "))
	default:
		b = fmt.Appendf(b, "UNSAFE: %d vulnerable statement(s) caused by %d error introduction(s).\n",
			symptoms, groups)
		if incomplete {
			b = fmt.Appendf(b, "NOTE: analysis degraded (%s); further findings may exist.\n",
				strings.Join(limits, ", "))
		}
	}
	return b
}

// AppendGroup appends the lines opening the i-th (0-based) error group:
// its fix point's description and how many traces it repairs.
func AppendGroup(b []byte, i int, fix string, traces int) []byte {
	return fmt.Appendf(b, "\nGroup %d: %s\n  repairs %d error trace(s):\n", i+1, fix, traces)
}

// AppendTrace appends the line naming one error trace: its class, its
// sink, the sink's output context when the policy declares one, and the
// sink's position.
func AppendTrace(b []byte, class, sink, context string, at token.Pos) []byte {
	b = append(b, "  * "...)
	b = append(b, class...)
	b = append(b, " via "...)
	b = append(b, sink...)
	if context != "" {
		b = append(b, " ["...)
		b = append(b, context...)
		b = append(b, ']')
	}
	b = append(b, " at "...)
	b = at.Append(b)
	return append(b, '\n')
}

// AppendStep appends the line of one trace step: the assignment's
// position, the assigned variable and the safety type it received.
func AppendStep(b []byte, at token.Pos, name, value string) []byte {
	b = append(b, "      "...)
	b = at.Append(b)
	b = append(b, ": $"...)
	b = append(b, name...)
	b = append(b, " becomes "...)
	b = append(b, value...)
	return append(b, '\n')
}

// AppendPath appends a trace's path line; path is its branch decisions
// as AppendBranches renders them.
func AppendPath[S string | []byte](b []byte, path S) []byte {
	b = append(b, "      path: "...)
	b = append(b, path...)
	return append(b, '\n')
}

// AppendWarnings appends the approximations section, if any.
func AppendWarnings(b []byte, warnings []string) []byte {
	if len(warnings) == 0 {
		return b
	}
	b = append(b, "\nApproximations:\n"...)
	for _, warn := range warnings {
		b = append(b, "  ! "...)
		b = append(b, warn...)
		b = append(b, '\n')
	}
	return b
}

// AppendBranches appends a counterexample's branch decisions in
// ascending branch-ID order: "b3" for a taken branch, "¬b3" for one not
// taken, joined by " ∧ ".
func AppendBranches(b []byte, branches map[int]bool) []byte {
	var idBuf [32]int
	ids := idBuf[:0]
	for id := range branches {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if i > 0 {
			b = append(b, " ∧ "...)
		}
		if !branches[id] {
			b = append(b, "¬"...)
		}
		b = append(b, 'b')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return b
}

// VulnClass names the vulnerability class by sink, as the reports in the
// paper's examples do.
func VulnClass(fn string) string {
	switch strings.ToLower(fn) {
	case "echo", "print", "printf", "print_r", "vprintf", "die", "exit":
		return "cross-site scripting (XSS)"
	case "mysql_query", "mysql_db_query", "mysql_unbuffered_query",
		"pg_query", "pg_exec", "sqlite_query", "dosql":
		return "SQL injection"
	case "exec", "system", "passthru", "popen", "proc_open", "shell_exec":
		return "command injection"
	case "eval":
		return "code injection"
	case "include", "include_once", "require", "require_once", "fopen":
		return "file inclusion"
	default:
		return "tainted data flow"
	}
}
