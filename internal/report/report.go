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
	b = fmt.Appendf(b, "== WebSSARI report for %s ==\n", r.File)
	switch {
	case r.Safe:
		b = append(b, "VERIFIED: all sensitive calls provably receive trusted data.\n"...)
	case len(r.Groups) == 0 && r.Incomplete:
		b = fmt.Appendf(b, "INCOMPLETE: verification degraded (%s); no Safe claim is made.\n",
			strings.Join(r.Limits, ", "))
	default:
		b = fmt.Appendf(b, "UNSAFE: %d vulnerable statement(s) caused by %d error introduction(s).\n",
			r.SymptomCount(), r.GroupCount())
		if r.Incomplete {
			b = fmt.Appendf(b, "NOTE: analysis degraded (%s); further findings may exist.\n",
				strings.Join(r.Limits, ", "))
		}
	}
	for i, g := range r.Groups {
		b = fmt.Appendf(b, "\nGroup %d: %s\n", i+1, g.Fix.Describe())
		b = fmt.Appendf(b, "  repairs %d error trace(s):\n", len(g.Cexs))
		for _, cex := range g.Cexs {
			// Policy-declared classes and output contexts win over the
			// classic name-based table; both degrade to the seed's exact
			// output when absent.
			origin := cex.Assert.Origin
			class := origin.Class
			if class == "" {
				class = VulnClass(origin.Fn)
			}
			b = append(b, "  * "...)
			b = append(b, class...)
			b = append(b, " via "...)
			b = append(b, origin.Fn...)
			if origin.Context != "" {
				b = append(b, " ["...)
				b = append(b, origin.Context...)
				b = append(b, ']')
			}
			b = append(b, " at "...)
			b = origin.Site.Pos.Append(b)
			b = append(b, '\n')
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
				b = append(b, "      "...)
				b = step.Set.Origin.Site.Pos.Append(b)
				b = append(b, ": $"...)
				b = append(b, name...)
				b = append(b, " becomes "...)
				b = append(b, r.Lat.Name(step.Value)...)
				b = append(b, '\n')
			}
			if len(cex.Branches) > 0 {
				b = append(b, "      path: "...)
				b = appendBranches(b, cex)
				b = append(b, '\n')
			}
		}
	}
	if len(r.Warnings) > 0 {
		b = append(b, "\nApproximations:\n"...)
		for _, warn := range r.Warnings {
			b = fmt.Appendf(b, "  ! %s\n", warn)
		}
	}
	return b
}

// appendBranches appends the counterexample's branch decisions in
// ascending branch-ID order: "b3" for a taken branch, "¬b3" for one not
// taken, joined by " ∧ ".
func appendBranches(b []byte, cex *core.Counterexample) []byte {
	var idBuf [32]int
	ids := idBuf[:0]
	for id := range cex.Branches {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if i > 0 {
			b = append(b, " ∧ "...)
		}
		if !cex.Branches[id] {
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
