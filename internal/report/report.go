// Package report generates the error reports WebSSARI presents to
// developers. The paper's central usability claim is that counterexample
// traces make reports *validatable*: instead of a bare list of vulnerable
// lines (which took the authors days to check by hand), each report names
// the root cause, shows the single-assignment trace from the untrusted
// input to the sensitive call, and groups all symptoms sharing that cause.
//
// Report is the one shape of that product: Build assembles it from a
// verification result, the root package serves it as webssari.Report,
// the result store persists it, and its text (String) and HTML
// (WriteHTML) are rendered from it only when something reads them.
package report

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"webssari/internal/ai"
	"webssari/internal/core"
	"webssari/internal/fixing"
	"webssari/internal/php/token"
	"webssari/internal/telemetry"
	"webssari/internal/typestate"
)

// Location is a source position.
type Location struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// String renders the location as file:line:col.
func (l Location) String() string { return fmt.Sprintf("%s:%d:%d", l.File, l.Line, l.Col) }

// pos converts a Location to the token position the report lines print.
func (l Location) pos() token.Pos { return token.Pos{File: l.File, Line: l.Line, Col: l.Col} }

func location(p token.Pos) Location { return Location{File: p.File, Line: p.Line, Col: p.Col} }

// TraceStep is one single assignment on an error trace.
type TraceStep struct {
	Location Location `json:"location"`
	// Var is the assigned variable's source name.
	Var string `json:"var"`
	// Value is the safety level the assignment produced ("tainted").
	Value string `json:"value"`
}

// Finding is one error trace: a path along which untrusted data reaches a
// sensitive output channel.
type Finding struct {
	// Sink is the sensitive function (echo, mysql_query, …).
	Sink string `json:"sink"`
	// Class is the vulnerability class (e.g. "SQL injection").
	Class string `json:"class"`
	// Location is the sink call site.
	Location Location `json:"location"`
	// Trace is the tainted single-assignment sequence leading to the sink.
	Trace []TraceStep `json:"trace"`
	// Group indexes the Patches entry whose guard repairs this finding.
	Group int `json:"group"`
}

// PatchPoint is one entry of the minimal fixing set: a source expression to
// wrap in a sanitization runtime guard.
type PatchPoint struct {
	// Location is where the guard is inserted.
	Location Location `json:"location"`
	// Var is the variable being sanitized ("" for sink-argument guards).
	Var string `json:"var,omitempty"`
	// Description is a human-readable summary.
	Description string `json:"description"`
	// Findings counts the error traces this single guard repairs.
	Findings int `json:"findings"`
}

// Verdict values classifying a verification outcome: VerdictSafe means
// every assertion was proved over the whole model; VerdictUnsafe means at
// least one counterexample trace was found; VerdictIncomplete means no
// vulnerability was found but resource limits, deadlines, parse errors,
// or recovered faults left part of the model unverified — no Safe claim
// is made.
const (
	VerdictSafe       = "safe"
	VerdictUnsafe     = "unsafe"
	VerdictIncomplete = "incomplete"
)

// Report is the result of verifying one PHP entry file (plus its static
// includes).
type Report struct {
	// File is the entry file name.
	File string `json:"file"`
	// Safe is true when bounded model checking proved every sensitive call
	// receives only trusted data (sound and complete for the model). It is
	// withheld whenever Incomplete is set: a proof over a partial model is
	// no proof at all.
	Safe bool `json:"safe"`
	// Verdict is the three-valued outcome: VerdictSafe, VerdictUnsafe, or
	// VerdictIncomplete.
	Verdict string `json:"verdict"`
	// Incomplete is set when part of the model escaped verification
	// (deadline expiry, conflict-budget exhaustion, resource ceilings,
	// parse errors, recovered faults). An incomplete report never claims
	// Safe, but any Findings it carries are real.
	Incomplete bool `json:"incomplete,omitempty"`
	// Limits names the degradation causes of an Incomplete report.
	Limits []string `json:"limits,omitempty"`
	// Symptoms is the TS baseline's error count: one per vulnerable
	// statement.
	Symptoms int `json:"symptoms"`
	// Groups is the BMC error-introduction count: the minimal number of
	// runtime guards needed.
	Groups int `json:"groups"`
	// Findings lists every error trace, by sink position.
	Findings []Finding `json:"findings,omitempty"`
	// Patches is the minimal fixing set, in source order.
	Patches []PatchPoint `json:"patches,omitempty"`
	// Warnings lists analysis approximations (dynamic includes, variable
	// variables, recursion cutoffs).
	Warnings []string `json:"warnings,omitempty"`
	// Profile is the run's telemetry summary: stage wall times, solver
	// effort, per-assertion breakdown, degradation counts. It is always
	// populated (profiling costs a few clock reads, no sink required) and
	// is serialized under the stable "profile" key. Its wall-clock fields
	// are the one intentionally nondeterministic part of a report: strip
	// Profile before comparing reports byte-for-byte across runs.
	Profile *telemetry.RunProfile `json:"profile,omitempty"`

	// traces are the render records, one per finding in the text's
	// group-major order, and includes is the include snapshot the model
	// was built from. Build and Attach set them, and set rendered; a
	// report decoded from JSON has none of them and renders no text.
	traces   []Trace
	includes ai.Includes
	rendered bool
}

// Trace is one render record: what a finding's lines of the text need
// beyond the Report's fields. Records are listed group by group, each
// group's traces in repair order; Finding names the record's entry in
// Report.Findings.
type Trace struct {
	Finding int    `json:"finding"`
	Context string `json:"context,omitempty"`
	Path    string `json:"path,omitempty"`
}

// Build assembles the report of a verification result and its
// counterexample analysis in one pass, clustering symptoms by the
// minimal fixing set: each counterexample joins the group of the first
// chosen fix point among its repair options, and groups are ordered by
// their fix point's source position.
func Build(res *core.Result, analysis *fixing.Analysis) *Report {
	limits := res.IncompleteCauses()
	r := &Report{
		File:       res.AI.File,
		Safe:       res.Safe() && len(limits) == 0,
		Verdict:    VerdictSafe,
		Incomplete: len(limits) > 0,
		Limits:     limits,
		Symptoms:   typestate.Count(res.AI),
		// Copy rather than alias: results may be shared across
		// goroutines, and a report must never write into one.
		Warnings: append([]string(nil), res.Warnings...),
		includes: res.AI.Includes,
		rendered: true,
	}
	switch {
	case !res.Safe():
		// Counterexamples exist — even ones the fixing analysis could not
		// group into patch points (e.g. variable variables).
		r.Verdict = VerdictUnsafe
	case r.Incomplete:
		r.Verdict = VerdictIncomplete
	}
	for _, perr := range res.ParseErrors {
		r.Warnings = append(r.Warnings, "parse: "+perr)
	}

	// Fix points are interned by the analysis, so a pointer identifies
	// one as well as its key does.
	type group struct {
		fix  *fixing.FixPoint
		cexs []*core.Counterexample
	}
	fix := analysis.GreedyMinimalFix()
	groups := make([]group, len(fix))
	chosen := make(map[*fixing.FixPoint]int, len(fix))
	for i, f := range fix {
		groups[i].fix = f
		chosen[f] = i
	}
	type member struct {
		group int
		cex   string
	}
	seen := make(map[member]bool)
	total := 0
	for _, con := range analysis.Constraints {
		for _, f := range con.Options {
			g, ok := chosen[f]
			if !ok {
				continue
			}
			if m := (member{g, con.Cex.Key()}); !seen[m] {
				seen[m] = true
				groups[g].cexs = append(groups[g].cexs, con.Cex)
				total++
			}
			break // attribute each constraint to its first chosen cover
		}
	}
	sort.SliceStable(groups, func(i, j int) bool {
		pi, _ := groups[i].fix.Span()
		pj, _ := groups[j].fix.Span()
		return pi.Offset < pj.Offset
	})

	r.Groups = len(groups)
	lat := res.AI.Lat
	findings := make([]Finding, 0, total)
	r.traces = make([]Trace, 0, total)
	var path []byte
	for gi, g := range groups {
		pos, _ := g.fix.Span()
		p := PatchPoint{Location: location(pos), Description: g.fix.Describe(), Findings: len(g.cexs)}
		if g.fix.Set != nil {
			p.Var = g.fix.Set.Origin.SrcVar
		}
		r.Patches = append(r.Patches, p)
		for _, cex := range g.cexs {
			origin := cex.Assert.Origin
			f := Finding{Sink: origin.Fn, Class: findingClass(origin), Location: location(origin.Site.Pos), Group: gi}
			for _, step := range cex.Steps {
				// Keep the trace readable: list only the tainted flow,
				// i.e. steps whose value breaches the assertion bound.
				if lat.Lt(step.Value, cex.Assert.Bound) {
					continue
				}
				name := step.Set.Origin.SrcVar
				if name == "" {
					name = step.Set.V.Name
				}
				f.Trace = append(f.Trace, TraceStep{Location: location(step.Set.Origin.Site.Pos), Var: name, Value: lat.Name(step.Value)})
			}
			t := Trace{Context: origin.Context}
			if len(cex.Branches) > 0 {
				path = appendBranches(path[:0], cex.Branches)
				t.Path = string(path)
			}
			findings = append(findings, f)
			r.traces = append(r.traces, t)
		}
	}

	// Findings are listed by sink position. Sorting a permutation, not
	// the findings, tells each render record where its finding went.
	order := make([]int, len(findings))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := findings[order[i]].Location, findings[order[j]].Location
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	if len(findings) > 0 {
		r.Findings = make([]Finding, len(findings))
	}
	for k, i := range order {
		r.Findings[k] = findings[i]
		r.traces[i].Finding = k
	}
	return r
}

// findingClass prefers the class the active policy declared on the sink;
// the classic name-based table covers asserts from plain preludes.
func findingClass(origin *ai.Assert) string {
	if origin.Class != "" {
		return origin.Class
	}
	return VulnClass(origin.Fn)
}

// Traces returns the report's render records (nil for a report decoded
// from JSON), for persisting beside it.
func Traces(r *Report) []Trace { return r.traces }

// Includes returns the include snapshot the report's model was built
// from (empty for a report decoded from JSON), for persisting beside it
// and for the dependency graph.
func Includes(r *Report) ai.Includes { return r.includes }

// Attach gives a decoded report the render records and include snapshot
// persisted with it, so String renders it as Build's report would. The
// records must list each finding once, group by group, in the counts
// Patches declares.
func Attach(r *Report, traces []Trace, inc ai.Includes) {
	r.traces, r.includes, r.rendered = traces, inc, true
}

// SymptomCount returns the TS-style error count (Figure 10's "TS" column).
func (r *Report) SymptomCount() int { return r.Symptoms }

// GroupCount returns the BMC-style error-introduction count (Figure 10's
// "BMC" column): the size of the minimal fixing set.
func (r *Report) GroupCount() int { return r.Groups }

// String renders the report as human-readable text: the one composition
// of the text report's lines, into a buffer sized up front. The lines
// for each trace and trace step, which dominate on branchy files, are
// appended without fmt. A report decoded from JSON, without Attach,
// renders as "".
func (r *Report) String() string {
	if !r.rendered {
		return ""
	}
	size := 160 + len(r.File)
	for _, l := range r.Limits {
		size += 2 + len(l)
	}
	for _, p := range r.Patches {
		size += 64 + len(p.Description)
	}
	for _, t := range r.traces {
		f := &r.Findings[t.Finding]
		size += 48 + len(f.Class) + len(f.Sink) + len(t.Context) + len(f.Location.File) + len(t.Path)
		for _, s := range f.Trace {
			size += 40 + len(s.Location.File) + len(s.Var) + len(s.Value)
		}
	}
	for _, w := range r.Warnings {
		size += 8 + len(w)
	}
	b := make([]byte, 0, size)
	b = fmt.Appendf(b, "== WebSSARI report for %s ==\n", r.File)
	b = r.appendVerdict(b)
	next := 0
	for g, p := range r.Patches {
		b = fmt.Appendf(b, "\nGroup %d: %s\n  repairs %d error trace(s):\n", g+1, p.Description, p.Findings)
		for _, t := range r.traces[next : next+p.Findings] {
			f := &r.Findings[t.Finding]
			b = append(b, "  * "...)
			b = append(b, f.Class...)
			b = append(b, " via "...)
			b = append(b, f.Sink...)
			if t.Context != "" {
				b = append(b, " ["...)
				b = append(b, t.Context...)
				b = append(b, ']')
			}
			b = append(b, " at "...)
			b = f.Location.pos().Append(b)
			b = append(b, '\n')
			for _, s := range f.Trace {
				b = append(b, "      "...)
				b = s.Location.pos().Append(b)
				b = append(b, ": $"...)
				b = append(b, s.Var...)
				b = append(b, " becomes "...)
				b = append(b, s.Value...)
				b = append(b, '\n')
			}
			if t.Path != "" {
				b = append(b, "      path: "...)
				b = append(b, t.Path...)
				b = append(b, '\n')
			}
		}
		next += p.Findings
	}
	if len(r.Warnings) > 0 {
		b = append(b, "\nApproximations:\n"...)
		for _, warn := range r.Warnings {
			b = append(b, "  ! "...)
			b = append(b, warn...)
			b = append(b, '\n')
		}
	}
	return string(b)
}

// appendVerdict appends the verdict lines the text and HTML reports
// share: VERIFIED, INCOMPLETE, or UNSAFE with a NOTE when the analysis
// degraded.
func (r *Report) appendVerdict(b []byte) []byte {
	switch {
	case r.Safe:
		b = append(b, "VERIFIED: all sensitive calls provably receive trusted data.\n"...)
	case r.Groups == 0 && r.Incomplete:
		b = fmt.Appendf(b, "INCOMPLETE: verification degraded (%s); no Safe claim is made.\n",
			strings.Join(r.Limits, ", "))
	default:
		b = fmt.Appendf(b, "UNSAFE: %d vulnerable statement(s) caused by %d error introduction(s).\n",
			r.Symptoms, r.Groups)
		if r.Incomplete {
			b = fmt.Appendf(b, "NOTE: analysis degraded (%s); further findings may exist.\n",
				strings.Join(r.Limits, ", "))
		}
	}
	return b
}

// appendBranches appends a counterexample's branch decisions in
// ascending branch-ID order: "b3" for a taken branch, "¬b3" for one not
// taken, joined by " ∧ ".
func appendBranches(b []byte, branches map[int]bool) []byte {
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
