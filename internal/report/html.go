package report

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"
	"time"

	"webssari/internal/telemetry"
)

// WriteHTML renders the report as a self-contained cross-referenced HTML
// page, in the spirit of the PHPXREF documentation and GUI navigation aids
// the paper's authors built to make manual validation tractable (§5):
// every finding links to the highlighted source lines of its trace, and
// every trace line links back to the error groups it participates in.
// It shows what the text report shows, in the same order; r must carry
// its render records (Build or Attach). src maps file names to their
// source text; files not present are still reported, just without
// excerpts.
func WriteHTML(w io.Writer, r *Report, src map[string][]byte) error {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>WebSSARI report</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 70em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.5em; }
.safe { color: #070; } .unsafe { color: #a00; }
.group { border: 1px solid #ccc; border-radius: 4px; padding: 0.8em; margin: 1em 0; }
.trace { margin: 0.4em 0 0.4em 1.5em; font-family: monospace; font-size: 0.9em; }
.src { background: #f7f7f7; border-left: 3px solid #ccc; padding: 0.4em 0.8em;
       font-family: monospace; white-space: pre; overflow-x: auto; }
.hl { background: #ffe0e0; display: block; }
.lineno { color: #999; user-select: none; }
.warn { color: #850; }
.profile { border-collapse: collapse; margin: 0.8em 0; font-size: 0.9em; }
.profile th, .profile td { border: 1px solid #ccc; padding: 0.2em 0.6em; text-align: right; }
.profile th { background: #f0f0f0; }
a { color: #036; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>WebSSARI report for %s</h1>\n", html.EscapeString(r.File))
	class := "unsafe"
	if r.Safe {
		class = "safe"
	}
	for _, line := range strings.Split(string(r.appendVerdict(nil)), "\n") {
		if word, rest, ok := strings.Cut(line, ": "); ok {
			fmt.Fprintf(&b, `<p class="%s"><b>%s</b>: %s</p>`+"\n", class, word, html.EscapeString(rest))
		}
	}

	// Index of groups.
	if len(r.Patches) > 0 {
		b.WriteString("<h2>Error groups</h2>\n<ol>\n")
		for i, p := range r.Patches {
			fmt.Fprintf(&b, `<li><a href="#group%d">%s</a> — repairs %d trace(s)</li>`+"\n",
				i+1, html.EscapeString(p.Description), p.Findings)
		}
		b.WriteString("</ol>\n")
	}

	// Per-group details with highlighted excerpts.
	next := 0
	for i, p := range r.Patches {
		fmt.Fprintf(&b, `<div class="group" id="group%d">`+"\n", i+1)
		fmt.Fprintf(&b, "<h2>Group %d: %s</h2>\n", i+1, html.EscapeString(p.Description))

		// Collect the highlighted lines per file for this group.
		lines := map[string]map[int]bool{}
		mark := func(l Location) {
			if lines[l.File] == nil {
				lines[l.File] = map[int]bool{}
			}
			lines[l.File][l.Line] = true
		}
		if p.Location.Line > 0 {
			mark(p.Location)
		}
		for _, t := range r.traces[next : next+p.Findings] {
			f := &r.Findings[t.Finding]
			context := ""
			if t.Context != "" {
				context = " [" + html.EscapeString(t.Context) + "]"
			}
			fmt.Fprintf(&b, `<p>%s via <code>%s</code>%s at %s</p>`+"\n",
				html.EscapeString(f.Class), html.EscapeString(f.Sink), context, linkHTML(f.Location))
			mark(f.Location)
			b.WriteString(`<div class="trace">`)
			for _, s := range f.Trace {
				fmt.Fprintf(&b, "%s: $%s becomes %s<br>\n",
					linkHTML(s.Location), html.EscapeString(s.Var), html.EscapeString(s.Value))
				mark(s.Location)
			}
			if t.Path != "" {
				fmt.Fprintf(&b, "path: %s<br>\n", html.EscapeString(t.Path))
			}
			b.WriteString("</div>\n")
		}
		next += p.Findings

		// Source excerpts with highlights.
		files := make([]string, 0, len(lines))
		for f := range lines {
			files = append(files, f)
		}
		sort.Strings(files)
		for _, f := range files {
			text, ok := src[f]
			if !ok {
				continue
			}
			b.WriteString(excerptHTML(f, string(text), lines[f]))
		}
		b.WriteString("</div>\n")
	}

	if len(r.Warnings) > 0 {
		b.WriteString("<h2>Approximations</h2>\n<ul>\n")
		for _, warn := range r.Warnings {
			fmt.Fprintf(&b, `<li class="warn">%s</li>`+"\n", html.EscapeString(warn))
		}
		b.WriteString("</ul>\n")
	}
	writeProfileHTML(&b, r.Profile)
	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// linkHTML renders a location as a link to its highlighted source line.
func linkHTML(l Location) string {
	return fmt.Sprintf(`<a href="#L-%s-%d">%s</a>`,
		html.EscapeString(l.File), l.Line, html.EscapeString(l.pos().String()))
}

// writeProfileHTML renders the run-profile section: stage wall times,
// solver totals, cache/pool sections when present, and the per-assertion
// breakdown with the solver's search-effort counters.
func writeProfileHTML(b *strings.Builder, p *telemetry.RunProfile) {
	if p == nil {
		return
	}
	b.WriteString("<h2>Run profile</h2>\n")
	fmt.Fprintf(b, "<p>compile %v, solve %v",
		p.CompileWall().Round(time.Microsecond), p.SolveWall().Round(time.Microsecond))
	if p.CacheHit {
		b.WriteString(" (compile cached)")
	}
	s := p.Solver
	fmt.Fprintf(b, "; solver: %d decisions, %d propagations, %d conflicts, %d restarts, %d learnt clauses</p>\n",
		s.Decisions, s.Propagations, s.Conflicts, s.Restarts, s.LearntClauses)
	if p.Cache != nil {
		fmt.Fprintf(b, "<p>compile cache: %d hit(s), %d miss(es), %d evicted, %d stale, %d retained</p>\n",
			p.Cache.Hits, p.Cache.Misses, p.Cache.Evictions, p.Cache.Stale, p.Cache.Entries)
	}
	if p.Pool != nil {
		fmt.Fprintf(b, "<p>worker pool: %d/%d peak workers (%.0f%% utilization)</p>\n",
			p.Pool.MaxInUse, p.Pool.Capacity, 100*p.Pool.Utilization())
	}
	if len(p.Stages) > 0 {
		b.WriteString(`<table class="profile"><tr><th>stage</th><th>wall</th><th>count</th></tr>` + "\n")
		for _, st := range p.Stages {
			fmt.Fprintf(b, "<tr><td>%s</td><td>%v</td><td>%d</td></tr>\n",
				html.EscapeString(st.Name), time.Duration(st.WallNS).Round(time.Microsecond), st.Count)
		}
		b.WriteString("</table>\n")
	}
	if len(p.Assertions) > 0 {
		b.WriteString(`<table class="profile"><tr><th>assert</th><th>sink</th><th>site</th><th>vars</th><th>clauses</th><th>cex</th><th>encode</th><th>search</th><th>conflicts</th><th>restarts</th><th>learnt</th><th>cause</th></tr>` + "\n")
		for _, a := range p.Assertions {
			fmt.Fprintf(b, "<tr><td>%d</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%v</td><td>%v</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td></tr>\n",
				a.Index, html.EscapeString(a.Sink), html.EscapeString(a.Site),
				a.Vars, a.Clauses, a.Counterexamples,
				time.Duration(a.EncodeNS).Round(time.Microsecond),
				time.Duration(a.SearchNS).Round(time.Microsecond),
				a.Solver.Conflicts, a.Solver.Restarts, a.Solver.LearntClauses,
				html.EscapeString(a.Cause))
		}
		b.WriteString("</table>\n")
	}
}

// excerptHTML renders the marked lines of a file with two lines of
// context, line anchors, and highlighting.
func excerptHTML(file, text string, marked map[int]bool) string {
	srcLines := strings.Split(text, "\n")
	show := map[int]bool{}
	for line := range marked {
		for d := -2; d <= 2; d++ {
			if n := line + d; n >= 1 && n <= len(srcLines) {
				show[n] = true
			}
		}
	}
	order := make([]int, 0, len(show))
	for n := range show {
		order = append(order, n)
	}
	sort.Ints(order)

	var b strings.Builder
	fmt.Fprintf(&b, "<p><b>%s</b></p>\n<div class=\"src\">", html.EscapeString(file))
	prev := 0
	for _, n := range order {
		if prev != 0 && n != prev+1 {
			b.WriteString("<span class=\"lineno\">  ⋮</span>\n")
		}
		prev = n
		lineText := html.EscapeString(srcLines[n-1])
		if marked[n] {
			fmt.Fprintf(&b, `<span class="hl" id="L-%s-%d"><span class="lineno">%4d</span> %s</span>`,
				html.EscapeString(file), n, n, lineText)
		} else {
			fmt.Fprintf(&b, "<span class=\"lineno\">%4d</span> %s\n", n, lineText)
		}
	}
	b.WriteString("</div>\n")
	return b.String()
}
