package report_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"webssari/internal/core"
	"webssari/internal/fixing"
	"webssari/internal/report"
	"webssari/internal/typestate"
)

// fmtText is the fmt-based text renderer the report was first written
// with, kept as the reference String must reproduce byte for byte. It
// renders from the verification result and its analysis directly —
// grouping by the greedy fix, attributing each constraint to its first
// chosen cover, ordering groups by source position — so it checks Build
// and String together rather than sharing their code.
func fmtText(res *core.Result, analysis *fixing.Analysis) string {
	type group struct {
		fix  *fixing.FixPoint
		cexs []*core.Counterexample
	}
	var groups []*group
	byFix := map[string]*group{}
	for _, f := range analysis.GreedyMinimalFix() {
		g := &group{fix: f}
		groups = append(groups, g)
		byFix[f.Key()] = g
	}
	seen := map[string]bool{}
	for _, con := range analysis.Constraints {
		for _, f := range con.Options {
			g, ok := byFix[f.Key()]
			if !ok {
				continue
			}
			if k := f.Key() + "|" + con.Cex.Key(); !seen[k] {
				seen[k] = true
				g.cexs = append(g.cexs, con.Cex)
			}
			break
		}
	}
	sort.SliceStable(groups, func(i, j int) bool {
		pi, _ := groups[i].fix.Span()
		pj, _ := groups[j].fix.Span()
		return pi.Offset < pj.Offset
	})
	limits := res.IncompleteCauses()
	incomplete := len(limits) > 0
	lat := res.AI.Lat

	var b strings.Builder
	fmt.Fprintf(&b, "== WebSSARI report for %s ==\n", res.AI.File)
	switch {
	case res.Safe() && !incomplete:
		b.WriteString("VERIFIED: all sensitive calls provably receive trusted data.\n")
	case len(groups) == 0 && incomplete:
		fmt.Fprintf(&b, "INCOMPLETE: verification degraded (%s); no Safe claim is made.\n",
			strings.Join(limits, ", "))
	default:
		fmt.Fprintf(&b, "UNSAFE: %d vulnerable statement(s) caused by %d error introduction(s).\n",
			len(typestate.Check(res.AI)), len(groups))
		if incomplete {
			fmt.Fprintf(&b, "NOTE: analysis degraded (%s); further findings may exist.\n",
				strings.Join(limits, ", "))
		}
	}
	for i, g := range groups {
		fmt.Fprintf(&b, "\nGroup %d: %s\n", i+1, g.fix.Describe())
		fmt.Fprintf(&b, "  repairs %d error trace(s):\n", len(g.cexs))
		for _, cex := range g.cexs {
			class := cex.Assert.Origin.Class
			if class == "" {
				class = report.VulnClass(cex.Assert.Origin.Fn)
			}
			sink := cex.Assert.Origin.Fn
			if ctx := cex.Assert.Origin.Context; ctx != "" {
				sink += " [" + ctx + "]"
			}
			fmt.Fprintf(&b, "  * %s via %s at %s\n",
				class, sink, cex.Assert.Origin.Site.Pos)
			for _, step := range cex.Steps {
				if lat.Lt(step.Value, cex.Assert.Bound) {
					continue
				}
				name := step.Set.Origin.SrcVar
				if name == "" {
					name = step.Set.V.Name
				}
				fmt.Fprintf(&b, "      %s: $%s becomes %s\n",
					step.Set.Origin.Site.Pos, name, lat.Name(step.Value))
			}
			if len(cex.Branches) > 0 {
				fmt.Fprintf(&b, "      path: %s\n", fmtBranches(cex))
			}
		}
	}
	warnings := append([]string(nil), res.Warnings...)
	for _, perr := range res.ParseErrors {
		warnings = append(warnings, "parse: "+perr)
	}
	if len(warnings) > 0 {
		b.WriteString("\nApproximations:\n")
		for _, warn := range warnings {
			fmt.Fprintf(&b, "  ! %s\n", warn)
		}
	}
	return b.String()
}

func fmtBranches(cex *core.Counterexample) string {
	ids := make([]int, 0, len(cex.Branches))
	for id := range cex.Branches {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		if cex.Branches[id] {
			parts[i] = fmt.Sprintf("b%d", id)
		} else {
			parts[i] = fmt.Sprintf("¬b%d", id)
		}
	}
	return strings.Join(parts, " ∧ ")
}

// TestReportIdentityFmtReference checks the text rendering against the
// fmt reference on safe, unsafe, incomplete and degraded results, with
// policy classes, output contexts, multi-digit branch IDs, warnings and
// parse errors.
func TestReportIdentityFmtReference(t *testing.T) {
	branchy := `<?php
$r = $_GET['q'];
switch ($_GET['op']) {
case 'a': $r = $r . 'a'; break;
case 'b': $r = $r . 'b'; break;
case 'c': $r = $r . 'c'; break;
case 'd': $r = $r . 'd'; break;
case 'e': $r = $r . 'e'; break;
case 'f': $r = $r . 'f'; break;
case 'g': $r = $r . 'g'; break;
case 'h': $r = $r . 'h'; break;
case 'i': $r = $r . 'i'; break;
case 'j': $r = htmlspecialchars($r); break;
case 'k': $r = $r . 'k'; break;
}
$s = $_POST['s'];
if ($c == 1) { $s = $s . '-'; } else { $s = htmlspecialchars($s); }
echo $r;
DoSQL("SELECT v FROM t WHERE k='" . $r . $s . "'");
echo '<p>' . $s . '</p>';
`
	const safe = `<?php echo htmlspecialchars($_GET['x']);`
	results := map[string]*core.Result{
		"safe":   verify(t, safe),
		"unsafe": verify(t, branchy),
		// The group of the earlier root repairs the later sink, so the
		// text's group-major order is not the findings' sink order.
		"crossed": verify(t, "<?php\n$b = $_POST['b'];\n$a = $_GET['a'];\necho $a;\necho $b;"),
	}
	degraded := verify(t, branchy)
	degraded.Warnings = append(degraded.Warnings, "dynamic include at app.php:3:1", "variable variable")
	for i, ar := range degraded.PerAssert {
		for _, cex := range ar.Counterexamples {
			cex.Assert.Origin.Class = "policy class"
			cex.Assert.Origin.Context = "attr"
		}
		if i == 0 {
			ar.Unknown, ar.Cause = true, "deadline"
		} else if i == 1 {
			ar.Unknown, ar.Cause = true, "CNF ceiling (vars 10 > 5)"
		}
	}
	results["degraded"] = degraded
	incomplete := verify(t, safe)
	incomplete.ParseErrors = []string{"app.php:1:9: unexpected ';'"}
	incomplete.PerAssert[0].Unknown, incomplete.PerAssert[0].Cause = true, "deadline"
	results["incomplete"] = incomplete

	for name, res := range results {
		analysis := fixing.Analyze(res)
		if got, want := report.Build(res, analysis).String(), fmtText(res, analysis); got != want {
			t.Errorf("%s: String() differs from the fmt reference:\n got %q\nwant %q", name, got, want)
		}
	}
	if n := report.Build(results["unsafe"], fixing.Analyze(results["unsafe"])).Groups; n == 0 {
		t.Fatal("branchy source produced no groups")
	}
}
