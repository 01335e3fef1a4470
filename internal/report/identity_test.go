package report_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"webssari/internal/core"
	"webssari/internal/report"
)

// fmtText is the fmt-based text renderer the report was first written
// with, kept as the reference Write must reproduce byte for byte.
func fmtText(r *report.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== WebSSARI report for %s ==\n", r.File)
	switch {
	case r.Safe:
		b.WriteString("VERIFIED: all sensitive calls provably receive trusted data.\n")
	case len(r.Groups) == 0 && r.Incomplete:
		fmt.Fprintf(&b, "INCOMPLETE: verification degraded (%s); no Safe claim is made.\n",
			strings.Join(r.Limits, ", "))
	default:
		fmt.Fprintf(&b, "UNSAFE: %d vulnerable statement(s) caused by %d error introduction(s).\n",
			r.SymptomCount(), r.GroupCount())
		if r.Incomplete {
			fmt.Fprintf(&b, "NOTE: analysis degraded (%s); further findings may exist.\n",
				strings.Join(r.Limits, ", "))
		}
	}
	for i, g := range r.Groups {
		fmt.Fprintf(&b, "\nGroup %d: %s\n", i+1, g.Fix.Describe())
		fmt.Fprintf(&b, "  repairs %d error trace(s):\n", len(g.Cexs))
		for _, cex := range g.Cexs {
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
				if r.Lat.Lt(step.Value, cex.Assert.Bound) {
					continue
				}
				name := step.Set.Origin.SrcVar
				if name == "" {
					name = step.Set.V.Name
				}
				fmt.Fprintf(&b, "      %s: $%s becomes %s\n",
					step.Set.Origin.Site.Pos, name, r.Lat.Name(step.Value))
			}
			if len(cex.Branches) > 0 {
				fmt.Fprintf(&b, "      path: %s\n", fmtBranches(cex))
			}
		}
	}
	if len(r.Warnings) > 0 {
		b.WriteString("\nApproximations:\n")
		for _, warn := range r.Warnings {
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
// fmt reference on safe, unsafe, incomplete and degraded reports, with
// policy classes, output contexts, multi-digit branch IDs and warnings.
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
	reports := map[string]*report.Report{
		"safe":   buildReport(t, `<?php echo htmlspecialchars($_GET['x']);`),
		"unsafe": buildReport(t, branchy),
	}
	degraded := buildReport(t, branchy)
	degraded.Incomplete = true
	degraded.Limits = []string{"deadline", "CNF ceiling (vars 10 > 5)"}
	degraded.Warnings = append(degraded.Warnings, "dynamic include at app.php:3:1", "variable variable")
	for _, g := range degraded.Groups {
		for _, cex := range g.Cexs {
			cex.Assert.Origin.Class = "policy class"
			cex.Assert.Origin.Context = "attr"
		}
	}
	reports["degraded"] = degraded
	incomplete := buildReport(t, `<?php echo htmlspecialchars($_GET['x']);`)
	incomplete.Safe, incomplete.Incomplete = false, true
	incomplete.Limits = []string{"parse errors", "deadline"}
	reports["incomplete"] = incomplete

	for name, r := range reports {
		if got, want := r.String(), fmtText(r); got != want {
			t.Errorf("%s: String() differs from the fmt reference:\n got %q\nwant %q", name, got, want)
		}
		var b strings.Builder
		if err := r.Write(&b); err != nil || b.String() != fmtText(r) {
			t.Errorf("%s: Write() differs from the fmt reference (err %v)", name, err)
		}
	}
	if n := len(reports["unsafe"].Groups); n == 0 {
		t.Fatal("branchy source produced no groups")
	}
}
