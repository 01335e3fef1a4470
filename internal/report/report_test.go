package report_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"webssari/internal/core"
	"webssari/internal/fixing"
	"webssari/internal/flow"
	"webssari/internal/prelude"
	"webssari/internal/report"
)

// verifySource compiles and solves one PHP source text: core.Compile
// followed by core.Solve. Recoverable parse errors are returned beside
// the result.
func verifySource(name string, src []byte, opts core.Options) (*core.Result, []error) {
	p, _, errs := core.Compile(name, src, opts)
	if p == nil {
		return nil, errs
	}
	return core.Solve(context.Background(), p, opts), errs
}

func verify(t *testing.T, src string) *core.Result {
	t.Helper()
	pre := prelude.Default()
	pre.AddSink("DoSQL", pre.Lattice().Top(), 1)
	res, errs := verifySource("app.php", []byte(src), core.Options{Flow: flow.Options{Prelude: pre}})
	for _, err := range errs {
		t.Fatalf("verify: %v", err)
	}
	return res
}

func buildReport(t *testing.T, src string) *report.Report {
	t.Helper()
	res := verify(t, src)
	return report.Build(res, fixing.Analyze(res))
}

func TestSafeReport(t *testing.T) {
	r := buildReport(t, `<?php echo htmlspecialchars($_GET['x']);`)
	if !r.Safe || r.Verdict != report.VerdictSafe || r.GroupCount() != 0 || r.SymptomCount() != 0 {
		t.Fatalf("safe program misreported: %+v", *r)
	}
	if !strings.Contains(r.String(), "VERIFIED") {
		t.Fatalf("report missing VERIFIED:\n%s", r)
	}
}

func TestGroupedReport(t *testing.T) {
	r := buildReport(t, `<?php
$sid = $_GET['sid'];
$q1 = "SELECT 1 WHERE sid=$sid";
DoSQL($q1);
$q2 = "SELECT 2 WHERE sid=$sid";
DoSQL($q2);
echo $sid;`)
	if r.Safe || r.Verdict != report.VerdictUnsafe {
		t.Fatalf("vulnerable program reported %s", r.Verdict)
	}
	if r.SymptomCount() != 3 {
		t.Fatalf("symptoms = %d, want 3", r.SymptomCount())
	}
	if r.GroupCount() != 1 || len(r.Patches) != 1 {
		t.Fatalf("groups = %d, want 1 (single root $sid)\n%s", r.GroupCount(), r)
	}
	text := r.String()
	for _, frag := range []string{
		"3 vulnerable statement(s) caused by 1 error introduction(s)",
		"sanitize $sid",
		"SQL injection",
		"cross-site scripting",
		"$sid becomes tainted",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("report missing %q:\n%s", frag, text)
		}
	}
	// The single group must cover all three traces.
	if p := r.Patches[0]; p.Findings != 3 || p.Var != "sid" {
		t.Fatalf("patch = %+v, want 3 traces repaired at $sid", p)
	}
	for i, f := range r.Findings {
		if f.Group != 0 {
			t.Errorf("finding %d in group %d, want 0", i, f.Group)
		}
		if i > 0 && f.Location.Line < r.Findings[i-1].Location.Line {
			t.Errorf("findings not in sink order: line %d after %d", f.Location.Line, r.Findings[i-1].Location.Line)
		}
	}
}

func TestBranchPathShown(t *testing.T) {
	r := buildReport(t, `<?php
if ($mode) { $x = $_GET['a']; } else { $x = 'safe'; }
echo $x;`)
	text := r.String()
	if !strings.Contains(text, "path: b0") {
		t.Fatalf("report missing branch path:\n%s", text)
	}
}

func TestWarningsSurface(t *testing.T) {
	r := buildReport(t, `<?php include $_GET['page'];`)
	text := r.String()
	if !strings.Contains(text, "Approximations:") || !strings.Contains(text, "dynamic") {
		t.Fatalf("report missing warnings:\n%s", text)
	}
	if !strings.Contains(text, "file inclusion") {
		t.Fatalf("report missing vulnerability class:\n%s", text)
	}
}

func TestGroupsSortedBySourceOrder(t *testing.T) {
	r := buildReport(t, `<?php
$b = $_POST['b'];
$a = $_GET['a'];
echo $a;
echo $b;`)
	if r.GroupCount() != 2 {
		t.Fatalf("groups = %d, want 2", r.GroupCount())
	}
	if l0, l1 := r.Patches[0].Location.Line, r.Patches[1].Location.Line; l0 > l1 {
		t.Fatalf("groups not in source order: lines %d, %d", l0, l1)
	}
}

// TestRenderRecords checks that Build lists one render record per
// finding, group by group, and that a report decoded from JSON renders
// nothing until its records are attached.
func TestRenderRecords(t *testing.T) {
	r := buildReport(t, `<?php
$b = $_POST['b'];
if ($m) { $a = $_GET['a']; } else { $a = $b; }
echo $b;
echo $a;
DoSQL($a);`)
	traces := report.Traces(r)
	if len(traces) != len(r.Findings) || len(traces) < 3 {
		t.Fatalf("%d render records for %d findings", len(traces), len(r.Findings))
	}
	listed := make([]bool, len(r.Findings))
	next := 0
	for g, p := range r.Patches {
		for _, tr := range traces[next : next+p.Findings] {
			if listed[tr.Finding] || r.Findings[tr.Finding].Group != g {
				t.Fatalf("record %+v misplaced in group %d", tr, g)
			}
			listed[tr.Finding] = true
		}
		next += p.Findings
	}

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var decoded report.Report
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if s := decoded.String(); s != "" {
		t.Fatalf("decoded report rendered %q without records", s)
	}
	report.Attach(&decoded, traces, report.Includes(r))
	if got, want := decoded.String(), r.String(); got != want {
		t.Fatalf("decoded report with records renders\n%s\nwant\n%s", got, want)
	}
}
