package report_test

import (
	"strings"
	"testing"

	"webssari/internal/core"
	"webssari/internal/fixing"
	"webssari/internal/flow"
	"webssari/internal/prelude"
	"webssari/internal/report"
)

func TestHTMLReport(t *testing.T) {
	src := `<?php
$sid = $_GET['sid'];
$q = "SELECT * FROM t WHERE sid=$sid";
mysql_query($q);
echo $sid;
?>`
	res, errs := verifySource("app.php", []byte(src),
		core.Options{Flow: flow.Options{Prelude: prelude.Default()}})
	for _, err := range errs {
		t.Fatalf("verify: %v", err)
	}
	rep := report.Build(res, fixing.Analyze(res))

	var b strings.Builder
	if err := report.WriteHTML(&b, rep, map[string][]byte{"app.php": []byte(src)}); err != nil {
		t.Fatalf("WriteHTML: %v", err)
	}
	out := b.String()
	for _, frag := range []string{
		"<!DOCTYPE html>",
		"UNSAFE</b>: 2 vulnerable statement(s) caused by 1 error introduction(s)",
		`id="group1"`,
		"SQL injection",
		"cross-site scripting",
		`id="L-app.php-2"`,             // highlighted root line anchor
		"$sid = $_GET[&#39;sid&#39;];", // escaped source excerpt
		`href="#L-app.php-4"`,          // sink cross-reference
		"$sid becomes tainted",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("HTML missing %q", frag)
		}
	}
	if strings.Contains(out, "<?php\n$sid") {
		t.Errorf("unescaped PHP leaked into HTML")
	}
}

func TestHTMLReportSafe(t *testing.T) {
	src := `<?php echo 'static';`
	res, errs := verifySource("safe.php", []byte(src),
		core.Options{Flow: flow.Options{Prelude: prelude.Default()}})
	for _, err := range errs {
		t.Fatalf("verify: %v", err)
	}
	rep := report.Build(res, fixing.Analyze(res))
	var b strings.Builder
	if err := report.WriteHTML(&b, rep, nil); err != nil {
		t.Fatalf("WriteHTML: %v", err)
	}
	if !strings.Contains(b.String(), "VERIFIED") {
		t.Fatalf("safe HTML missing VERIFIED")
	}
}

func TestHTMLReportWithoutSources(t *testing.T) {
	src := `<?php echo $_GET['x'];`
	res, errs := verifySource("gone.php", []byte(src),
		core.Options{Flow: flow.Options{Prelude: prelude.Default()}})
	for _, err := range errs {
		t.Fatalf("verify: %v", err)
	}
	rep := report.Build(res, fixing.Analyze(res))
	var b strings.Builder
	// Absent sources: no excerpts, no crash.
	if err := report.WriteHTML(&b, rep, map[string][]byte{}); err != nil {
		t.Fatalf("WriteHTML: %v", err)
	}
	if strings.Contains(b.String(), `class="src"`) {
		t.Fatalf("excerpt rendered without source text")
	}
}

func TestHTMLEscapesAttackPayloads(t *testing.T) {
	// The report must never re-embed unescaped markup from the analyzed
	// source (a report viewer XSS would be ironic).
	src := `<?php echo $_GET['x']; // <script>alert(1)</script>`
	res, errs := verifySource("xss.php", []byte(src),
		core.Options{Flow: flow.Options{Prelude: prelude.Default()}})
	for _, err := range errs {
		t.Fatalf("verify: %v", err)
	}
	rep := report.Build(res, fixing.Analyze(res))
	var b strings.Builder
	if err := report.WriteHTML(&b, rep, map[string][]byte{"xss.php": []byte(src)}); err != nil {
		t.Fatalf("WriteHTML: %v", err)
	}
	if strings.Contains(b.String(), "<script>alert(1)</script>") {
		t.Fatalf("unescaped payload in HTML report")
	}
}

// TestHTMLVerdictLines checks that the page carries the text report's
// verdict lines: the degradation NOTE of an unsafe run cut short, and
// the INCOMPLETE header of a run that found nothing before it was.
func TestHTMLVerdictLines(t *testing.T) {
	unsafe := verify(t, `<?php echo $_GET['x'];`)
	unsafe.PerAssert[0].Unknown, unsafe.PerAssert[0].Cause = true, "deadline"
	incomplete := verify(t, `<?php echo htmlspecialchars($_GET['x']);`)
	incomplete.PerAssert[0].Unknown, incomplete.PerAssert[0].Cause = true, "deadline"
	for name, tc := range map[string]struct {
		res  *core.Result
		want []string
	}{
		"unsafe": {unsafe, []string{
			`<p class="unsafe"><b>UNSAFE</b>: 1 vulnerable statement(s) caused by 1 error introduction(s).</p>`,
			`<p class="unsafe"><b>NOTE</b>: analysis degraded (deadline); further findings may exist.</p>`,
		}},
		"incomplete": {incomplete, []string{
			`<p class="unsafe"><b>INCOMPLETE</b>: verification degraded (deadline); no Safe claim is made.</p>`,
		}},
	} {
		var b strings.Builder
		if err := report.WriteHTML(&b, report.Build(tc.res, fixing.Analyze(tc.res)), nil); err != nil {
			t.Fatal(err)
		}
		for _, frag := range tc.want {
			if !strings.Contains(b.String(), frag) {
				t.Errorf("%s: HTML lacks %q", name, frag)
			}
		}
	}
}
