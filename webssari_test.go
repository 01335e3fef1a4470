package webssari_test

import (
	"context"
	"encoding/json"
	"fmt"
	"html"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"webssari"
	"webssari/internal/runtime"
)

const vulnerableSurvey = `<?php
$sid = $_GET['sid'];
if (!$sid) { $sid = $_POST['sid']; }
$iq = "SELECT * FROM groups WHERE sid=$sid";
mysql_query($iq);
$i2q = "SELECT * FROM ans WHERE sid=$sid";
mysql_query($i2q);
$fnquery = "SELECT * FROM questions WHERE sid='$sid'";
mysql_query($fnquery);
`

func TestVerifySafe(t *testing.T) {
	rep, err := webssari.Verify([]byte(`<?php echo htmlspecialchars($_GET['q']);`), "safe.php")
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.Safe || rep.Symptoms != 0 || rep.Groups != 0 {
		t.Fatalf("safe source misreported: %+v", rep)
	}
}

func TestVerifyVulnerableGrouping(t *testing.T) {
	rep, err := webssari.Verify([]byte(vulnerableSurvey), "survey.php")
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Safe {
		t.Fatalf("vulnerable source reported safe")
	}
	if rep.Symptoms != 3 {
		t.Fatalf("symptoms = %d, want 3", rep.Symptoms)
	}
	// Root cause is $sid, assigned twice (GET and POST fallback).
	if rep.Groups != 2 {
		t.Fatalf("groups = %d, want 2 (the two $sid introductions)\n%s", rep.Groups, rep.String())
	}
	if len(rep.Findings) == 0 {
		t.Fatalf("no findings")
	}
	for _, f := range rep.Findings {
		if f.Class != "SQL injection" {
			t.Errorf("class = %q, want SQL injection", f.Class)
		}
		if len(f.Trace) == 0 {
			t.Errorf("finding at %v lacks a trace", f.Location)
		}
		if f.Group < 0 || f.Group >= len(rep.Patches) {
			t.Errorf("finding group %d out of range", f.Group)
		}
	}
	for _, p := range rep.Patches {
		if p.Var != "sid" {
			t.Errorf("patch var = %q, want sid", p.Var)
		}
	}
}

func TestReportIsJSONSerializable(t *testing.T) {
	rep, err := webssari.Verify([]byte(vulnerableSurvey), "survey.php")
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back webssari.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Symptoms != rep.Symptoms || back.Groups != rep.Groups {
		t.Fatalf("round trip lost counts")
	}
}

func TestPatchProducesVerifiedSafeOutput(t *testing.T) {
	patched, rep, err := webssari.Patch([]byte(vulnerableSurvey), "survey.php")
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if rep.Safe {
		t.Fatalf("pre-patch report should be unsafe")
	}
	if !strings.Contains(string(patched), "websafe(") {
		t.Fatalf("patched source lacks runtime guards:\n%s", patched)
	}
	rep2, err := webssari.Verify(patched, "survey.php")
	if err != nil {
		t.Fatalf("re-verify: %v", err)
	}
	if !rep2.Safe {
		t.Fatalf("patched source still unsafe:\n%s\n%s", patched, rep2.String())
	}
}

func TestPatchLeavesSafeSourceAlone(t *testing.T) {
	src := []byte(`<?php echo 'hello';`)
	patched, rep, err := webssari.Patch(src, "safe.php")
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if !rep.Safe || string(patched) != string(src) {
		t.Fatalf("safe source modified")
	}
}

// TestPatchedProgramSafeAtRuntime executes the original and the patched
// program in the taint-tracking interpreter with attacker input: the
// original delivers tainted data to the SQL sink, the patched one does not
// — the end-to-end behaviour the paper's runtime guards provide.
func TestPatchedProgramSafeAtRuntime(t *testing.T) {
	seed := func(in *runtime.Interp) {
		in.SetGet("sid", "0; DROP TABLE users --")
		in.SetPost("sid", "1; DELETE FROM groups")
	}

	orig := runtime.New()
	seed(orig)
	if err := orig.RunSource("survey.php", []byte(vulnerableSurvey)); err != nil {
		t.Fatalf("run original: %v", err)
	}
	if len(orig.TaintedEvents()) == 0 {
		t.Fatalf("original program should deliver tainted data to mysql_query")
	}

	patched, _, err := webssari.Patch([]byte(vulnerableSurvey), "survey.php")
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	fixed := runtime.New()
	seed(fixed)
	if err := fixed.RunSource("survey.php", patched); err != nil {
		t.Fatalf("run patched: %v\n%s", err, patched)
	}
	if evs := fixed.TaintedEvents(); len(evs) != 0 {
		t.Fatalf("patched program still leaks taint: %v\n%s", evs, patched)
	}
	// The program still issues its three queries — guards sanitize, they
	// do not break functionality.
	if len(fixed.DB.Queries) != 3 {
		t.Fatalf("patched program issued %d queries, want 3", len(fixed.DB.Queries))
	}
}

func TestWithSinkOption(t *testing.T) {
	src := []byte(`<?php $q = "DELETE " . $_GET['t']; DoSQL($q);`)
	rep, err := webssari.Verify(src, "t.php")
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.Safe {
		t.Fatalf("DoSQL unknown: should be safe by default")
	}
	rep, err = webssari.Verify(src, "t.php", webssari.WithSink("DoSQL", 1))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Safe {
		t.Fatalf("DoSQL sink not honored")
	}
}

func TestWithSanitizerAndSourceOptions(t *testing.T) {
	src := []byte(`<?php echo my_clean(read_feed());`)
	rep, err := webssari.Verify(src, "t.php", webssari.WithSource("read_feed"))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Safe {
		t.Fatalf("custom source not honored (my_clean passes taint through)")
	}
	rep, err = webssari.Verify(src, "t.php",
		webssari.WithSource("read_feed"), webssari.WithSanitizer("my_clean"))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.Safe {
		t.Fatalf("custom sanitizer not honored")
	}
}

func TestWithExtraPrelude(t *testing.T) {
	extra := `
sink DoSQL tainted 1
sanitizer super_escape untainted
var LEGACY_INPUT tainted
`
	src := []byte(`<?php
$q = "X" . $LEGACY_INPUT;
DoSQL($q);
DoSQL(super_escape($LEGACY_INPUT));`)
	rep, err := webssari.Verify(src, "t.php", webssari.WithExtraPrelude(extra))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Symptoms != 1 {
		t.Fatalf("symptoms = %d, want 1 (only the unescaped call)\n%s", rep.Symptoms, rep.String())
	}
}

func TestWithLoader(t *testing.T) {
	files := map[string]string{
		"lib.php": `<?php function show($m) { echo $m; }`,
	}
	loader := func(p string) ([]byte, error) {
		if s, ok := files[p]; ok {
			return []byte(s), nil
		}
		return nil, fmt.Errorf("no file %q", p)
	}
	rep, err := webssari.Verify([]byte(`<?php include 'lib.php'; show($_GET['m']);`),
		"main.php", webssari.WithLoader(loader))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Safe {
		t.Fatalf("cross-file taint missed")
	}
}

func TestWithLoopUnrollValidation(t *testing.T) {
	_, err := webssari.Verify([]byte(`<?php echo 1;`), "t.php", webssari.WithLoopUnroll(0))
	if err == nil {
		t.Fatalf("unroll 0 should be rejected")
	}
	if _, err := webssari.Verify([]byte(`<?php echo 1;`), "t.php", webssari.WithLoopUnroll(3)); err != nil {
		t.Fatalf("unroll 3: %v", err)
	}
}

func TestPaperEnumerationMode(t *testing.T) {
	src := []byte("<?php\n$x = $_GET['q'];\necho $x;\necho $x;")
	def, err := webssari.Verify(src, "t.php")
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	paper, err := webssari.Verify(src, "t.php", webssari.WithPaperEnumeration())
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(def.Findings) != 2 {
		t.Fatalf("default findings = %d, want 2", len(def.Findings))
	}
	if len(paper.Findings) != 1 {
		t.Fatalf("paper-mode findings = %d, want 1 (prior assertions assumed)", len(paper.Findings))
	}
}

func TestSymptomCount(t *testing.T) {
	n, err := webssari.SymptomCount([]byte(vulnerableSurvey), "survey.php")
	if err != nil {
		t.Fatalf("SymptomCount: %v", err)
	}
	if n != 3 {
		t.Fatalf("symptoms = %d, want 3", n)
	}
}

func TestWithRoutine(t *testing.T) {
	patched, _, err := webssari.Patch([]byte(`<?php echo $_GET['x'];`), "t.php",
		webssari.WithRoutine("my_guard"), webssari.WithSanitizer("my_guard"))
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if !strings.Contains(string(patched), "my_guard(") {
		t.Fatalf("custom routine not used:\n%s", patched)
	}
}

func TestClassOf(t *testing.T) {
	if got := webssari.ClassOf("mysql_query"); got != "SQL injection" {
		t.Fatalf("ClassOf = %q", got)
	}
	if got := webssari.ClassOf("echo"); !strings.Contains(got, "XSS") {
		t.Fatalf("ClassOf(echo) = %q", got)
	}
}

func TestFigure1SupportTickets(t *testing.T) {
	// The paper's Figure 1 + Figure 2: stored XSS through the database.
	submit := `<?php
$query = "INSERT INTO tickets (user, subject, question) VALUES ('" . $_SESSION['username'] . "', '" . $_POST['ticketsubject'] . "', '" . $_POST['message'] . "')";
$result = @mysql_query($query);`
	rep, err := webssari.Verify([]byte(submit), "submit.php")
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Safe {
		t.Fatalf("Figure 1 SQL injection missed")
	}
	display := `<?php
$query = "SELECT user, subject FROM tickets";
$result = @mysql_query($query);
while ($row = @mysql_fetch_array($result)) {
    extract($row);
    echo "$ticketuser<BR>$ticketsubject<BR><BR>";
}`
	rep, err = webssari.Verify([]byte(display), "display.php")
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Safe {
		t.Fatalf("Figure 2 stored XSS missed")
	}
}

func TestFigure3IliasReferer(t *testing.T) {
	src := `<?php
$sql = "INSERT INTO track_temp VALUES('$HTTP_REFERER');";
mysql_query($sql);`
	rep, err := webssari.Verify([]byte(src), "ilias.php")
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Safe {
		t.Fatalf("Figure 3 referer SQL injection missed")
	}
	if rep.Findings[0].Class != "SQL injection" {
		t.Fatalf("class = %q", rep.Findings[0].Class)
	}
}

func TestVerifyToHTML(t *testing.T) {
	var b strings.Builder
	rep, err := webssari.VerifyToHTML([]byte(vulnerableSurvey), "survey.php", &b)
	if err != nil {
		t.Fatalf("VerifyToHTML: %v", err)
	}
	if rep.Safe {
		t.Fatalf("report should be unsafe")
	}
	if !strings.Contains(b.String(), "SQL injection") {
		t.Fatalf("HTML missing findings")
	}
}

// TestVerifyToHTMLReportMatchesVerify checks that the report
// VerifyToHTML returns is the one VerifyContext returns for the same
// file, profile aside.
func TestVerifyToHTMLReportMatchesVerify(t *testing.T) {
	paths, err := filepath.Glob("examples/php/*.php")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := webssari.VerifyContext(context.Background(), src, path, webssari.WithDir("examples/php"))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		got, err := webssari.VerifyToHTML(src, path, &b, webssari.WithDir("examples/php"))
		if err != nil {
			t.Fatal(err)
		}
		if got.Profile == nil || want.Profile == nil {
			t.Fatalf("%s: missing profile", path)
		}
		got.Profile, want.Profile = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: VerifyToHTML report differs from VerifyContext's:\n got %+v\nwant %+v", path, got, want)
		}
	}
}

// htmlAgreesWithText checks that an HTML page shows what the text report
// shows: each verdict line, with its leading word in bold (and no verdict
// word the text lacks), and for every trace its class, sink, output
// context and branch path.
func htmlAgreesWithText(t *testing.T, page, text string) {
	t.Helper()
	for _, word := range []string{"VERIFIED", "UNSAFE", "INCOMPLETE", "NOTE"} {
		if inText, inPage := strings.Contains(text, "\n"+word+": "), strings.Contains(page, "<b>"+word+"</b>"); inText != inPage {
			t.Errorf("verdict word %s: in text %v, in HTML %v", word, inText, inPage)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		var want string
		switch {
		case strings.HasPrefix(line, "  * "):
			class, rest, _ := strings.Cut(line[len("  * "):], " via ")
			sink, context, _ := strings.Cut(rest[:strings.LastIndex(rest, " at ")], " [")
			want = html.EscapeString(class) + " via <code>" + html.EscapeString(sink) + "</code>"
			if context != "" {
				want += " [" + html.EscapeString(context)
			}
		case strings.HasPrefix(line, "      path: "):
			want = "path: " + html.EscapeString(strings.TrimPrefix(line, "      path: "))
		default:
			word, rest, ok := strings.Cut(line, ": ")
			if !ok || strings.ContainsAny(word, " $") {
				continue
			}
			want = "<b>" + word + "</b>: " + html.EscapeString(rest)
		}
		if !strings.Contains(page, want) {
			t.Errorf("HTML lacks %q (text line %q)", want, line)
		}
	}
}

// TestVerifyToHTMLAgreesWithText renders the example corpus under every
// built-in policy, plus a run cut short by its deadline, and checks that
// each page agrees with the text report: the policy's vulnerability
// class (SSRF on fetch.php), the three-way verdict with its degradation
// note, and each trace's output context and path.
func TestVerifyToHTMLAgreesWithText(t *testing.T) {
	type run struct {
		path string
		opts []webssari.Option
	}
	var runs []run
	for _, pol := range []string{"default", "ssrf", "xss-context"} {
		for _, file := range examplePHPFiles(t) {
			runs = append(runs, run{filepath.Join("examples", "php", file), []webssari.Option{webssari.WithDir("examples/php"), webssari.WithPolicy(pol)}})
		}
	}
	deadline := filepath.Join("testdata", "branchy", "b2_two_roots.php")
	runs = append(runs, run{deadline, []webssari.Option{webssari.WithDeadline(time.Nanosecond)}})
	var sawSSRF, sawContext, sawPath bool
	for _, r := range runs {
		src, err := os.ReadFile(r.path)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		rep, err := webssari.VerifyToHTML(src, r.path, &b, r.opts...)
		if err != nil {
			t.Fatalf("%s: %v", r.path, err)
		}
		page, text := b.String(), rep.String()
		t.Run(r.path, func(t *testing.T) { htmlAgreesWithText(t, page, text) })
		sawSSRF = sawSSRF || strings.Contains(page, "server-side request forgery (SSRF) via <code>file_get_contents</code>")
		sawContext = sawContext || strings.Contains(page, "</code> [html] at ")
		sawPath = sawPath || strings.Contains(page, "path: b0")
		if r.path == deadline && (rep.Verdict != webssari.VerdictIncomplete || !strings.Contains(page, "<b>INCOMPLETE</b>: verification degraded (deadline)")) {
			t.Errorf("%s under a 1ns deadline: verdict %s, page lacks the INCOMPLETE header", r.path, rep.Verdict)
		}
	}
	if !sawSSRF || !sawContext || !sawPath {
		t.Errorf("corpus did not exercise the policy class (%v), output context (%v) and path (%v)", sawSSRF, sawContext, sawPath)
	}
}

func TestWithPreludeReplacesLattice(t *testing.T) {
	custom := `
lattice chain public internal secret
var _GET secret
sink publish internal *
sanitizer declassify public
`
	src := []byte(`<?php publish($_GET['k']); publish(declassify($_GET['k']));`)
	rep, err := webssari.Verify(src, "t.php", webssari.WithPrelude(custom))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Symptoms != 1 {
		t.Fatalf("symptoms = %d, want 1 (three-level lattice)\n%s", rep.Symptoms, rep.String())
	}
	if _, err := webssari.Verify(src, "t.php", webssari.WithPrelude("lattice diamond x")); err == nil {
		t.Fatalf("malformed prelude accepted")
	}
}

func TestWithExtraPreludeTypeMismatch(t *testing.T) {
	// Extra prelude naming a type absent from the default lattice fails.
	_, err := webssari.Verify([]byte(`<?php echo 1;`), "t.php",
		webssari.WithExtraPrelude("lattice chain low high\nsink f high 1"))
	if err == nil {
		t.Fatalf("lattice-mismatched extra prelude accepted")
	}
}

func TestVerifyDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("lib.php", `<?php function show($m) { echo $m; }`)
	write("index.php", `<?php include 'lib.php'; show($_GET['q']);`)
	write("about.php", `<?php echo 'static page';`)
	write("notes.txt", `not php`)

	pr, err := webssari.VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if len(pr.Files) != 3 {
		t.Fatalf("files = %d, want 3 (txt skipped)", len(pr.Files))
	}
	if pr.Safe() {
		t.Fatalf("project with tainted include chain reported safe")
	}
	if pr.VulnerableFiles != 1 {
		t.Fatalf("vulnerable files = %d, want 1 (index.php only)", pr.VulnerableFiles)
	}
	if pr.Symptoms < 1 || pr.Groups < 1 {
		t.Fatalf("counts missing: %+v", pr)
	}
}

func TestVerifyDirMissing(t *testing.T) {
	if _, err := webssari.VerifyDir("/no/such/dir"); err == nil {
		t.Fatalf("missing dir accepted")
	}
}
