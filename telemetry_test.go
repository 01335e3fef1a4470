package webssari_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"webssari"
	"webssari/internal/telemetry"
)

// telemetryPages are distinct sources, two vulnerable and one safe, so a project run exercises both verdicts.
var telemetryPages = map[string]string{
	"inject.php": `<?php
$id = $_GET['id'];
mysql_query("SELECT * FROM t WHERE id = '$id'");
?>`,
	"xss.php": `<?php
$who = $_COOKIE['who'];
if (!$who) { $who = 'guest'; }
echo "<p>hi $who</p>";
?>`,
	"clean.php": `<?php
$x = htmlspecialchars($_GET['x']);
echo $x;
?>`,
}

func writeTelemetryProject(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range telemetryPages {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestVerifyDirTelemetry is the tentpole's integration test: a parallel
// project run with a shared Telemetry must produce one span per pipeline
// stage per file, populated counters, a profile under the stable JSON
// key, and a loadable Chrome trace. Run under -race it also checks the
// concurrent counter/span paths.
func TestVerifyDirTelemetry(t *testing.T) {
	dir := writeTelemetryProject(t)
	tel := webssari.NewTelemetry()
	pr, err := webssari.VerifyDir(dir,
		webssari.WithParallelism(4), webssari.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	n := len(telemetryPages)
	if len(pr.Files) != n {
		t.Fatalf("verified %d files, want %d", len(pr.Files), n)
	}

	// One span per compile stage per file, each tagged with its file.
	events := tel.Tracer.Events()
	perStage := map[string]int{}
	parseFiles := map[string]bool{}
	for _, ev := range events {
		perStage[ev.Name]++
		if ev.Name == "parse" {
			if f, ok := ev.Args["file"].(string); ok {
				parseFiles[f] = true
			}
		}
	}
	for _, stage := range []string{"parse", "flow", "rename", "constraints", "solve", "verify_file"} {
		if perStage[stage] != n {
			t.Errorf("%d %q spans, want %d (events: %v)", perStage[stage], stage, n, perStage)
		}
	}
	if perStage["verify_dir"] != 1 {
		t.Errorf("%d verify_dir spans, want 1", perStage["verify_dir"])
	}
	if len(parseFiles) != n {
		t.Errorf("parse spans tag %d distinct files, want %d", len(parseFiles), n)
	}

	// Counters: every file verified, assertions checked.
	m := tel.Metrics
	if got := m.Counter(telemetry.MetricFilesVerified).Value(); got != int64(n) {
		t.Errorf("files_verified = %d, want %d", got, n)
	}
	if got := m.Counter(telemetry.MetricAssertionsChecked).Value(); got == 0 {
		t.Error("assertions_checked = 0")
	}
	if got := m.Counter(telemetry.MetricCounterexamples).Value(); got == 0 {
		t.Error("counterexamples = 0, want > 0 (two vulnerable pages)")
	}
	if text := m.PrometheusText(); !strings.Contains(text, telemetry.MetricFilesVerified) {
		t.Error("exposition page missing files_verified series")
	}

	// The profile travels under the stable "profile" key, project-wide
	// and per file, with the pool section at the project level.
	if pr.Profile == nil || pr.Profile.Files != n {
		t.Fatalf("project profile = %+v", pr.Profile)
	}
	if pr.Profile.Pool == nil {
		t.Errorf("project profile missing its pool section: %+v", pr.Profile)
	}
	data, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"profile"`)) {
		t.Error("marshaled project report has no profile key")
	}
	for _, rep := range pr.Files {
		if rep.Profile == nil {
			t.Fatalf("%s: no per-file profile", rep.File)
		}
		if rep.Profile.CompileWallNS <= 0 {
			t.Errorf("%s: compile wall = %d", rep.File, rep.Profile.CompileWallNS)
		}
	}

	// The trace exports as valid Chrome trace-event JSON.
	var buf bytes.Buffer
	if err := webssari.WriteTrace(tel, &buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) != len(events) {
		t.Errorf("trace JSON has %d events, tracer %d", len(trace.TraceEvents), len(events))
	}
}

// TestProfileWithoutTelemetry: profiles are built into the engine — no
// sink required.
func TestProfileWithoutTelemetry(t *testing.T) {
	rep, err := webssari.Verify([]byte(telemetryPages["inject.php"]), "inject.php")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profile == nil {
		t.Fatal("no profile on an uninstrumented run")
	}
	if rep.Profile.CompileWallNS <= 0 || rep.Profile.SolveWallNS <= 0 {
		t.Errorf("profile walls = %d/%d, want > 0",
			rep.Profile.CompileWallNS, rep.Profile.SolveWallNS)
	}
	if len(rep.Profile.Assertions) == 0 {
		t.Error("profile has no per-assertion breakdown")
	}
	for _, a := range rep.Profile.Assertions {
		if a.Sink == "" || a.Site == "" {
			t.Errorf("assertion profile missing origin: %+v", a)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"profile"`)) {
		t.Error("report JSON has no profile key")
	}
}

// TestWriteTraceWithoutTracer pins the error path.
func TestWriteTraceWithoutTracer(t *testing.T) {
	if err := webssari.WriteTrace(nil, io.Discard); err == nil {
		t.Error("WriteTrace(nil) = nil error")
	}
	if err := webssari.WriteTrace(&webssari.Telemetry{}, io.Discard); err == nil {
		t.Error("WriteTrace(no tracer) = nil error")
	}
}

// BenchmarkTelemetryOverhead compares a full Verify with telemetry
// disabled against one recording metrics and spans — the disabled
// variant is the regression guard: it must stay within noise of the
// pre-telemetry engine, since its only added cost is a handful of
// context lookups and clock reads.
func BenchmarkTelemetryOverhead(b *testing.B) {
	src := []byte(telemetryPages["inject.php"])
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := webssari.Verify(src, "bench.php"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tel := webssari.NewTelemetry()
		for i := 0; i < b.N; i++ {
			if _, err := webssari.Verify(src, "bench.php", webssari.WithTelemetry(tel)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestHTMLReportIncludesProfile: the HTML rendering carries the run
// profile section with the per-assertion solver breakdown.
func TestHTMLReportIncludesProfile(t *testing.T) {
	var buf bytes.Buffer
	_, err := webssari.VerifyToHTML([]byte(telemetryPages["inject.php"]), "inject.php", &buf)
	if err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{"Run profile", "<th>search</th>", "mysql_query"} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}

// stageOf returns the named stage row of a profile.
func stageOf(p *webssari.RunProfile, name string) (telemetry.StageProfile, bool) {
	for _, st := range p.Stages {
		if st.Name == name {
			return st, true
		}
	}
	return telemetry.StageProfile{}, false
}

// TestDeadlineSkippedAssertionsAreNotEncoded: an assertion skipped at an
// expired deadline never reached the encoder, so the profile counts no
// encode for it, and neither does /metrics.
func TestDeadlineSkippedAssertionsAreNotEncoded(t *testing.T) {
	src, err := os.ReadFile("examples/php/guestbook.php")
	if err != nil {
		t.Fatal(err)
	}
	tel := webssari.NewTelemetry()
	rep, err := webssari.Verify(src, "guestbook.php",
		webssari.WithDeadline(time.Nanosecond), webssari.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	n := len(rep.Profile.Assertions)
	if n == 0 {
		t.Fatal("no assertions; the fixture is broken")
	}
	if st, ok := stageOf(rep.Profile, "encode"); ok {
		t.Errorf("profile counts encode ×%d for assertions skipped at the deadline", st.Count)
	}
	if got := rep.Profile.Degraded["deadline"]; got != int64(n) {
		t.Errorf("degraded deadline = %d, want %d (every assertion)", got, n)
	}
	encode := telemetry.Name(telemetry.MetricStageSeconds+"_count", "stage", "encode")
	if got := tel.Metrics.Snapshot()[encode]; got != 0 {
		t.Errorf("%s = %v, want 0", encode, got)
	}
}

// TestTraceSpansMatchProfile: a traced Verify's engine spans carry its
// profile's figures: each compile stage's span lasts the stage's wall
// time in µs, one solve span counts the assertions, and each assertion
// whose encoder or search ran has one encode or search span of that
// length.
func TestTraceSpansMatchProfile(t *testing.T) {
	src, err := os.ReadFile("examples/php/guestbook.php")
	if err != nil {
		t.Fatal(err)
	}
	tel := webssari.NewTelemetry()
	rep, err := webssari.Verify(src, "examples/php/guestbook.php", webssari.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	durs := map[string][]int64{}
	var solveAsserts []any
	for _, ev := range tel.Tracer.Events() {
		durs[ev.Name] = append(durs[ev.Name], ev.Dur)
		if ev.Name == "solve" {
			solveAsserts = append(solveAsserts, ev.Args["asserts"])
		}
	}
	for _, stage := range []string{"parse", "lower", "flow", "rename", "constraints"} {
		st, _ := stageOf(rep.Profile, stage)
		if want := time.Duration(st.WallNS).Microseconds(); len(durs[stage]) != 1 || durs[stage][0] != want {
			t.Errorf("%s spans last %v µs, want one of %d µs", stage, durs[stage], want)
		}
	}
	if len(solveAsserts) != 1 || solveAsserts[0] != len(rep.Profile.Assertions) {
		t.Errorf("solve spans with asserts %v, want one with %d", solveAsserts, len(rep.Profile.Assertions))
	}
	var encodes, searches []int64
	for _, a := range rep.Profile.Assertions {
		if a.EncodeNS > 0 {
			encodes = append(encodes, time.Duration(a.EncodeNS).Microseconds())
		}
		if a.SearchNS > 0 {
			searches = append(searches, time.Duration(a.SearchNS).Microseconds())
		}
	}
	if len(searches) == 0 {
		t.Fatal("no assertion reached the solver; the fixture is broken")
	}
	if fmt.Sprint(durs["encode"]) != fmt.Sprint(encodes) || fmt.Sprint(durs["search"]) != fmt.Sprint(searches) {
		t.Errorf("encode spans %v µs, search spans %v µs; the profile's assertions say %v and %v",
			durs["encode"], durs["search"], encodes, searches)
	}
}

// TestFileVerifierReportWithoutProfile: a FileVerifier may return
// reports that carry no profile; the project run reports them instead
// of failing.
func TestFileVerifierReportWithoutProfile(t *testing.T) {
	dir := writeTelemetryProject(t)
	bare := func(ctx context.Context, src []byte, name string, opts ...webssari.Option) (*webssari.Report, error) {
		rep, err := webssari.VerifyContext(ctx, src, name, opts...)
		if rep != nil {
			rep.Profile = nil
		}
		return rep, err
	}
	pr, err := webssari.VerifyDir(dir, webssari.WithFileVerifier(bare))
	if err != nil {
		t.Fatal(err)
	}
	n := len(telemetryPages)
	if len(pr.Files) != n || len(pr.Failures) != 0 {
		t.Errorf("%d files, failures %v; want %d files and none", len(pr.Files), pr.Failures, n)
	}
}
