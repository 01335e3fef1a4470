package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func writePHP(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.php")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const vulnSrc = `<?php
if ($c) { $x = $_GET['a']; } else { $x = 'ok'; }
echo $x;
?>`

func TestStages(t *testing.T) {
	path := writePHP(t, vulnSrc)
	for _, stage := range []string{"ai", "renamed", "constraints", "cnf"} {
		if code := run([]string{"-stage", stage, path}); code != 0 {
			t.Fatalf("stage %s: exit = %d", stage, code)
		}
	}
}

func TestCNFDump(t *testing.T) {
	path := writePHP(t, vulnSrc)
	out := t.TempDir()
	if code := run([]string{"-stage", "cnf", "-o", out, path}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	data, err := os.ReadFile(filepath.Join(out, "assert_0.cnf"))
	if err != nil {
		t.Fatalf("missing DIMACS dump: %v", err)
	}
	if len(data) == 0 {
		t.Fatalf("empty DIMACS dump")
	}
}

func TestVerifyDefaultStage(t *testing.T) {
	if code := run([]string{writePHP(t, vulnSrc)}); code != 1 {
		t.Fatalf("vulnerable: exit = %d, want 1", code)
	}
	if code := run([]string{writePHP(t, `<?php echo 'ok';`)}); code != 0 {
		t.Fatalf("safe: exit = %d, want 0", code)
	}
	// Parse errors leave part of the model unverified: no safety claim.
	if code := run([]string{writePHP(t, `<?php $x = ; } } if (`)}); code != 3 {
		t.Fatalf("parse errors: exit = %d, want 3", code)
	}
}

func TestNaiveMode(t *testing.T) {
	if code := run([]string{"-naive", writePHP(t, vulnSrc)}); code != 1 {
		t.Fatalf("naive vulnerable: exit = %d, want 1", code)
	}
	if code := run([]string{"-naive", writePHP(t, `<?php $x = 'safe'; echo $x;`)}); code != 0 {
		t.Fatalf("naive safe: exit = %d, want 0", code)
	}
}

func TestUsageErrors(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Fatalf("no args: exit = %d", code)
	}
	if code := run([]string{"/no/such.php"}); code != 2 {
		t.Fatalf("missing file: exit = %d", code)
	}
	if code := run([]string{"-stage", "bogus", writePHP(t, vulnSrc)}); code != 2 {
		t.Fatalf("bad stage: exit = %d", code)
	}
}

// TestTraceAndMetricsFlags drives the observability path end to end:
// single-file and directory modes both write a parseable Chrome
// trace-event JSON with the expected pipeline spans, with the metrics
// server bound to an ephemeral port.
func TestTraceAndMetricsFlags(t *testing.T) {
	spanNames := func(tracePath string) map[string]int {
		t.Helper()
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatalf("trace not written: %v", err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		names := map[string]int{}
		for _, ev := range trace.TraceEvents {
			if ev.Ph != "X" {
				t.Errorf("unexpected phase %q", ev.Ph)
			}
			names[ev.Name]++
		}
		return names
	}

	tracePath := filepath.Join(t.TempDir(), "single.json")
	if code := run([]string{"-trace", tracePath, "-metrics-addr", ":0", "-v", writePHP(t, vulnSrc)}); code != 1 {
		t.Fatalf("single-file exit = %d, want 1", code)
	}
	names := spanNames(tracePath)
	for _, stage := range []string{"parse", "flow", "rename", "constraints", "solve", "verify_file"} {
		if names[stage] != 1 {
			t.Errorf("single file: %d %q spans, want 1 (%v)", names[stage], stage, names)
		}
	}

	dir := t.TempDir()
	for name, src := range map[string]string{
		"a.php": `<?php echo $_GET['x'];`,
		"b.php": `<?php echo 'safe';`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tracePath = filepath.Join(t.TempDir(), "dir.json")
	if code := run([]string{"-trace", tracePath, "-metrics-addr", ":0", "-v", dir}); code != 1 {
		t.Fatalf("directory exit = %d, want 1", code)
	}
	names = spanNames(tracePath)
	if names["verify_dir"] != 1 || names["parse"] != 2 {
		t.Errorf("directory spans = %v, want 1 verify_dir and 2 parse", names)
	}
}

// TestDirectoryRejectsStageFlags pins the usage error.
func TestDirectoryRejectsStageFlags(t *testing.T) {
	if code := run([]string{"-stage", "ai", t.TempDir()}); code != 2 {
		t.Fatalf("-stage on a directory: exit = %d, want 2", code)
	}
	if code := run([]string{"-naive", t.TempDir()}); code != 2 {
		t.Fatalf("-naive on a directory: exit = %d, want 2", code)
	}
}

// capture runs fn with *stream (os.Stdout or os.Stderr) redirected to a
// pipe and returns what it wrote.
func capture(t *testing.T, stream **os.File, fn func()) string {
	t.Helper()
	old := *stream
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*stream = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	fn()
	*stream = old
	w.Close()
	return <-done
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	return capture(t, &os.Stdout, fn)
}

// TestSingleFileGolden pins single-file stdout and exit codes over
// examples/php under every built-in policy, plus the expired-deadline
// path. testdata/single_file.golden holds one section per case: a
// "=== <flags> <file>" header, an "exit N" line, then the stdout.
func TestSingleFileGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/single_file.golden")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("../../examples/php/*.php")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example files: %v", err)
	}
	var cases [][]string
	for _, pol := range []string{"default", "xss-context", "ssrf"} {
		for _, f := range files {
			cases = append(cases, []string{"-policy", pol, f})
		}
	}
	cases = append(cases, []string{"-timeout", "1ns", "../../examples/php/guestbook.php"})
	var got strings.Builder
	for _, args := range cases {
		var code int
		out := captureStdout(t, func() { code = run(args) })
		fmt.Fprintf(&got, "=== %s\nexit %d\n%s", strings.Join(args, " "), code, out)
	}
	if got.String() == string(want) {
		return
	}
	wantSecs := strings.Split(string(want), "=== ")
	gotSecs := strings.Split(got.String(), "=== ")
	for i := range gotSecs {
		if i >= len(wantSecs) || gotSecs[i] != wantSecs[i] {
			w := ""
			if i < len(wantSecs) {
				w = wantSecs[i]
			}
			t.Fatalf("section %d differs from the golden:\n got: %s\nwant: %s", i, gotSecs[i], w)
		}
	}
	t.Fatalf("got %d sections, golden has %d", len(gotSecs), len(wantSecs))
}

// TestVerboseProfilesLowerStage checks single-file -v prints the run
// profile, including the IR lowering stage.
func TestVerboseProfilesLowerStage(t *testing.T) {
	path := writePHP(t, vulnSrc)
	var code int
	stderr := capture(t, &os.Stderr, func() { code = run([]string{"-v", path}) })
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	for _, want := range []string{"stage lower", "assert_0: encode"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-v stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// TestNDJSONDirectoryMode checks -ndjson: one JSON line per file, then a
// project summary line, and nothing else on stdout.
func TestNDJSONDirectoryMode(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"vuln.php": vulnSrc,
		"safe.php": `<?php echo 'ok';`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var code int
	out := captureStdout(t, func() {
		code = run([]string{"-ndjson", dir})
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("ndjson emitted %d lines, want 3 (2 files + summary):\n%s", len(lines), out)
	}
	verdicts := map[string]string{}
	for _, line := range lines[:2] {
		var rep struct {
			File    string `json:"file"`
			Verdict string `json:"verdict"`
		}
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			t.Fatalf("per-file line not JSON: %v\n%s", err, line)
		}
		verdicts[filepath.Base(rep.File)] = rep.Verdict
	}
	if verdicts["vuln.php"] != "unsafe" || verdicts["safe.php"] != "safe" {
		t.Fatalf("per-file verdicts: %v", verdicts)
	}
	var summary struct {
		Dir             string `json:"dir"`
		Files           []any  `json:"files"`
		VulnerableFiles int    `json:"vulnerable_files"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &summary); err != nil {
		t.Fatalf("summary line not JSON: %v\n%s", err, lines[2])
	}
	if summary.Dir != dir || summary.VulnerableFiles != 1 || len(summary.Files) != 0 {
		t.Fatalf("summary line: %+v", summary)
	}
}

// TestNDJSONRequiresDirectory pins the flag's scope.
func TestNDJSONRequiresDirectory(t *testing.T) {
	if code := run([]string{"-ndjson", writePHP(t, vulnSrc)}); code != 2 {
		t.Fatalf("-ndjson on a file exited %d, want 2", code)
	}
}

// TestStoreFlagDirectoryMode runs a directory twice against one store:
// identical exit codes, and the store root gains blobs.
func TestStoreFlagDirectoryMode(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "v.php"), []byte(vulnSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	storeRoot := filepath.Join(t.TempDir(), "cache")
	if code := run([]string{"-store", storeRoot, dir}); code != 1 {
		t.Fatalf("cold run exit = %d, want 1", code)
	}
	var blobs int
	err := filepath.WalkDir(filepath.Join(storeRoot, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			blobs++
		}
		return err
	})
	if err != nil || blobs == 0 {
		t.Fatalf("store not populated: %d blobs, err %v", blobs, err)
	}
	if code := run([]string{"-store", storeRoot, dir}); code != 1 {
		t.Fatalf("warm run exit = %d, want 1", code)
	}
}

// TestVersionFlag checks -version prints and exits 0.
func TestVersionFlag(t *testing.T) {
	out := captureStdout(t, func() {
		if code := run([]string{"-version"}); code != 0 {
			t.Errorf("-version exited non-zero")
		}
	})
	if !strings.HasPrefix(out, "xbmc ") {
		t.Fatalf("-version banner: %q", out)
	}
}

// TestRemoteSendsSolverSpec checks -remote carries the whole solver
// configuration on file and directory submissions. The fake daemon
// records each body and rejects the job, so xbmc exits 2.
func TestRemoteSendsSolverSpec(t *testing.T) {
	bodies := map[string]string{}
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies[r.URL.Path] = string(data)
		mu.Unlock()
		http.Error(w, `{"schema":"v1","error":"recorded"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	for _, target := range []string{writePHP(t, vulnSrc), t.TempDir()} {
		if code := run([]string{"-remote", srv.URL, "-max-conflicts", "7", target}); code != 2 {
			t.Fatalf("%s: exit = %d, want 2 from the rejecting daemon", target, code)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, path := range []string{"/v1/files", "/v1/dirs"} {
		if !strings.Contains(bodies[path], `"solver":{"max_conflicts":7}`) {
			t.Errorf("%s body lacks the solver spec: %s", path, bodies[path])
		}
	}
}

// TestRejectsSolverModeFlag: the solver has one dispatch loop, so
// -solver-mode is an undefined flag, a usage error (exit 2) raised
// before any file is read or any daemon is contacted.
func TestRejectsSolverModeFlag(t *testing.T) {
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, `{"schema":"v1","error":"recorded"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	target := writePHP(t, vulnSrc)
	for _, args := range [][]string{
		{"-solver-mode", "shared", target},
		{"-remote", srv.URL, "-solver-mode", "shared", target},
	} {
		if code := run(args); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("the daemon got %d request(s); the flag must be rejected first", n)
	}
}
