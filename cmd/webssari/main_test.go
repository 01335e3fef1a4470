package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeTemp(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerifyVulnerableExitCode(t *testing.T) {
	path := writeTemp(t, "v.php", `<?php echo $_GET['x']; ?>`)
	if code := run([]string{path}); code != 1 {
		t.Fatalf("exit = %d, want 1 (vulnerable)", code)
	}
}

func TestVerifySafeExitCode(t *testing.T) {
	path := writeTemp(t, "s.php", `<?php echo htmlspecialchars($_GET['x']); ?>`)
	if code := run([]string{path}); code != 0 {
		t.Fatalf("exit = %d, want 0 (safe)", code)
	}
}

func TestJSONOutput(t *testing.T) {
	path := writeTemp(t, "v.php", `<?php echo $_GET['x']; ?>`)
	if code := run([]string{"-json", path}); code != 1 {
		t.Fatalf("exit = %d", code)
	}
}

func TestPatchWritesSecuredFile(t *testing.T) {
	path := writeTemp(t, "v.php", `<?php $q = $_GET['x']; mysql_query($q); ?>`)
	if code := run([]string{"-patch", path}); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	secured := strings.TrimSuffix(path, ".php") + ".secured.php"
	data, err := os.ReadFile(secured)
	if err != nil {
		t.Fatalf("secured copy missing: %v", err)
	}
	if !strings.Contains(string(data), "websafe(") {
		t.Fatalf("secured copy lacks guards:\n%s", data)
	}
	// The secured copy itself must verify clean.
	if code := run([]string{secured}); code != 0 {
		t.Fatalf("secured copy exit = %d, want 0", code)
	}
}

func TestSinkFlag(t *testing.T) {
	path := writeTemp(t, "v.php", `<?php DoSQL("X" . $_GET['x']); ?>`)
	if code := run([]string{path}); code != 0 {
		t.Fatalf("without sink flag: exit = %d, want 0", code)
	}
	if code := run([]string{"-sink", "DoSQL:1", path}); code != 1 {
		t.Fatalf("with sink flag: exit = %d, want 1", code)
	}
	if code := run([]string{"-sink", "DoSQL", path}); code != 1 {
		t.Fatalf("all-args sink flag: exit = %d, want 1", code)
	}
	if code := run([]string{"-sink", "DoSQL:x", path}); code != 2 {
		t.Fatalf("malformed sink flag: exit = %d, want 2", code)
	}
}

func TestPreludeFlag(t *testing.T) {
	pre := writeTemp(t, "extra.prelude", "sink DoSQL tainted 1\n")
	php := writeTemp(t, "v.php", `<?php DoSQL("X" . $_POST['y']); ?>`)
	if code := run([]string{"-prelude", pre, php}); code != 1 {
		t.Fatalf("prelude flag: exit = %d, want 1", code)
	}
	if code := run([]string{"-prelude", "/nonexistent", php}); code != 2 {
		t.Fatalf("missing prelude: exit = %d, want 2", code)
	}
}

func TestIncludesResolvedRelativeToFile(t *testing.T) {
	dir := t.TempDir()
	lib := filepath.Join(dir, "lib.php")
	main := filepath.Join(dir, "main.php")
	if err := os.WriteFile(lib, []byte(`<?php function show($m) { echo $m; }`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(main, []byte(`<?php include 'lib.php'; show($_GET['m']);`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{main}); code != 1 {
		t.Fatalf("cross-file taint: exit = %d, want 1", code)
	}
}

func TestNoInputs(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestRejectsBadSharedFlags pins startup validation: a bad shared flag
// prints one error and exits 2 before the metrics listener starts or
// any input is verified, however many inputs there are.
func TestRejectsBadSharedFlags(t *testing.T) {
	a := writeTemp(t, "a.php", `<?php echo $_GET['x'];`)
	b := writeTemp(t, "b.php", `<?php echo 'ok';`)
	for _, bad := range [][]string{
		{"-policy", "bogus"},
		{"-j", "-1"},
		{"-unroll", "0"},
		{"-incremental"},
		{"-log-format", "bogus"},
	} {
		args := append(append([]string{"-metrics-addr", "127.0.0.1:0"}, bad...), a, b)
		var code int
		stderr := captureStderr(t, func() { code = run(args) })
		if code != 2 {
			t.Errorf("%v exited %d, want 2", bad, code)
		}
		if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 {
			t.Errorf("%v: want one error line, got:\n%s", bad, stderr)
		}
	}
}

// TestRejectsSolverModeFlag: the solver has one dispatch loop, so
// -solver-mode is an undefined flag, a usage error.
func TestRejectsSolverModeFlag(t *testing.T) {
	a := writeTemp(t, "a.php", `<?php echo 'ok';`)
	var code int
	stderr := captureStderr(t, func() { code = run([]string{"-solver-mode", "shared", a}) })
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -solver-mode") {
		t.Fatalf("-solver-mode shared exited %d, stderr:\n%s\nwant 2 on an undefined flag", code, stderr)
	}
}

// captureStderr runs fn with os.Stderr redirected to a pipe and returns
// what it wrote.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	fn()
	os.Stderr = old
	w.Close()
	return <-done
}

func TestMissingInput(t *testing.T) {
	if code := run([]string{"/no/such/file.php"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestParallelDeadlineExitsIncomplete: deadline expiry while the worker
// pool is saturated must degrade to exit code 3 (incomplete), not
// deadlock and not claim the project safe.
func TestParallelDeadlineExitsIncomplete(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 6; i++ {
		name := filepath.Join(dir, fmt.Sprintf("f%d.php", i))
		src := fmt.Sprintf("<?php\n$v = $_GET['k%d'];\necho $v;\n", i)
		if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan int, 1)
	go func() { done <- run([]string{"-j", "8", "-timeout", "1ns", dir}) }()
	select {
	case code := <-done:
		if code != 3 {
			t.Fatalf("exit = %d, want 3 (incomplete)", code)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("run deadlocked under mid-pool deadline expiry")
	}
}

// TestParallelFlagMatchesSequentialExit: -j changes scheduling, never
// verdicts.
func TestParallelFlagMatchesSequentialExit(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.php"), []byte(`<?php echo $_GET['x'];`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.php"), []byte(`<?php echo htmlspecialchars($_GET['x']);`), 0o644); err != nil {
		t.Fatal(err)
	}
	seq := run([]string{dir})
	par := run([]string{"-j", "8", "-v", dir})
	if seq != par {
		t.Fatalf("sequential exit %d != parallel exit %d", seq, par)
	}
	if seq != 1 {
		t.Fatalf("exit = %d, want 1", seq)
	}
}

func TestFigure10Flag(t *testing.T) {
	if testing.Short() {
		t.Skip("figure10 run is slow")
	}
	if code := run([]string{"-figure10", "-scale", "0.002"}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
}

func TestPaperAndUnrollFlags(t *testing.T) {
	path := writeTemp(t, "v.php", "<?php\n$x = $_GET['q'];\necho $x;\necho $x;")
	if code := run([]string{"-paper", "-unroll", "2", path}); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

func TestHTMLFlag(t *testing.T) {
	php := writeTemp(t, "v.php", `<?php echo $_GET['x']; ?>`)
	out := filepath.Join(t.TempDir(), "report.html")
	if code := run([]string{"-html", out, php}); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("HTML report missing: %v", err)
	}
	if !strings.Contains(string(data), "<!DOCTYPE html>") {
		t.Fatalf("not an HTML report")
	}
}

func TestDirectoryArgument(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.php"), []byte(`<?php echo $_GET['x'];`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.php"), []byte(`<?php echo 'safe';`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{dir}); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	clean := t.TempDir()
	if err := os.WriteFile(filepath.Join(clean, "c.php"), []byte(`<?php echo 'ok';`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{clean}); code != 0 {
		t.Fatalf("clean project exit = %d, want 0", code)
	}
}

// TestTraceAndMetricsFlags checks the CLI's observability wiring: the
// trace file is valid Chrome trace-event JSON covering the pipeline, and
// the metrics server accepts an ephemeral bind.
func TestTraceAndMetricsFlags(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.php"), []byte(`<?php echo $_GET['x'];`), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "out.json")
	if code := run([]string{"-trace", tracePath, "-metrics-addr", ":0", "-v", dir}); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name]++
	}
	for _, stage := range []string{"parse", "solve", "verify_file", "verify_dir"} {
		if names[stage] == 0 {
			t.Errorf("no %q spans in trace (%v)", stage, names)
		}
	}
}

// TestStoreFlag runs the same file twice against one persistent store:
// same exit code, populated store root.
func TestStoreFlag(t *testing.T) {
	path := writeTemp(t, "v.php", `<?php echo $_GET['x']; ?>`)
	storeRoot := filepath.Join(t.TempDir(), "cache")
	if code := run([]string{"-store", storeRoot, path}); code != 1 {
		t.Fatalf("cold run exit = %d, want 1", code)
	}
	var blobs int
	err := filepath.WalkDir(filepath.Join(storeRoot, "objects"), func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			blobs++
		}
		return err
	})
	if err != nil || blobs == 0 {
		t.Fatalf("store not populated: %d blobs, err %v", blobs, err)
	}
	if code := run([]string{"-store", storeRoot, path}); code != 1 {
		t.Fatalf("warm run exit = %d, want 1", code)
	}
	if code := run([]string{"-store", storeRoot, "-json", path}); code != 1 {
		t.Fatalf("warm JSON run exit = %d, want 1", code)
	}
}

// TestVersionFlagExitsClean checks -version short-circuits before any
// input handling.
func TestVersionFlagExitsClean(t *testing.T) {
	if code := run([]string{"-version"}); code != 0 {
		t.Fatalf("-version exited %d", code)
	}
}
