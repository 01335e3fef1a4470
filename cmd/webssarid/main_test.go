package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"webssari"
	"webssari/client"
)

// startDaemon runs the daemon body in-process on an ephemeral port and
// returns a client for it and the exit-code channel.
func startDaemon(t *testing.T, extra ...string) (*client.Client, string, <-chan int) {
	t.Helper()
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { exit <- run(args, ready) }()
	select {
	case addr := <-ready:
		base := "http://" + addr
		return client.New(base), base, exit
	case code := <-exit:
		t.Fatalf("daemon exited before binding: %d", code)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not bind")
	}
	return nil, "", nil
}

// submitDirAndWait submits a directory job and waits for it to finish.
func submitDirAndWait(t *testing.T, c *client.Client, dir string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := c.SubmitDir(ctx, client.SubmitDirRequest{Dir: dir})
	if err != nil {
		t.Fatalf("submit dir: %v", err)
	}
	if sub.SchemaV != client.Schema {
		t.Fatalf("submit response schema = %q, want %q", sub.SchemaV, client.Schema)
	}
	if _, err := c.Wait(ctx, sub.Job); err != nil {
		t.Fatalf("job %s: %v", sub.Job, err)
	}
	return sub.Job
}

// projectJSON fetches a finished dir job's report as a decoded JSON tree
// (the client's typed accessor, re-marshalled, so comparisons see the
// wire shape).
func projectJSON(t *testing.T, c *client.Client, id string) map[string]any {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pr, err := c.DirResult(ctx, id)
	if err != nil {
		t.Fatalf("result %s: %v", id, err)
	}
	data, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(data, &tree); err != nil {
		t.Fatal(err)
	}
	return tree
}

// stripProfiles removes every nondeterministic "profile" object (and the
// run-relative store and compile counters) from a decoded report tree.
func stripProfiles(v any) any {
	switch node := v.(type) {
	case map[string]any:
		delete(node, "profile")
		delete(node, "store_hits")
		delete(node, "store_misses")
		delete(node, "cache_misses")
		for k, child := range node {
			node[k] = stripProfiles(child)
		}
	case []any:
		for i, child := range node {
			node[i] = stripProfiles(child)
		}
	}
	return v
}

// TestDaemonEndToEnd is the acceptance path: the daemon verifies the
// examples/php corpus twice against a persistent store; the second run
// is served from disk (visible on /metrics) with byte-identical
// verdicts, and SIGTERM drains in-flight work before exit.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end daemon test")
	}
	storeDir := t.TempDir()
	c, base, exit := startDaemon(t, "-store", storeDir, "-grace", "60s")
	examples, err := filepath.Abs(filepath.Join("..", "..", "examples", "php"))
	if err != nil {
		t.Fatal(err)
	}

	id1 := submitDirAndWait(t, c, examples)
	id2 := submitDirAndWait(t, c, examples)

	// The corpus has deliberate vulnerabilities: both runs say unsafe.
	rep1 := projectJSON(t, c, id1)
	rep2 := projectJSON(t, c, id2)
	if rep1["vulnerable_files"].(float64) == 0 {
		t.Fatalf("examples corpus reported no vulnerable files: %v", rep1)
	}

	// Byte-identical verdicts once profiles are stripped.
	j1, err := json.Marshal(stripProfiles(rep1))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(stripProfiles(rep2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("store-served report diverged from computed one:\n%s\nvs\n%s", j1, j2)
	}

	// The second run was served from the persistent store.
	hits := scrapeMetric(t, base+"/metrics", "webssari_store_hits_total")
	if hits < 1 {
		t.Fatalf("store hits after resubmission = %d, want >= 1", hits)
	}

	// SIGTERM with a job in flight: the daemon drains it and exits 0.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.SubmitDir(ctx, client.SubmitDirRequest{Dir: examples}); err != nil {
		t.Fatalf("pre-shutdown submit: %v", err)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d after SIGTERM, want 0 (clean drain)", code)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// scrapeMetric fetches a Prometheus page and returns one series' value.
func scrapeMetric(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindSubmatch(page)
	if m == nil {
		t.Fatalf("metric %s absent from %s:\n%s", name, url, page)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDaemonStorePersistsAcrossRestart restarts the daemon over the same
// store root: the warm instance answers from disk.
func TestDaemonStorePersistsAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end daemon test")
	}
	storeDir := t.TempDir()
	examples, err := filepath.Abs(filepath.Join("..", "..", "examples", "php"))
	if err != nil {
		t.Fatal(err)
	}

	c, _, exit := startDaemon(t, "-store", storeDir)
	submitDirAndWait(t, c, examples)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := <-exit; code != 0 {
		t.Fatalf("first daemon exited %d", code)
	}

	c, base, exit := startDaemon(t, "-store", storeDir)
	submitDirAndWait(t, c, examples)
	if hits := scrapeMetric(t, base+"/metrics", "webssari_store_hits_total"); hits < 1 {
		t.Fatalf("restarted daemon store hits = %d, want >= 1", hits)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := <-exit; code != 0 {
		t.Fatalf("second daemon exited %d", code)
	}
}

// TestDaemonIncrementalAndWatch exercises the delta path end to end
// through the daemon: an -incremental daemon re-verifies an unchanged
// project entirely from the dependency graph, a watch job picks up an
// edit and re-verifies within its poll interval, and DELETE ends the
// watch cleanly with the last round's verdict.
func TestDaemonIncrementalAndWatch(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end daemon test")
	}
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("lib.php", "<?php $greeting = $_GET['q']; ?>\n")
	write("page.php", "<?php include 'lib.php'; echo $greeting; ?>\n")

	c, base, exit := startDaemon(t,
		"-store", t.TempDir(), "-incremental", "-watch-interval", "50ms", "-grace", "60s")

	// Cold then warm one-shot runs. The counters are cumulative: the cold
	// full run plans both files, the warm run plans nothing and serves
	// both from the graph.
	submitDirAndWait(t, c, dir)
	id2 := submitDirAndWait(t, c, dir)
	if planned := scrapeMetric(t, base+"/metrics", "webssari_incremental_planned_total"); planned != 2 {
		t.Fatalf("cold+warm runs planned %d file(s) total, want 2 (cold run only)", planned)
	}
	if skipped := scrapeMetric(t, base+"/metrics", "webssari_incremental_skipped_total"); skipped != 2 {
		t.Fatalf("warm re-verification skipped %d file(s), want 2", skipped)
	}
	if full := scrapeMetric(t, base+"/metrics", "webssari_incremental_full_runs_total"); full != 1 {
		t.Fatalf("full-run counter = %d, want 1 (the cold run)", full)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pr, err := c.DirResult(ctx, id2)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Verdict() != webssari.VerdictUnsafe {
		t.Fatalf("graph-served project verdict = %q, want unsafe", pr.Verdict())
	}

	// Watch: first round streams 2 file lines + 1 summary; an edit that
	// breaks page.php's sink triggers a second round re-verifying only
	// the dependents of lib.php (both files here — page includes lib).
	sub, err := c.SubmitDir(ctx, client.SubmitDirRequest{Dir: dir, Watch: true})
	if err != nil {
		t.Fatal(err)
	}
	type round struct{ files, summaries int }
	lines := make(chan json.RawMessage, 64)
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.Stream(ctx, sub.Job, func(line json.RawMessage) error {
			lines <- line
			return nil
		})
	}()
	collectRound := func() round {
		t.Helper()
		var r round
		for {
			select {
			case line := <-lines:
				if strings.Contains(string(line), `"vulnerable_files"`) {
					r.summaries++
					return r
				}
				r.files++
			case <-time.After(30 * time.Second):
				t.Fatalf("watch round incomplete: %+v", r)
			}
		}
	}
	first := collectRound()
	if first.files != 2 || first.summaries != 1 {
		t.Fatalf("watch round 1 streamed %+v, want 2 files + 1 summary", first)
	}

	// Sanitize the include: the next round must see the change and flip
	// the verdict to safe. Content length changes, so even a coarse mtime
	// cannot mask the edit.
	write("lib.php", "<?php $greeting = htmlspecialchars($_GET['q']); ?>\n")
	second := collectRound()
	if second.summaries != 1 {
		t.Fatalf("watch round 2 streamed %+v, want a summary line", second)
	}

	st, err := c.Cancel(ctx, sub.Job)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Watch {
		t.Fatalf("job status watch = false, want true")
	}
	final, err := c.Wait(ctx, sub.Job)
	if err != nil {
		t.Fatalf("watch job after cancel: %v", err)
	}
	if final.State != client.StateDone {
		t.Fatalf("cancelled watch job state = %q, want done", final.State)
	}
	if final.Rounds < 2 {
		t.Fatalf("watch job rounds = %d, want >= 2", final.Rounds)
	}
	if final.Verdict != webssari.VerdictSafe {
		t.Fatalf("verdict after sanitizing edit = %q, want safe", final.Verdict)
	}
	<-streamDone

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := <-exit; code != 0 {
		t.Fatalf("daemon exited %d after SIGTERM, want 0", code)
	}
}

// TestVersionFlag checks -version prints a banner and exits 0.
func TestVersionFlag(t *testing.T) {
	if code := run([]string{"-version"}, nil); code != 0 {
		t.Fatalf("-version exited %d", code)
	}
}

// TestRejectsPositionalArgs pins the usage contract.
func TestRejectsPositionalArgs(t *testing.T) {
	if code := run([]string{"file.php"}, nil); code != 2 {
		t.Fatalf("positional args exited %d, want 2", code)
	}
}

// TestIncrementalNeedsStore pins the flag-validation contract.
func TestIncrementalNeedsStore(t *testing.T) {
	if code := run([]string{"-incremental"}, nil); code != 2 {
		t.Fatalf("-incremental without -store exited %d, want 2", code)
	}
}

// TestRejectsBadSharedFlags pins startup validation: each bad shared
// flag prints one error and exits 2 before the metrics listener or the
// API listener starts.
func TestRejectsBadSharedFlags(t *testing.T) {
	for _, bad := range [][]string{
		{"-j", "-1"},
		{"-policy", "bogus"},
		{"-log-level", "bogus"},
	} {
		args := append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, bad...)
		stderr := captureStderr(t, func() {
			ready, exit := make(chan string, 1), make(chan int, 1)
			go func() { exit <- run(args, ready) }()
			select {
			case code := <-exit:
				if code != 2 {
					t.Errorf("%v exited %d, want 2", bad, code)
				}
			case <-ready:
				t.Errorf("%v: the daemon started serving", bad)
				_ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
				<-exit
			}
		})
		if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 {
			t.Errorf("%v: want one error line, got:\n%s", bad, stderr)
		}
	}
}

// TestRejectsSolverModeFlag: the solver has one dispatch loop, so
// -solver-mode is an undefined flag, a usage error raised before any
// listener starts.
func TestRejectsSolverModeFlag(t *testing.T) {
	var code int
	stderr := captureStderr(t, func() {
		code = run([]string{"-addr", "127.0.0.1:0", "-solver-mode", "shared"}, nil)
	})
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
