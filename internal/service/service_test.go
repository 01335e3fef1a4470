package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"webssari"
	"webssari/internal/service/api"
	"webssari/internal/store"
	"webssari/internal/telemetry"
)

const vulnerableSrc = `<?php
$name = $_GET['name'];
echo "<p>Hello, $name</p>";
?>`

const safeSrc = `<?php echo "static page"; ?>`

// postJSON submits a JSON body and decodes the JSON response.
func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (int, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp.StatusCode, out
}

// waitDone waits for a job to reach a terminal state, in one request
// to the wait route, and returns its status.
func waitDone(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/wait", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("job %s did not finish: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait %s: HTTP %d", id, resp.StatusCode)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding wait response: %v", err)
	}
	return st
}

// TestSubmitFileLifecycle walks the whole happy path over HTTP: submit,
// wait, result, stream replay.
func TestSubmitFileLifecycle(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, sub := postJSON(t, ts, "/v1/files", map[string]string{
		"name": "page.php", "source": vulnerableSrc,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%v)", code, sub)
	}
	id, _ := sub["job"].(string)
	if id == "" {
		t.Fatalf("submission response lacks a job id: %v", sub)
	}

	st := waitDone(t, ts, id)
	if st["state"] != string(stateDone) {
		t.Fatalf("job finished %v: %v", st["state"], st["error"])
	}
	if st["verdict"] != "unsafe" {
		t.Fatalf("verdict = %v, want unsafe", st["verdict"])
	}

	code, res := getJSON(t, ts, "/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	rep, _ := res["report"].(map[string]any)
	if rep == nil || rep["verdict"] != "unsafe" {
		t.Fatalf("result body: %v", res)
	}

	// The stream of a finished file job replays exactly one line.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != NDJSONContentType {
		t.Fatalf("stream content type %q", ct)
	}
	var lines int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %d not JSON: %v", lines, err)
		}
		lines++
	}
	if lines != 1 {
		t.Fatalf("stream replayed %d lines, want 1", lines)
	}

	// Unknown jobs are 404.
	if code, _ := getJSON(t, ts, "/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", code)
	}
}

// TestSubmitValidation covers the request-rejection paths.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1, MaxSourceBytes: 128})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := postJSON(t, ts, "/v1/files", map[string]string{"name": "x.php"}); code != http.StatusBadRequest {
		t.Fatalf("missing source: HTTP %d", code)
	}
	if code, _ := postJSON(t, ts, "/v1/files", map[string]string{
		"source": "<?php " + strings.Repeat("echo 1;", 64) + " ?>",
	}); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized source: HTTP %d", code)
	}
	if code, _ := postJSON(t, ts, "/v1/dirs", map[string]string{"dir": "/no/such/dir"}); code != http.StatusBadRequest {
		t.Fatalf("bad dir: HTTP %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/files", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: HTTP %d", resp.StatusCode)
	}
}

// TestDisableDirs checks the lockdown switch for server-local paths.
func TestDisableDirs(t *testing.T) {
	s := New(Config{Workers: 1, DisableDirs: true})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := postJSON(t, ts, "/v1/dirs", map[string]string{"dir": t.TempDir()}); code != http.StatusForbidden {
		t.Fatalf("dir submission under DisableDirs: HTTP %d", code)
	}
	if code, _ := postJSON(t, ts, "/v1/files", map[string]string{
		"source": safeSrc, "dir": t.TempDir(),
	}); code != http.StatusForbidden {
		t.Fatalf("file submission with include root under DisableDirs: HTTP %d", code)
	}
}

// TestQueueBackpressure fills the admission queue with no worker
// draining it (white-box: the Server is assembled by hand) and checks
// the 429 path, then the 503-on-drain path.
func TestQueueBackpressure(t *testing.T) {
	s := &Server{
		mux:    http.NewServeMux(),
		queue:  make(chan *job, 1),
		maxSrc: DefaultMaxSourceBytes,
		jobs:   make(map[string]*job),
	}
	s.routes()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func() (int, map[string]any) {
		return postJSON(t, ts, "/v1/files", map[string]string{"source": safeSrc})
	}
	if code, _ := submit(); code != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d", code)
	}
	code, body := submit()
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue-full submission: HTTP %d (%v)", code, body)
	}
	// The rejected job must not linger in the history.
	s.jobsMu.Lock()
	n := len(s.jobs)
	s.jobsMu.Unlock()
	if n != 1 {
		t.Fatalf("%d jobs retained after rejection, want 1", n)
	}

	// Start a sink worker for Drain to wait on, then drain: further
	// submissions answer 503.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for range s.queue {
		}
	}()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := submit(); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submission: HTTP %d", code)
	}
	if code, st := getJSON(t, ts, "/healthz"); code != http.StatusOK || st["status"] != "draining" {
		t.Fatalf("healthz while draining: HTTP %d, %v", code, st)
	}
}

// TestDirJobStreamsPerFile verifies a directory job over HTTP with a
// store attached: NDJSON stream carries one line per file, the project
// report aggregates, and a resubmission is served from the store (the
// metrics endpoint shows the hits).
func TestDirJobStreamsPerFile(t *testing.T) {
	proj := t.TempDir()
	for name, src := range map[string]string{
		"vuln.php": vulnerableSrc,
		"safe.php": safeSrc,
	} {
		if err := os.WriteFile(filepath.Join(proj, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(filepath.Join(t.TempDir(), "cache"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	s := New(Config{Workers: 2, Store: st, Telemetry: tel})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	runDir := func() (string, map[string]any) {
		code, sub := postJSON(t, ts, "/v1/dirs", map[string]string{"dir": proj})
		if code != http.StatusAccepted {
			t.Fatalf("submit dir: HTTP %d (%v)", code, sub)
		}
		id := sub["job"].(string)
		status := waitDone(t, ts, id)
		if status["state"] != string(stateDone) {
			t.Fatalf("dir job: %v", status)
		}
		return id, status
	}

	id, status := runDir()
	if status["verdict"] != "unsafe" {
		t.Fatalf("project verdict %v", status["verdict"])
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			File    string `json:"file"`
			Verdict string `json:"verdict"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line: %v", err)
		}
		files = append(files, fmt.Sprintf("%s=%s", filepath.Base(line.File), line.Verdict))
	}
	resp.Body.Close()
	if len(files) != 2 {
		t.Fatalf("stream carried %d lines, want 2: %v", len(files), files)
	}

	// Second submission: served from the persistent store.
	runDir()
	if got := st.Stats().Hits; got < 2 {
		t.Fatalf("store hits after resubmission = %d, want >= 2", got)
	}
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	var page strings.Builder
	sc = bufio.NewScanner(metrics.Body)
	for sc.Scan() {
		page.WriteString(sc.Text() + "\n")
	}
	for _, want := range []string{
		telemetry.MetricStoreHits + " 2",
		telemetry.MetricServiceJobsDone + " 2",
	} {
		if !strings.Contains(page.String(), want) {
			t.Fatalf("metrics page lacks %q:\n%s", want, page.String())
		}
	}
}

// TestStreamFollowsLiveJob follows a job's stream while it is still
// running and sees lines arrive, then the stream end.
func TestStreamFollowsLiveJob(t *testing.T) {
	s := New(Config{})
	defer s.Drain(context.Background())
	j := s.newJob("dir", "d", nil, "")
	enc := NewNDJSON(j)

	lines, finished, _ := j.linesFrom(0)
	if len(lines) != 0 || finished {
		t.Fatalf("fresh job: %d lines, finished %v", len(lines), finished)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID+"/stream", nil)
	req.SetPathValue("id", j.ID)
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.handleJobStream(rec, req)
	}()
	if err := enc.Encode(map[string]string{"file": "a.php"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(map[string]string{"file": "b.php"}); err != nil {
		t.Fatal(err)
	}
	s.finishJob(j, stateDone)
	<-served
	if got := strings.Count(rec.Body.String(), "\n"); got != 2 {
		t.Fatalf("live follower saw %d lines, want 2: %q", got, rec.Body.String())
	}
	// After completion the log replays in full and reports the end.
	lines, finished, _ = j.linesFrom(0)
	if len(lines) != 2 || !finished {
		t.Fatalf("post-completion: %d lines, finished %v", len(lines), finished)
	}
}

// stallingWriter is a stream follower's ResponseWriter whose writes
// block until release is closed, as a client that stops reading does.
// The first Flush (the handler's, after its replay) closes following.
type stallingWriter struct {
	header    http.Header
	following chan struct{}
	flushed   sync.Once
	release   chan struct{}
	body      bytes.Buffer
}

func (w *stallingWriter) Header() http.Header { return w.header }
func (w *stallingWriter) WriteHeader(int)     {}
func (w *stallingWriter) Flush()              { w.flushed.Do(func() { close(w.following) }) }
func (w *stallingWriter) Write(p []byte) (int, error) {
	<-w.release
	return w.body.Write(p)
}

// TestStreamStalledFollowerKeepsEveryLine stalls a follower while the
// job writes 200 lines: the job must not block on it, and once the
// follower drains it must have every line, in order.
func TestStreamStalledFollowerKeepsEveryLine(t *testing.T) {
	s := New(Config{})
	defer s.Drain(context.Background())
	j := s.newJob("dir", "d", nil, "")
	w := &stallingWriter{header: http.Header{}, following: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID+"/stream", nil)
	req.SetPathValue("id", j.ID)
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.handleJobStream(w, req)
	}()
	<-w.following

	const n = 200
	for i := 0; i < n; i++ {
		fmt.Fprintf(j, "{\"line\":%d}\n", i)
	}
	close(w.release)
	s.finishJob(j, stateDone)
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("stream handler did not return after the job finished")
	}

	got := strings.Split(strings.TrimSuffix(w.body.String(), "\n"), "\n")
	if len(got) != n {
		t.Fatalf("stalled follower received %d lines, want %d", len(got), n)
	}
	for i, line := range got {
		if want := fmt.Sprintf("{\"line\":%d}", i); line != want {
			t.Fatalf("line %d = %q, want %q", i, line, want)
		}
	}
}

// TestDrainCompletesInFlight submits a job and immediately drains: the
// accepted job must still run to completion.
func TestDrainCompletesInFlight(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, sub := postJSON(t, ts, "/v1/files", map[string]string{
		"name": "page.php", "source": vulnerableSrc,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := sub["job"].(string)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	j := s.lookup(id)
	if j == nil {
		t.Fatal("job vanished during drain")
	}
	st := j.status()
	if st.State != stateDone {
		t.Fatalf("after drain, job is %s (%s), want done", st.State, st.Error)
	}
	if st.Verdict != "unsafe" {
		t.Fatalf("drained job verdict %s", st.Verdict)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// blockingRunner holds every file job until release is closed,
// announcing each start on started.
type blockingRunner struct {
	localRunner
	started chan struct{}
	release chan struct{}
}

func (r blockingRunner) VerifyFile(ctx context.Context, src []byte, name string, opts ...webssari.Option) (*webssari.Report, error) {
	r.started <- struct{}{}
	<-r.release
	return r.localRunner.VerifyFile(ctx, src, name, opts...)
}

// TestConcurrentJobsBoundedByWorkers: with 2 workers and 4 submissions
// held by the runner, exactly 2 jobs run and 2 wait in the queue; once
// released, all 4 finish.
func TestConcurrentJobsBoundedByWorkers(t *testing.T) {
	r := blockingRunner{started: make(chan struct{}, 4), release: make(chan struct{})}
	s := New(Config{Workers: 2, Runner: r})
	defer s.Drain(context.Background())
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(r.release) }) }
	defer releaseAll() // before Drain, which waits on the held jobs
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := make([]string, 4)
	for i := range ids {
		code, sub := postJSON(t, ts, "/v1/files", map[string]string{"source": safeSrc})
		if code != http.StatusAccepted {
			t.Fatalf("submission %d: HTTP %d (%v)", i, code, sub)
		}
		ids[i] = sub["job"].(string)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-r.started:
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d of 2 workers started a job", i)
		}
	}
	select {
	case <-r.started:
		t.Fatal("a third job started on 2 workers")
	case <-time.After(50 * time.Millisecond):
	}
	states := make(map[string]int)
	for _, id := range ids {
		_, st := getJSON(t, ts, "/v1/jobs/"+id)
		states[st["state"].(string)]++
	}
	if states[string(stateRunning)] != 2 || states[string(stateQueued)] != 2 {
		t.Fatalf("job states %v, want 2 running and 2 queued", states)
	}

	releaseAll()
	for _, id := range ids {
		if st := waitDone(t, ts, id); st["state"] != string(stateDone) {
			t.Fatalf("job %s: %v", id, st)
		}
	}
}

// TestJobHistoryEviction checks the retention cap keeps the map bounded
// while never evicting unfinished jobs.
func TestJobHistoryEviction(t *testing.T) {
	s := &Server{jobs: make(map[string]*job)}
	for i := 0; i < defaultRetainedJobs+50; i++ {
		j := s.newJob("file", fmt.Sprintf("f%d.php", i), nil, "")
		j.mu.Lock()
		j.state = stateDone
		j.mu.Unlock()
	}
	running := s.newJob("file", "running.php", nil, "")
	running.mu.Lock()
	running.state = stateRunning
	running.mu.Unlock()
	for i := 0; i < 100; i++ {
		j := s.newJob("file", fmt.Sprintf("g%d.php", i), nil, "")
		j.mu.Lock()
		j.state = stateDone
		j.mu.Unlock()
	}
	s.jobsMu.Lock()
	n := len(s.jobs)
	s.jobsMu.Unlock()
	if n > defaultRetainedJobs+1 {
		t.Fatalf("history grew to %d jobs (cap %d)", n, defaultRetainedJobs)
	}
	if s.lookup(running.ID) == nil {
		t.Fatal("running job was evicted from the history")
	}
}

// TestJobHistoryEvictsOnlyOverflow runs one job past the retention cap
// to completion and checks that only the oldest finished job left the
// history: the second-oldest must still answer its status.
func TestJobHistoryEvictsOnlyOverflow(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < defaultRetainedJobs+1; i++ {
		code, sub := postJSON(t, ts, "/v1/files", map[string]any{
			"name": fmt.Sprintf("p%d.php", i), "source": safeSrc,
		})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d (%v)", i, code, sub)
		}
		id, _ := sub["job"].(string)
		waitDone(t, ts, id)
	}
	if code, _ := getJSON(t, ts, "/v1/jobs/j1"); code != http.StatusNotFound {
		t.Errorf("GET /v1/jobs/j1: HTTP %d, want 404 (oldest job past the cap)", code)
	}
	if code, body := getJSON(t, ts, "/v1/jobs/j2"); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/j2: HTTP %d (%v), want 200", code, body)
	}
}

// TestSchemaStamp checks every JSON response carries the v1 schema
// marker — the versioning contract of satellite importance: clients key
// compatibility off this field.
func TestSchemaStamp(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, sub := postJSON(t, ts, "/v1/files", map[string]string{"source": safeSrc})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := sub["job"].(string)
	waitDone(t, ts, id)

	paths := []string{
		"/v1/jobs",
		"/v1/jobs/" + id,
		"/v1/jobs/" + id + "/result",
		"/v1/version",
		"/healthz",
	}
	if sub["schema"] != api.Schema {
		t.Fatalf("submit response schema = %v, want %q", sub["schema"], api.Schema)
	}
	for _, path := range paths {
		_, body := getJSON(t, ts, path)
		if body["schema"] != api.Schema {
			t.Fatalf("%s schema = %v, want %q", path, body["schema"], api.Schema)
		}
	}
	// Errors are stamped too.
	_, errBody := getJSON(t, ts, "/v1/jobs/nope")
	if errBody["schema"] != api.Schema {
		t.Fatalf("error response schema = %v, want %q", errBody["schema"], api.Schema)
	}
}

// TestRejectsUnknownFields pins the strict-decoding contract: a typoed
// request field answers 400 instead of being silently dropped.
func TestRejectsUnknownFields(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts, "/v1/files", map[string]string{
		"source": safeSrc, "sorce": "typo",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown file field: HTTP %d (%v), want 400", code, body)
	}
	code, body = postJSON(t, ts, "/v1/dirs", map[string]any{
		"dir": t.TempDir(), "incremenal": true,
	})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown dir field: HTTP %d (%v), want 400", code, body)
	}
}

// TestVersionEndpoint checks GET /v1/version reports a build banner.
func TestVersionEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := getJSON(t, ts, "/v1/version")
	if code != http.StatusOK {
		t.Fatalf("/v1/version: HTTP %d", code)
	}
	if v, _ := body["version"].(string); !strings.Contains(v, "webssarid") {
		t.Fatalf("version banner = %v", body["version"])
	}
}

// cancelJob issues DELETE /v1/jobs/{id} and checks it answers 200.
func cancelJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: HTTP %d", id, resp.StatusCode)
	}
}

// TestCancelWatchAndQueuedJobs exercises both DELETE paths with one
// worker: a watch job pins the worker indefinitely, a file job queues
// behind it; cancelling the queued job fails it without running, and
// cancelling the watch job ends its loop cleanly in state done.
func TestCancelWatchAndQueuedJobs(t *testing.T) {
	s := New(Config{Workers: 1, WatchInterval: 10 * time.Millisecond})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.php"), []byte(safeSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	code, watchSub := postJSON(t, ts, "/v1/dirs", map[string]any{"dir": dir, "watch": true})
	if code != http.StatusAccepted {
		t.Fatalf("submit watch job: HTTP %d (%v)", code, watchSub)
	}
	watchID := watchSub["job"].(string)

	// Wait for the watch job to complete its first round, proving it holds
	// the only worker.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st := getJSON(t, ts, "/v1/jobs/"+watchID)
		if rounds, _ := st["rounds"].(float64); rounds >= 1 {
			break
		}
		if st["state"] == string(stateFailed) {
			t.Fatalf("watch job failed: %v", st["error"])
		}
		if time.Now().After(deadline) {
			t.Fatal("watch job never completed a round")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, sub := postJSON(t, ts, "/v1/files", map[string]string{"source": safeSrc})
	if code != http.StatusAccepted {
		t.Fatalf("submit queued job: HTTP %d", code)
	}
	queuedID := sub["job"].(string)

	cancelJob(t, ts, queuedID)
	cancelJob(t, ts, watchID)

	if st := waitDone(t, ts, queuedID); st["state"] != string(stateFailed) {
		t.Fatalf("cancelled queued job state = %v, want failed", st["state"])
	}
	st := waitDone(t, ts, watchID)
	if st["state"] != string(stateDone) {
		t.Fatalf("cancelled watch job state = %v (error %v), want done", st["state"], st["error"])
	}
	if st["watch"] != true {
		t.Fatalf("watch job status lacks watch marker: %v", st)
	}
}
