package cluster

// Distributed-observability tests: the W3C traceparent golden path from
// the typed client through the front daemon and coordinator onto worker
// daemons, the stitched per-job trace document, and the trace_id every
// structured log line carries on both sides of the dispatch hop.

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"webssari/client"
	"webssari/internal/service"
	"webssari/internal/telemetry"
)

// syncBuffer is a goroutine-safe log sink: job goroutines on both
// daemons write concurrently with the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func newTestLogger(t *testing.T, sink *syncBuffer) *telemetry.Logger {
	t.Helper()
	l, err := telemetry.NewLogger(sink, slog.LevelDebug, "json", 32)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestTraceparentPropagation is the golden propagation test: a client
// submits a directory job carrying a traceparent, and the same trace ID
// must surface (a) in the submit/status responses, (b) in the
// traceparent header every worker receives — with a fresh per-hop span
// ID, (c) on the spans of the stitched trace document, and (d) in the
// structured logs of coordinator and worker alike.
func TestTraceparentPropagation(t *testing.T) {
	dir := writeCorpus(t)

	var coordLog, workerLog syncBuffer

	// Worker daemon behind a header-capturing shim.
	var hdrMu sync.Mutex
	var workerHeaders []string
	wsvc := service.New(service.Config{
		Telemetry: telemetry.New(),
		Logger:    newTestLogger(t, &workerLog),
	})
	wh := wsvc.Handler()
	wts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tp := r.Header.Get(telemetry.TraceparentHeader); tp != "" {
			hdrMu.Lock()
			workerHeaders = append(workerHeaders, tp)
			hdrMu.Unlock()
		}
		wh.ServeHTTP(w, r)
	}))
	t.Cleanup(wts.Close)

	coordLogger := newTestLogger(t, &coordLog)
	c, _ := newTestCoordinator(t, Config{Logger: coordLogger})
	mustRegister(t, c, wts.URL, "w-1")

	front := httptest.NewServer(service.New(service.Config{
		Runner:    c,
		Telemetry: telemetry.New(),
		Logger:    coordLogger,
	}).Handler())
	t.Cleanup(front.Close)

	tc := telemetry.NewTraceContext()
	ctx := telemetry.WithTraceContext(context.Background(), tc)
	cl := client.New(front.URL)

	sub, err := cl.SubmitDir(ctx, client.SubmitDirRequest{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if sub.TraceID != tc.TraceID {
		t.Fatalf("submit response trace_id = %q, want the submitted %q", sub.TraceID, tc.TraceID)
	}
	if sub.Trace == "" {
		t.Fatal("submit response is missing the trace URL")
	}
	st, err := cl.Wait(ctx, sub.Job)
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != tc.TraceID {
		t.Fatalf("job status trace_id = %q, want %q", st.TraceID, tc.TraceID)
	}

	// (b) Every worker-bound hop carried the trace, re-parented per hop.
	hdrMu.Lock()
	headers := append([]string(nil), workerHeaders...)
	hdrMu.Unlock()
	if len(headers) == 0 {
		t.Fatal("worker saw no traceparent header")
	}
	for _, h := range headers {
		hop, ok := telemetry.ParseTraceparent(h)
		if !ok {
			t.Fatalf("worker received malformed traceparent %q", h)
		}
		if hop.TraceID != tc.TraceID {
			t.Fatalf("worker hop trace ID = %q, want %q (header %q)", hop.TraceID, tc.TraceID, h)
		}
		if hop.SpanID == tc.SpanID {
			t.Fatalf("worker hop reused the client's span ID %q; want a per-hop child", tc.SpanID)
		}
	}

	// (c) The stitched document: coordinator spans on pid 1 stamped with
	// the trace ID, worker spans under their own process.
	doc, err := cl.JobTrace(ctx, sub.Job)
	if err != nil {
		t.Fatal(err)
	}
	var sawDispatch, sawWorkerProc, sawWorkerSpan bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" && ev.PID > 1 {
			if name, _ := ev.Args["name"].(string); strings.Contains(name, "w-1") {
				sawWorkerProc = true
			}
		}
		if ev.PID > 1 && ev.Ph == "X" {
			sawWorkerSpan = true
		}
		if ev.Name == "dispatch" && ev.PID == 1 {
			sawDispatch = true
			if got, _ := ev.Args["trace_id"].(string); got != tc.TraceID {
				t.Fatalf("dispatch span trace_id = %q, want %q", got, tc.TraceID)
			}
		}
	}
	if !sawDispatch || !sawWorkerProc || !sawWorkerSpan {
		t.Fatalf("stitched trace incomplete: dispatch=%v workerProc=%v workerSpan=%v (%d events)",
			sawDispatch, sawWorkerProc, sawWorkerSpan, len(doc.TraceEvents))
	}

	// (d) Both sides logged under the same trace ID.
	if !strings.Contains(coordLog.String(), tc.TraceID) {
		t.Fatalf("coordinator logs never mention trace %s:\n%s", tc.TraceID, coordLog.String())
	}
	if !strings.Contains(workerLog.String(), tc.TraceID) {
		t.Fatalf("worker logs never mention trace %s:\n%s", tc.TraceID, workerLog.String())
	}
}

// TestClusteredFileRequests counts the requests a worker receives for
// one clustered file job: the submission, the wait and the result
// envelope, and no trace fetch — the worker's engine spans in the job's
// trace are drawn from the profile its result carries.
func TestClusteredFileRequests(t *testing.T) {
	var mu sync.Mutex
	var routes []string
	wh := service.New(service.Config{Telemetry: telemetry.New()}).Handler()
	wts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(r.URL.Path, "/")
		if len(parts) > 3 && parts[2] == "jobs" {
			parts[3] = "{id}"
		}
		mu.Lock()
		routes = append(routes, r.Method+" "+strings.Join(parts, "/"))
		mu.Unlock()
		wh.ServeHTTP(w, r)
	}))
	t.Cleanup(wts.Close)

	c, _ := newTestCoordinator(t, Config{})
	mustRegister(t, c, wts.URL, "w-1")
	front := httptest.NewServer(service.New(service.Config{Runner: c, Telemetry: telemetry.New()}).Handler())
	t.Cleanup(front.Close)
	cl := client.New(front.URL)
	ctx := context.Background()
	sub, err := cl.SubmitFile(ctx, client.SubmitFileRequest{Name: "guestbook.php", Source: testCorpus["guestbook.php"]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, sub.Job); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	got := strings.Join(routes, ", ")
	mu.Unlock()
	if want := "POST /v1/files, GET /v1/jobs/{id}/wait, GET /v1/jobs/{id}/result"; got != want {
		t.Fatalf("worker requests: %s; want %s", got, want)
	}

	// The job's trace still shows the worker's engine spans.
	doc, err := cl.JobTrace(ctx, sub.Job)
	if err != nil {
		t.Fatal(err)
	}
	var workerPID int64
	stages := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" && strings.HasPrefix(ev.Args["name"].(string), "worker w-1 (") {
			workerPID = ev.PID
		}
		if workerPID != 0 && ev.PID == workerPID {
			stages[ev.Name] = true
		}
	}
	for _, want := range []string{"parse", "lower", "flow", "rename", "constraints", "solve", "assert", "encode"} {
		if !stages[want] {
			t.Errorf("worker track has no %s span: %v", want, stages)
		}
	}
}

// TestTraceMintedWithoutTraceparent: a submission with no traceparent
// still gets a valid trace ID minted at admission.
func TestTraceMintedWithoutTraceparent(t *testing.T) {
	front := httptest.NewServer(service.New(service.Config{Telemetry: telemetry.New()}).Handler())
	t.Cleanup(front.Close)
	cl := client.New(front.URL)
	sub, err := cl.SubmitFile(context.Background(), client.SubmitFileRequest{
		Name: "static.php", Source: testCorpus["static.php"],
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := telemetry.ParseTraceparent("00-" + sub.TraceID + "-0000000000000001-01"); !ok {
		t.Fatalf("minted trace ID %q is not valid", sub.TraceID)
	}
	if _, err := cl.Wait(context.Background(), sub.Job); err != nil {
		t.Fatal(err)
	}
	doc, err := cl.JobTrace(context.Background(), sub.Job)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("standalone job produced an empty trace document")
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if got, _ := ev.Args["trace_id"].(string); got == sub.TraceID {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no span carries the minted trace ID %s", sub.TraceID)
	}
}
