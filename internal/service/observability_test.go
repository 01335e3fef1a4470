package service

// Observability surface tests: the SLO middleware's per-route latency
// histograms and breach counters, the /debug/events flight recorder,
// healthz's version/uptime fields, and the per-job trace endpoint's
// disabled path. (The clustered golden path lives in internal/cluster.)

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"webssari/internal/telemetry"
)

func metricsPage(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestSLOMetricsPerRoute: every /v1 route pre-registers its latency
// histogram and breach counter, requests land samples in the right
// series, and a zero objective (sub-nanosecond here, so every request
// breaches) increments webssari_slo_breaches_total for that route only.
func TestSLOMetricsPerRoute(t *testing.T) {
	tel := telemetry.New()
	s := New(Config{Workers: 1, Telemetry: tel, LatencyObjective: time.Nanosecond})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	page := metricsPage(t, ts)
	for _, route := range []string{"/v1/files", "/v1/dirs", "/v1/jobs", "/v1/version"} {
		if !strings.Contains(page, `webssari_http_request_seconds_count{route="`+route+`"}`) {
			t.Fatalf("metrics page lacks the pre-registered histogram for %s:\n%s", route, page)
		}
		if !strings.Contains(page, `webssari_slo_breaches_total{route="`+route+`"}`) {
			t.Fatalf("metrics page lacks the breach counter for %s", route)
		}
	}

	if _, err := http.Get(ts.URL + "/v1/version"); err != nil {
		t.Fatal(err)
	}
	reg := tel.Metrics
	hist := reg.Histogram(telemetry.Name(telemetry.MetricHTTPRequestSeconds, "route", "/v1/version"), nil)
	if hist.Count() == 0 {
		t.Fatal("request did not land in the /v1/version histogram")
	}
	breaches := reg.Counter(telemetry.Name(telemetry.MetricSLOBreaches, "route", "/v1/version"))
	if breaches.Value() == 0 {
		t.Fatal("1ns objective did not count a breach for /v1/version")
	}
	if other := reg.Counter(telemetry.Name(telemetry.MetricSLOBreaches, "route", "/v1/dirs")).Value(); other != 0 {
		t.Fatalf("/v1/dirs breach counter = %d without any request", other)
	}
}

// TestDebugEventsEndpoint: log lines emitted while a job runs are
// retrievable from the service's own /debug/events, carrying job_id and
// trace_id attrs.
func TestDebugEventsEndpoint(t *testing.T) {
	logger, err := telemetry.NewLogger(io.Discard, slog.LevelInfo, "text", 64)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Logger: logger})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, sub := postJSON(t, ts, "/v1/files", map[string]string{
		"name": "page.php", "source": safeSrc,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := sub["job"].(string)
	waitDone(t, ts, id)

	code, events := getJSON(t, ts, "/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events: HTTP %d", code)
	}
	list, _ := events["events"].([]any)
	var sawJob bool
	for _, e := range list {
		ev, _ := e.(map[string]any)
		attrs, _ := ev["attrs"].(map[string]any)
		if attrs["job_id"] == id {
			sawJob = true
			if tid, _ := attrs["trace_id"].(string); len(tid) != 32 {
				t.Fatalf("job event lacks a trace_id attr: %v", ev)
			}
		}
	}
	if !sawJob {
		t.Fatalf("no recorded event carries job_id=%s: %v", id, events)
	}
}

// TestHealthzVersionAndUptime: the liveness page reports the build
// banner and a sane uptime.
func TestHealthzVersionAndUptime(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, h := getJSON(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	ver, _ := h["version"].(string)
	if !strings.Contains(ver, "webssarid") {
		t.Fatalf("healthz version = %q, want the build banner", ver)
	}
	if _, ok := h["uptime_ms"].(float64); !ok {
		t.Fatalf("healthz lacks uptime_ms: %v", h)
	}
}

// TestJobTraceDisabledTelemetry: without telemetry there is no per-job
// tracer, and the trace endpoint answers 404 rather than serving an
// empty document — the verdicts themselves are unaffected.
func TestJobTraceDisabledTelemetry(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, sub := postJSON(t, ts, "/v1/files", map[string]string{
		"name": "page.php", "source": safeSrc,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := sub["job"].(string)
	if st := waitDone(t, ts, id); st["state"] != string(stateDone) {
		t.Fatalf("job finished %v", st["state"])
	}
	if code, _ := getJSON(t, ts, "/v1/jobs/"+id+"/trace"); code != http.StatusNotFound {
		t.Fatalf("trace of an untraced job: HTTP %d, want 404", code)
	}
}

// TestJobTraceServed: with telemetry attached the endpoint serves a
// Chrome trace document whose job span carries the job's trace ID.
func TestJobTraceServed(t *testing.T) {
	s := New(Config{Workers: 1, Telemetry: telemetry.New()})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, sub := postJSON(t, ts, "/v1/files", map[string]string{
		"name": "page.php", "source": vulnerableSrc,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := sub["job"].(string)
	traceID, _ := sub["trace_id"].(string)
	if len(traceID) != 32 {
		t.Fatalf("submit response trace_id = %q", traceID)
	}
	waitDone(t, ts, id)

	code, doc := getJSON(t, ts, "/v1/jobs/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d", code)
	}
	events, _ := doc["traceEvents"].([]any)
	if len(events) == 0 {
		t.Fatal("trace document has no events")
	}
	var sawJobSpan bool
	for _, e := range events {
		ev, _ := e.(map[string]any)
		args, _ := ev["args"].(map[string]any)
		if ev["name"] == "job" && args["trace_id"] == traceID {
			sawJobSpan = true
		}
	}
	if !sawJobSpan {
		t.Fatalf("no job span stamped with trace %s in %d events", traceID, len(events))
	}
}

// TestWaitIsNotAnSLORequest: the wait route blocks for as long as the
// job runs, so a 100 ms wait under a 1 ms objective must count no
// breach on any route.
func TestWaitIsNotAnSLORequest(t *testing.T) {
	tel := telemetry.New()
	s := New(Config{Telemetry: tel, LatencyObjective: time.Millisecond})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := s.newJob("file", "page.php", []byte(safeSrc), "")
	go func() {
		time.Sleep(100 * time.Millisecond)
		s.finishJob(j, stateDone)
	}()
	start := time.Now()
	if st := waitDone(t, ts, j.ID); st["state"] != string(stateDone) {
		t.Fatalf("wait answered state %v, want done", st["state"])
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("wait answered after %s, before the job finished", elapsed)
	}
	for _, line := range strings.Split(metricsPage(t, ts), "\n") {
		if strings.HasPrefix(line, telemetry.MetricSLOBreaches+"{") && !strings.HasSuffix(line, " 0") {
			t.Fatalf("a wait counted as an SLO breach: %s", line)
		}
	}
}
