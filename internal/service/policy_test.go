package service

// Daemon-side policy tests: per-job policy selection, the daemon-wide
// default, admission rejection of unknown policies, the advertised
// policy list on /v1/version, and the per-policy job counters on
// /metrics.

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"webssari/internal/telemetry"
)

// ssrfSrc is flagged only by the ssrf policy: file_get_contents is not
// a sink in the default trust environment.
const ssrfSrc = `<?php
$url = $_GET['feed'];
$body = file_get_contents($url);
?>`

func submitWait(t *testing.T, ts *httptest.Server, body map[string]string) map[string]any {
	t.Helper()
	code, sub := postJSON(t, ts, "/v1/files", body)
	if code != 202 {
		t.Fatalf("submit: HTTP %d (%v)", code, sub)
	}
	id, _ := sub["job"].(string)
	return waitDone(t, ts, id)
}

func TestPerJobPolicy(t *testing.T) {
	tel := telemetry.New()
	s := New(Config{Workers: 2, Telemetry: tel})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Policy-free: file_get_contents is not a sink, the page is safe.
	st := submitWait(t, ts, map[string]string{"name": "fetch.php", "source": ssrfSrc})
	if st["verdict"] != "safe" {
		t.Fatalf("policy-free verdict = %v, want safe", st["verdict"])
	}
	// Same source under the ssrf policy is a finding.
	st = submitWait(t, ts, map[string]string{
		"name": "fetch.php", "source": ssrfSrc, "policy": "ssrf"})
	if st["verdict"] != "unsafe" {
		t.Fatalf("ssrf verdict = %v, want unsafe", st["verdict"])
	}
	// Explicit default behaves like policy-free.
	st = submitWait(t, ts, map[string]string{
		"name": "fetch.php", "source": ssrfSrc, "policy": "default"})
	if st["verdict"] != "safe" {
		t.Fatalf("default-policy verdict = %v, want safe", st["verdict"])
	}

	// Per-policy job counters: the Prometheus exposition carries the
	// split.
	page := metricsPage(t, ts)
	for _, want := range []string{
		`webssari_jobs_total{policy="default"} 2`,
		`webssari_jobs_total{policy="ssrf"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics page lacks %q:\n%s", want, page)
		}
	}
}

func TestDaemonDefaultPolicy(t *testing.T) {
	s := New(Config{Workers: 1, Policy: "ssrf", Telemetry: telemetry.New()})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Jobs that pick no policy inherit the daemon's.
	st := submitWait(t, ts, map[string]string{"name": "fetch.php", "source": ssrfSrc})
	if st["verdict"] != "unsafe" {
		t.Fatalf("inherited-policy verdict = %v, want unsafe", st["verdict"])
	}
	// A per-job policy overrides the daemon default.
	st = submitWait(t, ts, map[string]string{
		"name": "fetch.php", "source": ssrfSrc, "policy": "default"})
	if st["verdict"] != "safe" {
		t.Fatalf("override verdict = %v, want safe", st["verdict"])
	}
	// Jobs without a policy of their own count under the daemon's.
	page := metricsPage(t, ts)
	for _, want := range []string{
		`webssari_jobs_total{policy="default"} 1`,
		`webssari_jobs_total{policy="ssrf"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics page lacks %q:\n%s", want, page)
		}
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, resp := postJSON(t, ts, "/v1/files", map[string]string{
		"name": "x.php", "source": safeSrc, "policy": "no-such-policy"})
	if code != 400 {
		t.Fatalf("unknown policy: HTTP %d (%v)", code, resp)
	}
	msg, _ := resp["error"].(string)
	if !strings.Contains(msg, "invalid policy") {
		t.Fatalf("error = %q, want an invalid-policy message", msg)
	}

	// Policy JSON that fails to compile is rejected the same way.
	code, resp = postJSON(t, ts, "/v1/files", map[string]string{
		"name": "x.php", "source": safeSrc, "policy_json": `{"name":"bad"}`})
	if code != 400 {
		t.Fatalf("bad policy JSON: HTTP %d (%v)", code, resp)
	}
}

func TestVersionAdvertisesPolicies(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, v := getJSON(t, ts, "/v1/version")
	if code != 200 {
		t.Fatalf("/v1/version: HTTP %d", code)
	}
	raw, _ := v["policies"].([]any)
	got := make(map[string]bool, len(raw))
	for _, p := range raw {
		s, _ := p.(string)
		got[s] = true
	}
	for _, want := range []string{"default", "xss-context", "ssrf"} {
		if !got[want] {
			t.Fatalf("policies = %v, missing %q", raw, want)
		}
	}
}
