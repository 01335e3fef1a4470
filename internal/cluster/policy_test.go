package cluster

// Cluster-side policy smoke tests: a per-job policy travels the wire
// with its file and shapes the remote verdict, the registration
// fingerprint gate keeps mixed-policy clusters from forming, and the
// per-policy job counters surface on GET /v1/cluster.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webssari"
	"webssari/internal/service"
	"webssari/internal/telemetry"
)

const ssrfSrc = `<?php
$url = $_GET['feed'];
$body = file_get_contents($url);
?>`

const contextXSSSrc = `<?php
$name = htmlspecialchars($_GET['name']);
echo "<input value='$name'>";
?>`

// TestClusterPolicyRoundTrip dispatches policy-carrying jobs to a
// remote worker and holds the clustered report to byte-identity with a
// local run under the same policy — the proof that the policy selection
// survived the wire.
func TestClusterPolicyRoundTrip(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{})
	w := newWorkerServer(t, service.Config{})
	mustRegister(t, c, w.URL, "worker-1")
	ctx := context.Background()

	cases := []struct {
		name   string
		src    string
		policy string
		class  string
	}{
		{"fetch.php", ssrfSrc, "ssrf", "server-side request forgery (SSRF)"},
		{"widget.php", contextXSSSrc, "xss-context", "cross-site scripting (XSS)"},
	}
	for _, tc := range cases {
		t.Run(tc.policy, func(t *testing.T) {
			opt := webssari.WithPolicy(tc.policy)
			local, err := webssari.VerifyContext(ctx, []byte(tc.src), tc.name, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.VerifyFile(ctx, []byte(tc.src), tc.name, opt)
			if err != nil {
				t.Fatal(err)
			}
			if cl := got.Profile.Cluster; cl == nil || cl.Remote != 1 {
				t.Fatalf("file was not verified remotely: %+v", got.Profile.Cluster)
			}
			if got.Safe {
				t.Fatalf("remote run under %s missed the finding:\n%s", tc.policy, got.String())
			}
			if len(got.Findings) == 0 || got.Findings[0].Class != tc.class {
				t.Fatalf("findings = %+v, want class %q", got.Findings, tc.class)
			}
			if li, gi := reportIdentity(t, local), reportIdentity(t, got); li != gi {
				t.Fatalf("clustered policy run diverges from local:\nlocal:\n%s\nclustered:\n%s", li, gi)
			}
		})
	}
}

// TestClusterPolicyFingerprintGate: a coordinator pinned to one
// policy's fingerprint accepts only workers configured identically —
// the policy is part of the verdict-shaping configuration.
func TestClusterPolicyFingerprintGate(t *testing.T) {
	fp := Fingerprint(webssari.WithPolicy("ssrf"))
	if fp == "" {
		t.Fatal("empty coordinator fingerprint")
	}
	if fp == Fingerprint() {
		t.Fatal("policy does not shape the cluster fingerprint")
	}
	c, _ := newTestCoordinator(t, Config{Fingerprint: fp})
	w := newWorkerServer(t, service.Config{})

	if _, err := c.register(w.URL, "worker-default", Fingerprint()); err == nil {
		t.Fatal("worker with a different policy fingerprint was admitted")
	} else if !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("unexpected rejection: %v", err)
	}
	if _, err := c.register(w.URL, "worker-ssrf", Fingerprint(webssari.WithPolicy("ssrf"))); err != nil {
		t.Fatalf("matching worker rejected: %v", err)
	}
}

// TestClusterStatusJobsByPolicy shares one Telemetry between a daemon's
// service and the coordinator (as cmd/webssarid does) and reads the
// service's per-policy counters back from GET /v1/cluster.
func TestClusterStatusJobsByPolicy(t *testing.T) {
	tel := telemetry.New()
	svc := service.New(service.Config{Workers: 1, Telemetry: tel})
	defer svc.Drain(context.Background())
	wts := httptest.NewServer(svc.Handler())
	defer wts.Close()

	c, cts := newTestCoordinator(t, Config{Telemetry: tel})
	mustRegister(t, c, wts.URL, "worker-1")
	ctx := context.Background()

	if _, err := c.VerifyFile(ctx, []byte(ssrfSrc), "fetch.php", webssari.WithPolicy("ssrf")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.VerifyFile(ctx, []byte(ssrfSrc), "fetch.php"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(cts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		JobsByPolicy map[string]int64 `json:"jobs_by_policy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JobsByPolicy["ssrf"] != 1 || st.JobsByPolicy["default"] != 1 {
		t.Fatalf("jobs_by_policy = %v, want ssrf:1 default:1", st.JobsByPolicy)
	}
}
