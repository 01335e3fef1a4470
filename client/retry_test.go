package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyServer answers the first `failures` requests with `code` (plus an
// optional Retry-After header), then succeeds with an empty Health body.
func flakyServer(t *testing.T, failures int, code int, retryAfter string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := requests.Add(1)
		if int(n) <= failures {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			fmt.Fprintf(w, `{"schema":"v1","error":"try later"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"schema":"v1","status":"ok","queued":0,"inflight":0}`)
	}))
	t.Cleanup(ts.Close)
	return ts, &requests
}

var testPolicy = RetryPolicy{MaxRetries: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

func TestRetryPolicyRidesOutQueueFull(t *testing.T) {
	ts, requests := flakyServer(t, 2, http.StatusTooManyRequests, "0")
	c := New(ts.URL, WithRetryPolicy(testPolicy))
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("health after transient 429s: %v", err)
	}
	if h.Status != "ok" {
		t.Fatalf("health status = %q; want ok", h.Status)
	}
	if n := requests.Load(); n != 3 {
		t.Fatalf("server saw %d requests; want 3 (two 429s, one success)", n)
	}
}

func TestRetryPolicyRidesOutDraining503(t *testing.T) {
	ts, requests := flakyServer(t, 1, http.StatusServiceUnavailable, "0")
	c := New(ts.URL, WithRetryPolicy(testPolicy))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("health after a transient 503: %v", err)
	}
	if n := requests.Load(); n != 2 {
		t.Fatalf("server saw %d requests; want 2", n)
	}
}

func TestRetryPolicyExhaustsAndSurfacesRetryAfter(t *testing.T) {
	ts, requests := flakyServer(t, 1000, http.StatusServiceUnavailable, "1")
	c := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}))
	_, err := c.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error = %v; want *APIError", err)
	}
	if apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d; want 503", apiErr.StatusCode)
	}
	if apiErr.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v; want 1s parsed from the header", apiErr.RetryAfter)
	}
	if !apiErr.Temporary() {
		t.Fatal("a 503 must report Temporary")
	}
	if n := requests.Load(); n != 3 {
		t.Fatalf("server saw %d requests; want 3 (initial + 2 retries)", n)
	}
}

func TestRetryPolicyDoesNotRetryPermanentErrors(t *testing.T) {
	ts, requests := flakyServer(t, 1000, http.StatusBadRequest, "")
	c := New(ts.URL, WithRetryPolicy(testPolicy))
	_, err := c.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("error = %v; want an immediate 400 *APIError", err)
	}
	if apiErr.Temporary() {
		t.Fatal("a 400 must not report Temporary")
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("server saw %d requests; a 400 must not be retried (saw %d)", n, n)
	}
}

func TestDefaultClientDoesNotRetry(t *testing.T) {
	ts, requests := flakyServer(t, 1000, http.StatusTooManyRequests, "1")
	c := New(ts.URL) // no retry policy: surface transients immediately
	_, err := c.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("error = %v; want an immediate 429 *APIError", err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("server saw %d requests; the default client must not retry", n)
	}
}

func TestRetryPolicyHonorsContextDuringBackoff(t *testing.T) {
	ts, _ := flakyServer(t, 1000, http.StatusServiceUnavailable, "30")
	// The Retry-After hint (30s, capped at MaxDelay=1s by the policy)
	// dominates the backoff; the context must cut the wait short.
	c := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxRetries: 5, BaseDelay: time.Millisecond, MaxDelay: time.Second}))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Health(ctx)
	if err == nil {
		t.Fatal("health succeeded against a permanently draining server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("client waited %v; the cancelled context should have stopped the backoff", elapsed)
	}
}

func TestRetryPolicyDelaySchedule(t *testing.T) {
	p := RetryPolicy{MaxRetries: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}
	for i := 0; i < 20; i++ {
		// No hint: attempt 1 jitters within [base/2, base].
		if d := p.Delay(1, 0); d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("Delay(1, 0) = %v; want within [50ms, 100ms]", d)
		}
		// A longer server hint raises the wait.
		if d := p.Delay(1, 2*time.Second); d < time.Second || d > 2*time.Second {
			t.Fatalf("Delay(1, 2s) = %v; want within [1s, 2s]", d)
		}
		// An outsized hint is capped at MaxDelay.
		if d := p.Delay(1, time.Minute); d > 5*time.Second {
			t.Fatalf("Delay(1, 1m) = %v; want capped at 5s", d)
		}
		// Deep attempts cap at MaxDelay too.
		if d := p.Delay(30, 0); d > 5*time.Second {
			t.Fatalf("Delay(30, 0) = %v; want capped at 5s", d)
		}
	}
}
