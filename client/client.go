// Package client is the typed Go client for the webssarid verification
// daemon: submit files and directories, wait for jobs, fetch results,
// and follow the per-file NDJSON stream — over the versioned v1 wire
// format (internal/service/api). The xbmc CLI's -remote mode and the
// daemon's own integration tests are built on it; hand-rolled HTTP
// against the daemon should not be necessary.
//
//	c := client.New("http://127.0.0.1:8080")
//	sub, err := c.SubmitDir(ctx, client.SubmitDirRequest{Dir: "/srv/app"})
//	st, err := c.Wait(ctx, sub.Job)
//	pr, err := c.DirResult(ctx, sub.Job)
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"webssari"
	"webssari/internal/service/api"
	"webssari/internal/telemetry"
)

// Wire types re-exported so client callers need not import the
// internal api package.
type (
	SubmitFileRequest = api.SubmitFileRequest
	SubmitDirRequest  = api.SubmitDirRequest
	SubmitResponse    = api.SubmitResponse
	JobStatus         = api.JobStatus
	JobState          = api.JobState
	VersionResponse   = api.VersionResponse
	Health            = api.Health
	// SolverSpec is the per-job solver configuration (dispatch mode and
	// budgets) attachable to both submit requests; see
	// webssari.SolverConfig for the semantics.
	SolverSpec = api.SolverSpec
)

// Job lifecycle states, re-exported from the wire package.
const (
	StateQueued  = api.StateQueued
	StateRunning = api.StateRunning
	StateDone    = api.StateDone
	StateFailed  = api.StateFailed
)

// Schema is the wire-format version this client speaks.
const Schema = api.Schema

// APIError is a non-2xx daemon answer: the HTTP status plus the error
// message from the response body.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint (zero when absent) —
	// set on 429 (queue full) and 503 (draining) answers. WithRetryPolicy
	// honors it automatically; callers retrying by hand should too.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("webssarid: HTTP %d: %s", e.StatusCode, e.Message)
}

// Temporary reports whether the error is a transient rejection (429
// queue-full or 503 draining) that a later retry may clear. No job was
// created, so retrying the submission is safe.
func (e *APIError) Temporary() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode == http.StatusServiceUnavailable
}

// JobFailedError is returned by Wait and the result accessors when the
// job itself failed (as opposed to the HTTP exchange).
type JobFailedError struct {
	Job     string
	Message string
}

// Error implements error.
func (e *JobFailedError) Error() string {
	return fmt.Sprintf("webssarid: job %s failed: %s", e.Job, e.Message)
}

// RetryPolicy makes the client retry transient rejections — 429 (queue
// full) and 503 (draining/overloaded) — with capped exponential backoff
// plus jitter, honoring the server's Retry-After hint when it is longer
// than the computed backoff. Only those two statuses retry: the daemon
// rejects them before creating a job, so a retry can never duplicate
// work. Transport errors and other HTTP statuses surface immediately.
type RetryPolicy struct {
	// MaxRetries is the number of retry attempts after the initial try
	// (0 disables retrying).
	MaxRetries int
	// BaseDelay is the first backoff (default 100ms); each further
	// attempt doubles it up to MaxDelay (default 5s), which also caps an
	// outsized Retry-After.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// DefaultRetryPolicy is a modest ready-made policy: 4 retries, 100ms
// base, 5s cap — it rides out a brief queue-full spike without hammering
// a draining server.
var DefaultRetryPolicy = RetryPolicy{MaxRetries: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}

// Delay computes the backoff before retry attempt n (1-based), blending
// the exponential schedule with the server hint and adding jitter in
// [d/2, d] so synchronized clients do not retry in lockstep.
func (p RetryPolicy) Delay(attempt int, hint time.Duration) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << (attempt - 1)
	if d <= 0 || d > max {
		d = max
	}
	if hint > d {
		d = hint
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// Client talks to one webssarid instance. The zero value is not usable;
// construct with New. A Client is safe for concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// ClientOption configures New.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithRetryPolicy enables transparent retries of transient rejections
// (see RetryPolicy). The default client never retries.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// New returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8080"; a trailing slash is tolerated).
func New(base string, opts ...ClientOption) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		hc:   http.DefaultClient,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// do runs one JSON exchange: method+path, optional request body,
// optional decoded response. Non-2xx answers decode into *APIError.
// With a retry policy configured, transient rejections (429/503) are
// retried with backoff before surfacing.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, in, out)
		apiErr, ok := err.(*APIError)
		if !ok || !apiErr.Temporary() || attempt >= c.retry.MaxRetries {
			return err
		}
		timer := time.NewTimer(c.retry.Delay(attempt+1, apiErr.RetryAfter))
		select {
		case <-ctx.Done():
			timer.Stop()
			return err // the rejection, not ctx.Err(): it carries more signal
		case <-timer.C:
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		payload, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	setTraceparent(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		apiErr := &APIError{StatusCode: resp.StatusCode}
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		var e api.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(data))
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// setTraceparent injects the W3C traceparent header when ctx carries a
// trace context (telemetry.WithTraceContext) — the daemon adopts the
// trace ID for the submitted job, which is how one trace spans client,
// coordinator, and workers.
func setTraceparent(ctx context.Context, req *http.Request) {
	if tc := telemetry.TraceContextFrom(ctx); tc.Valid() {
		req.Header.Set(telemetry.TraceparentHeader, tc.Traceparent())
	}
}

// Version fetches the daemon's build and schema version.
func (c *Client) Version(ctx context.Context) (VersionResponse, error) {
	var v VersionResponse
	err := c.do(ctx, http.MethodGet, "/v1/version", nil, &v)
	return v, err
}

// Health fetches the daemon's liveness and queue occupancy.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// SubmitFile submits one PHP source for verification (202 on success).
func (c *Client) SubmitFile(ctx context.Context, req SubmitFileRequest) (SubmitResponse, error) {
	var sub SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/files", req, &sub)
	return sub, err
}

// SubmitDir submits a daemon-local directory for verification.
func (c *Client) SubmitDir(ctx context.Context, req SubmitDirRequest) (SubmitResponse, error) {
	var sub SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/dirs", req, &sub)
	return sub, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Jobs lists all retained jobs, newest first.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var list api.JobList
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &list); err != nil {
		return nil, err
	}
	return list.Jobs, nil
}

// Cancel requests a job's cancellation (stop a watch job, abort a
// running or queued job) and returns the status at request time;
// cancellation completes asynchronously.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait blocks until the job reaches a terminal state and returns its
// final status, in one request (GET /v1/jobs/{id}/wait). A failed job
// returns *JobFailedError alongside the status; ctx bounds the wait and
// its end returns ctx.Err(). A Timeout on the WithHTTPClient client
// bounds it too.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/wait", nil, &st); err != nil {
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
		return st, err
	}
	if st.State == StateFailed {
		return st, &JobFailedError{Job: id, Message: st.Error}
	}
	return st, nil
}

// result fetches a finished job's raw report payload.
func (c *Client) result(ctx context.Context, id string) (api.ResultResponse, error) {
	var res api.ResultResponse
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res); err != nil {
		return res, err
	}
	if res.Error != "" {
		return res, &JobFailedError{Job: id, Message: res.Error}
	}
	return res, nil
}

// FileResult fetches a finished file job's report.
func (c *Client) FileResult(ctx context.Context, id string) (*webssari.Report, error) {
	res, err := c.result(ctx, id)
	if err != nil {
		return nil, err
	}
	var rep webssari.Report
	if err := json.Unmarshal(res.Report, &rep); err != nil {
		return nil, fmt.Errorf("client: decoding report: %w", err)
	}
	return &rep, nil
}

// FileResultText fetches a finished file job's rendered human-readable
// report (the ?text=1 view).
func (c *Client) FileResultText(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/result?text=1", nil)
	if err != nil {
		return "", err
	}
	setTraceparent(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	return string(data), nil
}

// JobTrace downloads a job's Chrome/Perfetto trace document — the
// job's spans, and (for coordinator-run jobs) the stitched span exports
// of every worker that verified files for it. Available while the job
// runs (partial) and after it finishes; 404s when the daemon runs
// without telemetry.
func (c *Client) JobTrace(ctx context.Context, id string) (telemetry.TraceDoc, error) {
	var doc telemetry.TraceDoc
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &doc)
	return doc, err
}

// DirResult fetches a finished directory job's project report.
func (c *Client) DirResult(ctx context.Context, id string) (*webssari.ProjectReport, error) {
	res, err := c.result(ctx, id)
	if err != nil {
		return nil, err
	}
	var pr webssari.ProjectReport
	if err := json.Unmarshal(res.Report, &pr); err != nil {
		return nil, fmt.Errorf("client: decoding project report: %w", err)
	}
	return &pr, nil
}

// Stream follows a job's NDJSON stream — replayed lines first, then
// live lines until the job ends, ctx is cancelled, or fn returns an
// error (which Stream returns). Each line is one raw JSON document:
// a webssari.Report per finished file, plus (for watch-mode jobs) one
// ProjectReport summary with "files": null closing each round.
func (c *Client) Stream(ctx context.Context, id string, fn func(line json.RawMessage) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	setTraceparent(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		apiErr := &APIError{StatusCode: resp.StatusCode}
		var e api.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(data))
		}
		return apiErr
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := fn(append(json.RawMessage(nil), line...)); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}
