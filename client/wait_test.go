package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webssari"
	"webssari/internal/service"
)

// gatedRunner holds every file job running until release is closed, then
// fails it with err or verifies it in process.
type gatedRunner struct {
	release chan struct{}
	err     error
}

func (g gatedRunner) VerifyFile(ctx context.Context, src []byte, name string, opts ...webssari.Option) (*webssari.Report, error) {
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if g.err != nil {
		return nil, g.err
	}
	return webssari.VerifyContext(ctx, src, name, opts...)
}

func (g gatedRunner) VerifyDir(ctx context.Context, dir string, opts ...webssari.Option) (*webssari.ProjectReport, error) {
	return nil, errors.New("directory jobs are not used here")
}

// waitDaemon serves a daemon over a gatedRunner. It counts the requests
// it receives, signals each arrival, and each arrival at and return from
// the wait route.
type waitDaemon struct {
	release    chan struct{}
	requests   atomic.Int32
	arrival    chan struct{}
	waitIn     chan struct{}
	waitReturn chan struct{}
	client     *Client
}

func newWaitDaemon(t *testing.T, runErr error) *waitDaemon {
	t.Helper()
	d := &waitDaemon{
		release:    make(chan struct{}),
		arrival:    make(chan struct{}, 1),
		waitIn:     make(chan struct{}, 1),
		waitReturn: make(chan struct{}, 1),
	}
	s := service.New(service.Config{Runner: gatedRunner{release: d.release, err: runErr}})
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.requests.Add(1)
		signal(d.arrival)
		wait := strings.HasSuffix(r.URL.Path, "/wait")
		if wait {
			signal(d.waitIn)
		}
		h.ServeHTTP(w, r)
		if wait {
			signal(d.waitReturn)
		}
	}))
	t.Cleanup(func() {
		d.Release()
		ts.Close()
		s.Drain(context.Background())
	})
	d.client = New(ts.URL)
	return d
}

// signal notes an event on ch without waiting for a reader.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Release lets the held jobs finish; it is idempotent.
func (d *waitDaemon) Release() {
	select {
	case <-d.release:
	default:
		close(d.release)
	}
}

func (d *waitDaemon) submit(t *testing.T) string {
	t.Helper()
	sub, err := d.client.SubmitFile(context.Background(), SubmitFileRequest{
		Name: "page.php", Source: `<?php echo $_GET["q"];`,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sub.Job
}

func arrived(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestWaitIsOneRequest: Wait on a job that keeps running for longer
// than any status-poll cadence makes exactly one request.
func TestWaitIsOneRequest(t *testing.T) {
	d := newWaitDaemon(t, nil)
	id := d.submit(t)
	<-d.arrival // the submission's
	d.requests.Store(0)

	type result struct {
		st  JobStatus
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := d.client.Wait(context.Background(), id)
		done <- result{st, err}
	}()
	arrived(t, d.arrival, "Wait's first request")
	time.Sleep(300 * time.Millisecond)
	d.Release()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.st.State != StateDone || res.st.Verdict == "" {
		t.Fatalf("Wait returned %+v; want a done job with a verdict", res.st)
	}
	if n := d.requests.Load(); n != 1 {
		t.Fatalf("Wait made %d requests, want 1", n)
	}
}

// TestWaitFailedJob: a job that fails returns *JobFailedError alongside
// its terminal status.
func TestWaitFailedJob(t *testing.T) {
	d := newWaitDaemon(t, errors.New("boom"))
	d.Release()
	id := d.submit(t)
	st, err := d.client.Wait(context.Background(), id)
	var failed *JobFailedError
	if !errors.As(err, &failed) || failed.Job != id || !strings.Contains(failed.Message, "boom") {
		t.Fatalf("Wait error = %v; want *JobFailedError for %s carrying the job's error", err, id)
	}
	if st.State != StateFailed {
		t.Fatalf("status state = %s, want failed", st.State)
	}
}

// TestWaitUnknownJob: waiting on a job the daemon does not know is a
// 404 *APIError, not a hang.
func TestWaitUnknownJob(t *testing.T) {
	d := newWaitDaemon(t, nil)
	_, err := d.client.Wait(context.Background(), "j404")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("Wait error = %v; want a 404 *APIError", err)
	}
}

// TestWaitHonorsContext: cancelling ctx ends Wait with ctx.Err(), and
// the daemon's wait handler returns instead of holding a goroutine
// until the job ends.
func TestWaitHonorsContext(t *testing.T) {
	d := newWaitDaemon(t, nil)
	id := d.submit(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := d.client.Wait(ctx, id)
		done <- err
	}()
	arrived(t, d.waitIn, "the wait request")
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) || err != ctx.Err() {
		t.Fatalf("Wait error = %v; want ctx.Err() (%v)", err, ctx.Err())
	}
	arrived(t, d.waitReturn, "the wait handler to return while the job still runs")
}
