package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"webssari"
	"webssari/client"
	"webssari/internal/service"
)

// window is how many requests a closed loop keeps outstanding: enough
// to keep every worker busy, well under the daemon's queue of 64.
const window = 16

// warmupJobs is how many files each set-up verifies through the daemon
// before anything is timed.
const warmupJobs = 100

// request is one file submitted to the daemon and what became of it.
type request struct {
	file          genFile
	name          string // as submitted: unique within the run
	phase         int    // the load phase that sent it
	traced        bool   // record spans of its submission and verification
	due, sent     time.Time
	submitted     time.Time // the submit call returned
	start, finish time.Time // the daemon's verification of the file
	verdict       string
	err           error
}

// timedRunner is the daemon's Runner: the in-process engine, timing each
// file and handing its request back to the load generator.
//
// Completion is observed here rather than through GET /v1/jobs: once the
// daemon's history holds 256 jobs, each new submission evicts every
// finished job older than the oldest unfinished one, so a poller misses
// most jobs at any rate above one per poll interval.
type timedRunner struct {
	tr       *tracer
	mu       sync.Mutex
	pending  map[string]*request // submitted and not yet verified, by submitted name
	finished chan *request       // holds more requests than the daemon admits at once, so sends never block
}

func (t *timedRunner) VerifyFile(ctx context.Context, src []byte, name string, opts ...webssari.Option) (*webssari.Report, error) {
	start := time.Now()
	rep, err := webssari.VerifyContext(ctx, src, name, opts...)
	finish := time.Now()
	t.mu.Lock()
	q := t.pending[name]
	delete(t.pending, name)
	t.mu.Unlock()
	if q != nil {
		q.start, q.finish, q.err = start, finish, err
		if rep != nil {
			q.verdict = rep.Verdict
		}
		if q.traced {
			t.tr.add("service.run", name, 0, start, finish)
		}
		t.finished <- q
	}
	return rep, err
}

func (t *timedRunner) VerifyDir(ctx context.Context, dir string, opts ...webssari.Option) (*webssari.ProjectReport, error) {
	return webssari.VerifyDirContext(ctx, dir, opts...)
}

// daemon is an in-process webssarid behind a loopback HTTP server, and a
// client that submits one file per request over one keep-alive
// connection.
type daemon struct {
	files  []genFile // in a seeded order; only the rounds send a file twice
	next   int
	phase  int  // the current load phase
	traced bool // requests sent now record spans
	runner *timedRunner
	c      *client.Client
}

// phase is what one load phase measured.
type phase struct {
	start      time.Time
	end        time.Time  // the last verification's finish
	done       []*request // verified requests, in completion order
	backlog    int        // most requests outstanding at once
	unfinished int
	rejected   int
}

func runDaemonOpen(r *run) (err error) {
	d, done, err := setupMedian(r, func() (*daemon, func(), error) {
		webssari.ResetCompileCache()
		t := corpusTree(r.size.daemonScale, r.seed)
		vulnerable := 0
		for _, f := range t.files {
			if f.want.unsafe {
				vulnerable++
			}
		}
		r.checkCounts(map[string]int64{
			"files": int64(len(t.files)), "statements": int64(t.statements), "vulnerable_files": int64(vulnerable),
		})
		rng := rand.New(rand.NewPCG(r.seed, 0xda3))
		rng.Shuffle(len(t.files), func(i, j int) { t.files[i], t.files[j] = t.files[j], t.files[i] })
		d := &daemon{files: t.files, runner: &timedRunner{
			tr:       r.tr,
			pending:  map[string]*request{},
			finished: make(chan *request, len(t.files)),
		}}
		srv := service.New(service.Config{Workers: runtime.NumCPU(), Runner: d.runner})
		ts := httptest.NewServer(srv.Handler())
		tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		d.c = client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: tp}))
		cleanup := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Drain(ctx) // on a timeout the process exit reaps the stragglers
			ts.Close()
			tp.CloseIdleConnections()
		}
		if _, err := d.load(r, d.take(warmupJobs), 0); err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		return d, cleanup, nil
	})
	if err != nil {
		return err
	}
	defer func() { err = done(err) }()

	if !r.traced {
		// Requests carry different files, so the median of all of them is
		// the typical one.
		open, err := d.openLoop(r, r.size.daemonRate, r.measure*4/10)
		if err != nil {
			return err
		}
		lat := open.latencies()
		r.metric("latency_ms", median(lat), "ms")
		r.metric("open.jobs", float64(len(lat)), "count")
		r.metric("latency_p50_ms", quantile(lat, 0.5), "ms")
		r.metric("latency_p75_ms", quantile(lat, 0.75), "ms")
		r.metric("latency_p99_ms", quantile(lat, 0.99), "ms")
		// Every round sends the same files from an empty compile cache, so
		// rounds differ by what else the host runs meanwhile. Unlike the
		// batch workloads' passes, the rounds' median varied less between
		// runs than their maximum.
		rates, err := d.rounds(r, d.take(r.size.daemonRound), r.measure*6/10)
		if err != nil {
			return err
		}
		r.metric("files_per_s", median(rates), "files/s")
		r.metric("rounds", float64(len(rates)), "count")
		r.metric("round.files_per_s_max", quantile(rates, 1), "files/s")
		return nil
	}

	plain, err := d.openLoop(r, r.size.daemonRate, r.measure*35/100)
	if err != nil {
		return err
	}
	hits0, misses0 := webssari.CompileCacheStats()
	d.traced = true
	p, err := d.openLoop(r, r.size.daemonRate, r.measure*35/100)
	if err != nil {
		return err
	}
	hits, misses := webssari.CompileCacheStats()
	var submit, wait, run, late []float64
	for _, q := range p.done {
		r.tr.add("request", q.name, 0, q.due, q.finish)
		r.tr.add("service.wait", q.name, 0, q.sent, q.start)
		submit = append(submit, ms(q.submitted.Sub(q.sent)))
		wait = append(wait, ms(q.start.Sub(q.sent)))
		run = append(run, ms(q.finish.Sub(q.start)))
		late = append(late, ms(q.sent.Sub(q.due)))
	}
	r.metric("trace.overhead_pct", 100*(median(p.latencies())/median(plain.latencies())-1), "%")
	r.metric("verify_file.p50_ms", quantile(run, 0.5), "ms")
	r.metric("verify_file.p99_ms", quantile(run, 0.99), "ms")
	r.metric("cache.hits", float64(hits-hits0), "count")
	r.metric("cache.misses", float64(misses-misses0), "count")
	r.metric("http.submit_p50_ms", quantile(submit, 0.5), "ms")
	r.metric("http.submit_p99_ms", quantile(submit, 0.99), "ms")
	r.metric("service.wait_p50_ms", quantile(wait, 0.5), "ms")
	r.metric("service.wait_p99_ms", quantile(wait, 0.99), "ms")
	r.metric("gen.late_p99_ms", quantile(late, 0.99), "ms")
	r.metric("gen.late_max_ms", quantile(late, 1), "ms")
	r.metric("backlog.max", float64(p.backlog), "count")

	// The walk takes the first requests of the seeded order, however many
	// the phases sent, so its counts depend on the seed alone.
	walked := d.files[:min(len(d.files), r.size.daemonWalk)]
	files := make([]srcFile, 0, len(walked))
	want := make(map[string]answer, len(walked))
	for _, f := range walked {
		files = append(files, srcFile{name: f.rel, src: f.src})
		want[f.rel] = f.want
	}
	for name, o := range layerWalk(r, files, "") {
		r.check(o.verdict == verdictOf(want[name].unsafe), "walk says %s is %s", name, o.verdict)
	}
	return nil
}

// take returns the next n files of the seeded order, fewer if it runs out.
func (d *daemon) take(n int) []genFile {
	n = min(n, len(d.files)-d.next)
	fs := d.files[d.next : d.next+n]
	d.next += n
	return fs
}

// openLoop sends files at rate for dur, each file new to the daemon.
func (d *daemon) openLoop(r *run, rate float64, dur time.Duration) (*phase, error) {
	return d.load(r, d.take(max(1, int(rate*dur.Seconds()))), rate)
}

// rounds sends files as closed-loop rounds for at least dur, and at least
// once, each round from an empty compile cache with the heap collected
// first. It returns each round's files per second.
func (d *daemon) rounds(r *run, files []genFile, dur time.Duration) ([]float64, error) {
	var rates []float64
	deadline := time.Now().Add(dur)
	for len(rates) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		webssari.ResetCompileCache()
		p, err := d.load(r, files, 0)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(len(p.done))/p.end.Sub(p.start).Seconds())
	}
	return rates, nil
}

// latencies are the times from when each request was due to when the
// daemon finished verifying it, in ms.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.done))
	for i, q := range p.done {
		out[i] = ms(q.finish.Sub(q.due))
	}
	return out
}

// load submits files as one phase, then waits up to ten seconds for them
// to be verified. With rate > 0 it is an open loop: file i is due i/rate
// seconds after the start and is sent then, however far behind the
// daemon is. Otherwise it is a closed loop that keeps window requests
// outstanding. Each verdict is checked against the generator's answer;
// rejected and unfinished requests count as failed.
func (d *daemon) load(r *run, files []genFile, rate float64) (*phase, error) {
	d.phase++
	p := &phase{start: time.Now()}
	outstanding := 0
	collect := func(q *request) {
		if q.phase != d.phase {
			return // its own phase counted it unfinished
		}
		outstanding--
		p.done = append(p.done, q)
		if q.finish.After(p.end) {
			p.end = q.finish
		}
	}
	drain := func() {
		for {
			select {
			case q := <-d.runner.finished:
				collect(q)
			default:
				return
			}
		}
	}
	var sendErr error
	for i, f := range files {
		var due time.Time
		if rate > 0 {
			due = p.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			time.Sleep(time.Until(due))
		} else {
			for outstanding >= window {
				collect(<-d.runner.finished)
			}
			due = time.Now()
		}
		// The phase number keeps names unique when rounds resend files.
		q := &request{file: f, name: fmt.Sprintf("%d/%s", d.phase, f.rel), phase: d.phase, traced: d.traced, due: due, sent: time.Now()}
		d.runner.mu.Lock()
		d.runner.pending[q.name] = q
		d.runner.mu.Unlock()
		_, err := d.c.SubmitFile(context.Background(), client.SubmitFileRequest{Name: q.name, Source: string(f.src)})
		q.submitted = time.Now()
		if q.traced {
			r.tr.add("http.submit", q.name, 0, q.sent, q.submitted)
		}
		if err != nil {
			d.runner.mu.Lock()
			delete(d.runner.pending, q.name)
			d.runner.mu.Unlock()
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) {
				sendErr = fmt.Errorf("submitting: %w", err)
				break
			}
			p.rejected++
			continue
		}
		outstanding++
		p.backlog = max(p.backlog, outstanding)
		drain()
	}
	timeout := time.After(10 * time.Second)
wait:
	for outstanding > 0 {
		select {
		case q := <-d.runner.finished:
			collect(q)
		case <-timeout:
			break wait
		}
	}
	// Requests still outstanding are abandoned and count as unfinished. A
	// verification the runner had already taken from pending arrives
	// later, and later phases ignore it.
	d.runner.mu.Lock()
	clear(d.runner.pending)
	d.runner.mu.Unlock()
	drain()
	p.unfinished = outstanding

	for _, q := range p.done {
		r.check(q.err == nil && q.verdict == verdictOf(q.file.want.unsafe),
			"%s: verdict %q, error %v", q.name, q.verdict, q.err)
	}
	for i := 0; i < p.rejected+p.unfinished; i++ {
		r.check(false, "a request was rejected or not verified in time")
	}
	switch {
	case sendErr != nil:
		return nil, sendErr
	case len(p.done) == 0:
		return nil, errors.New("no request was verified")
	}
	return p, nil
}
