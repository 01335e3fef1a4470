// Package cluster turns a set of webssarid daemons into one
// fault-tolerant verification cluster. A coordinator accepts worker
// registrations over the v1 wire schema, tracks liveness by heartbeat,
// and shards the files of each verification job across live workers by
// consistent hashing over store content keys — so a file's cached
// verdict, its dependency graph entry, and its dispatch target all
// derive from the same fingerprint, and any worker can serve any cached
// verdict through the shared result store (RemoteStore).
//
// Robustness is the point, and the invariant it protects is the
// engine's: a clustered run's verdicts are byte-identical (profiles and
// placement counters aside) to a local run's, no matter which workers
// die when. The mechanisms:
//
//   - Missed-heartbeat eviction: a worker silent for
//     HeartbeatMisses×HeartbeatInterval is removed from the ring and its
//     in-flight dispatches are cancelled and re-dispatched to the next
//     worker in the key's ring sequence.
//   - Per-dispatch retries with exponential backoff and jitter, bounded
//     by a retry budget; the server's Retry-After hint is honored.
//   - A per-worker circuit breaker trips after consecutive failures and
//     admits a half-open probe after a cooldown, so a dead worker stops
//     consuming retry budget.
//   - Graceful degradation: when no worker can take a file — none
//     registered, all tripped, budget exhausted — the coordinator runs
//     it locally with exactly the options a worker would have used, and
//     stamps the run's profile `cluster.degraded`. A dying cluster slows
//     down; it never fails a job it could have answered.
//
// Deterministic remote failures (the job itself failed — parse errors,
// pathological files) are replayed locally to reproduce the exact
// engine error a local run would record; they are not worker faults and
// do not trip breakers.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webssari"
	"webssari/client"
	"webssari/internal/report"
	"webssari/internal/service/api"
	"webssari/internal/store"
	"webssari/internal/telemetry"
)

// Defaults for Config's zero values.
const (
	DefaultHeartbeatInterval = 2 * time.Second
	DefaultHeartbeatMisses   = 3
	DefaultRetryBudget       = 3
	DefaultBaseBackoff       = 50 * time.Millisecond
	DefaultMaxBackoff        = 2 * time.Second
	DefaultBreakerThreshold  = 3
	DefaultBreakerCooldown   = 5 * time.Second
	DefaultDispatchTimeout   = 2 * time.Minute
)

// Config assembles a Coordinator.
type Config struct {
	// HeartbeatInterval is the cadence workers must heartbeat at;
	// HeartbeatMisses consecutive silent intervals evict a worker.
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// RetryBudget bounds remote dispatch attempts per file before the
	// coordinator degrades to local execution.
	RetryBudget int
	// BaseBackoff and MaxBackoff shape the between-attempt backoff
	// (exponential, jittered, Retry-After-aware).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold consecutive failures trip a worker's circuit
	// breaker open for BreakerCooldown, after which one probe is
	// admitted.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Replicas is the consistent-hash virtual-node count per worker.
	Replicas int
	// DispatchTimeout bounds one remote dispatch attempt end to end.
	DispatchTimeout time.Duration
	// Fingerprint, when non-empty, is the coordinator's verdict-shaping
	// configuration fingerprint; registrations carrying a different
	// non-empty fingerprint are rejected (they would break verdict
	// identity). See Fingerprint().
	Fingerprint string
	// Store, when non-nil, is served to workers at /v1/store so the
	// whole cluster shares one content-addressed result store.
	Store store.Backend
	// Telemetry receives the cluster metric series; nil runs
	// uninstrumented.
	Telemetry *telemetry.Telemetry
	// Logger receives membership and dispatch log lines; nil is silent.
	// Dispatch-time logging prefers the job-scoped logger travelling down
	// the request context (telemetry.WithLogger), so those lines carry
	// the job's job_id and trace_id; this logger covers everything else
	// (registrations, heartbeats, evictions).
	Logger *telemetry.Logger
	// JobCounts, when non-nil, supplies the daemon's completed-job
	// counts per security policy for GET /v1/cluster (typically the
	// service Server's JobsByPolicy).
	JobCounts func() map[string]int64
	// Hooks inject faults for chaos testing; zero means none.
	Hooks Hooks
	// HTTPClient is used for worker dispatch (nil: http.DefaultClient).
	HTTPClient *http.Client
}

func (c *Config) fill() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = DefaultHeartbeatMisses
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = DefaultRetryBudget
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = DefaultBaseBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.Replicas <= 0 {
		c.Replicas = defaultReplicas
	}
	if c.DispatchTimeout <= 0 {
		c.DispatchTimeout = DefaultDispatchTimeout
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
}

// Fingerprint summarizes a verdict-shaping option list for registration
// matching: two daemons with equal fingerprints produce byte-identical
// verdicts for the same inputs. It is the result store's definition,
// webssari.ConfigFingerprint, plus the deadline: the store can leave the
// deadline out because it keeps only complete reports, but every worker
// applies its own deadline, and that decides completeness. Options that
// change only cost (-j, -incremental, the solver mode) never split a
// cluster.
func Fingerprint(opts ...webssari.Option) string {
	fp, err := webssari.ConfigFingerprint(opts...)
	if err != nil {
		return ""
	}
	cc, err := webssari.ExportConfig(opts...)
	if err != nil {
		return ""
	}
	return store.Key("webssari-cluster-config-v2", fp, "deadline="+cc.Deadline.String())
}

// worker is one registered cluster member.
type worker struct {
	id   string
	name string
	addr string

	client  *client.Client
	breaker *breaker
	// evicted closes when the worker leaves the cluster (missed
	// heartbeats or deregistration); in-flight dispatches watch it and
	// cancel, which is what re-dispatches a job stuck on a dead worker.
	evicted chan struct{}

	dispatches atomic.Int64
	failures   atomic.Int64

	lastSeen time.Time // guarded by Coordinator.mu
}

// Coordinator owns cluster membership and dispatch. It implements the
// service Runner surface (VerifyFile/VerifyDir), so a webssarid in
// coordinator mode routes every accepted job through it.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	workers map[string]*worker
	byAddr  map[string]*worker
	ring    *ring
	nextID  int64
	closed  bool

	stop chan struct{}
	done chan struct{}

	evictions    atomic.Int64
	redispatches atomic.Int64
	degradedRuns atomic.Int64

	log *telemetry.Logger

	gLive       *telemetry.GaugeMetric
	cRegs       *telemetry.CounterMetric
	cHeartbeats *telemetry.CounterMetric
	cEvictions  *telemetry.CounterMetric
	cDispatch   *telemetry.CounterMetric
	cDispFail   *telemetry.CounterMetric
	cRedispatch *telemetry.CounterMetric
	cTrips      *telemetry.CounterMetric
	cDegraded   *telemetry.CounterMetric
	cLocal      *telemetry.CounterMetric
	cRemote     *telemetry.CounterMetric
	hRTT        *telemetry.HistogramMetric
}

// New assembles a Coordinator and starts its eviction loop; Close stops
// it.
func New(cfg Config) *Coordinator {
	cfg.fill()
	c := &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*worker),
		byAddr:  make(map[string]*worker),
		ring:    newRing(cfg.Replicas),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		log:     cfg.Logger,
	}
	if cfg.Telemetry != nil && cfg.Telemetry.Metrics != nil {
		reg := cfg.Telemetry.Metrics
		c.gLive = reg.Gauge(telemetry.MetricClusterWorkersLive)
		c.cRegs = reg.Counter(telemetry.MetricClusterRegistrations)
		c.cHeartbeats = reg.Counter(telemetry.MetricClusterHeartbeats)
		c.cEvictions = reg.Counter(telemetry.MetricClusterEvictions)
		c.cDispatch = reg.Counter(telemetry.MetricClusterDispatches)
		c.cDispFail = reg.Counter(telemetry.MetricClusterDispatchFailures)
		c.cRedispatch = reg.Counter(telemetry.MetricClusterRedispatches)
		c.cTrips = reg.Counter(telemetry.MetricClusterBreakerTrips)
		c.cDegraded = reg.Counter(telemetry.MetricClusterDegradedRuns)
		c.cLocal = reg.Counter(telemetry.MetricClusterLocalFiles)
		c.cRemote = reg.Counter(telemetry.MetricClusterRemoteFiles)
		c.hRTT = reg.Histogram(telemetry.MetricClusterDispatchRTT, nil)
	}
	go c.evictLoop()
	return c
}

// Close stops the eviction loop. Registered workers are left in place —
// a closed coordinator still answers status queries — but liveness
// stops being enforced.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stop)
	}
	c.mu.Unlock()
	<-c.done
}

// workerUpGauge resolves the per-worker health gauge.
func (c *Coordinator) workerUpGauge(id string) *telemetry.GaugeMetric {
	if c.cfg.Telemetry == nil || c.cfg.Telemetry.Metrics == nil {
		return nil
	}
	return c.cfg.Telemetry.Metrics.Gauge(telemetry.Name(telemetry.MetricClusterWorkerUp, "worker", id))
}

// --- membership ---

// register adds (or replaces, by address) a worker and returns its ID.
func (c *Coordinator) register(addr, name, fingerprint string) (string, error) {
	if c.cfg.Fingerprint != "" && fingerprint != "" && fingerprint != c.cfg.Fingerprint {
		return "", fmt.Errorf("configuration fingerprint mismatch: worker %s, coordinator %s — "+
			"workers must run with the same analysis options as the coordinator",
			fingerprint[:min(len(fingerprint), 12)], c.cfg.Fingerprint[:min(len(c.cfg.Fingerprint), 12)])
	}
	c.mu.Lock()
	if old := c.byAddr[addr]; old != nil {
		// A restart of the same worker: retire the stale registration so
		// its in-flight dispatches re-route instead of hanging on a job
		// the restarted daemon has forgotten.
		c.removeLocked(old)
	}
	c.nextID++
	w := &worker{
		id:   fmt.Sprintf("w%d", c.nextID),
		name: name,
		addr: addr,
		client: client.New(addr,
			client.WithHTTPClient(c.cfg.HTTPClient),
			// A brief client-level retry rides out a healthy-but-busy
			// worker's 429 without charging its breaker.
			client.WithRetryPolicy(client.RetryPolicy{
				MaxRetries: 2, BaseDelay: c.cfg.BaseBackoff, MaxDelay: c.cfg.MaxBackoff,
			})),
		breaker:  newBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown),
		evicted:  make(chan struct{}),
		lastSeen: time.Now(),
	}
	c.workers[w.id] = w
	c.byAddr[addr] = w
	c.ring.add(w.id)
	live := len(c.workers)
	c.mu.Unlock()

	c.cRegs.Inc()
	c.gLive.Set(int64(live))
	c.workerUpGauge(w.id).Set(1)
	c.log.Info("worker registered", "worker", w.id, "name", name, "addr", addr, "live", live)
	return w.id, nil
}

// removeLocked retires a worker (mu held): out of the ring and maps,
// in-flight dispatches cancelled via the evicted channel.
func (c *Coordinator) removeLocked(w *worker) {
	if _, ok := c.workers[w.id]; !ok {
		return
	}
	delete(c.workers, w.id)
	if c.byAddr[w.addr] == w {
		delete(c.byAddr, w.addr)
	}
	c.ring.remove(w.id)
	close(w.evicted)
}

// heartbeat refreshes a worker's liveness; false means unknown worker.
func (c *Coordinator) heartbeat(id string) bool {
	if d := c.cfg.Hooks.DelayHeartbeat; d != nil {
		if delay := d(id); delay > 0 {
			time.Sleep(delay)
		}
	}
	c.mu.Lock()
	w := c.workers[id]
	if w == nil {
		c.mu.Unlock()
		return false
	}
	if drop := c.cfg.Hooks.DropHeartbeat; drop != nil && drop(id) {
		c.mu.Unlock()
		return true // "lost on the network": acknowledged, not recorded
	}
	w.lastSeen = time.Now()
	c.mu.Unlock()
	c.cHeartbeats.Inc()
	return true
}

// deregister removes a worker gracefully; false means unknown worker.
func (c *Coordinator) deregister(id string) bool {
	c.mu.Lock()
	w := c.workers[id]
	if w == nil {
		c.mu.Unlock()
		return false
	}
	c.removeLocked(w)
	live := len(c.workers)
	c.mu.Unlock()
	c.gLive.Set(int64(live))
	c.workerUpGauge(id).Set(0)
	c.log.Info("worker deregistered", "worker", id, "addr", w.addr, "live", live)
	return true
}

// evictLoop enforces liveness: a worker silent past the miss budget is
// evicted and its in-flight dispatches re-route.
func (c *Coordinator) evictLoop() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-time.Duration(c.cfg.HeartbeatMisses) * c.cfg.HeartbeatInterval)
		var evicted []*worker
		c.mu.Lock()
		for _, w := range c.workers {
			if w.lastSeen.Before(cutoff) {
				c.removeLocked(w)
				evicted = append(evicted, w)
			}
		}
		live := len(c.workers)
		c.mu.Unlock()
		for _, w := range evicted {
			c.evictions.Add(1)
			c.cEvictions.Inc()
			c.gLive.Set(int64(live))
			c.workerUpGauge(w.id).Set(0)
			c.log.Warn("worker evicted: missed heartbeats",
				"worker", w.id, "addr", w.addr,
				"silent_ms", time.Since(w.lastSeen).Milliseconds(), "live", live)
			if fn := c.cfg.Hooks.OnEvict; fn != nil {
				fn(w.id)
			}
		}
	}
}

// liveWorkers returns the current live count.
func (c *Coordinator) liveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// --- dispatch ---

// runStats accumulates one run's placement outcomes (hit concurrently
// by the per-file dispatchers).
type runStats struct {
	mu           sync.Mutex
	workers      int
	remote       int
	local        int
	redispatches int
	replayed     int
	degraded     bool
}

func (s *runStats) profile() *telemetry.ClusterProfile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &telemetry.ClusterProfile{
		Workers:      s.workers,
		Remote:       s.remote,
		Local:        s.local,
		Redispatches: s.redispatches,
		Replayed:     s.replayed,
		Degraded:     s.degraded,
	}
}

// pick chooses the dispatch target for a key's attempt: the ring
// sequence rotated by the attempt number (so each retry prefers the
// next worker), skipping breakers that refuse. nil when no worker is
// available at all.
func (c *Coordinator) pick(key string, attempt int) *worker {
	c.mu.Lock()
	seq := c.ring.sequence(key)
	candidates := make([]*worker, 0, len(seq))
	for _, id := range seq {
		if w := c.workers[id]; w != nil {
			candidates = append(candidates, w)
		}
	}
	c.mu.Unlock()
	if len(candidates) == 0 {
		return nil
	}
	for i := 0; i < len(candidates); i++ {
		w := candidates[(attempt+i)%len(candidates)]
		if w.breaker.Allow() {
			return w
		}
	}
	return nil
}

// backoff sleeps before the next attempt, for the client's retry delay
// (client.RetryPolicy.Delay) over BaseBackoff and MaxBackoff. Returns
// early (false) when ctx ends.
func (c *Coordinator) backoff(ctx context.Context, attempt int, hint time.Duration) bool {
	p := client.RetryPolicy{BaseDelay: c.cfg.BaseBackoff, MaxDelay: c.cfg.MaxBackoff}
	timer := time.NewTimer(p.Delay(attempt, hint))
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// dispatchFile verifies one file through the cluster: consistent-hash
// placement, retries with backoff across the ring sequence, local
// replay of deterministic failures, local degraded execution when no
// worker can take it. localOpts are the exact per-file options a local
// run would use — both fallbacks call the engine with them untouched,
// which is what keeps fallback verdicts byte-identical.
func (c *Coordinator) dispatchFile(ctx context.Context, src []byte, name string, localOpts []webssari.Option, stats *runStats, wantText bool) (*webssari.Report, error) {
	key := store.Key("webssari-cluster-dispatch-v1", name, string(src))
	// The wire request carries every verdict-shaping per-job field the
	// local options resolve to — include root and security policy — so a
	// worker reproduces the coordinator's exact configuration.
	sreq := api.SubmitFileRequest{Name: name, Source: string(src)}
	if cc, err := webssari.ExportConfig(localOpts...); err == nil {
		sreq.Dir = cc.Dir
		sreq.Policy = cc.Policy
		sreq.PolicyJSON = cc.PolicyJSON
		// The solver spec rides along so a worker solves under the
		// coordinator's exact configuration — budgets are verdict-shaping
		// (they decide whether assertions degrade to Unknown), and the
		// verdict-neutral mode keeps cost behavior consistent across
		// placements.
		spec := api.SolverSpec{
			Mode:         string(cc.Solver.Mode),
			MaxConflicts: cc.Solver.MaxConflicts,
			MaxRestarts:  cc.Solver.MaxRestarts,
		}
		if spec != (api.SolverSpec{}) {
			sreq.Solver = &spec
		}
	}
	// Prefer the job-scoped logger from the request context (carries
	// job_id and trace_id); fall back to the coordinator's own.
	log := telemetry.LoggerFrom(ctx)
	if log == nil {
		log = c.log
	}
	log = log.With("file", name)

	for attempt := 1; attempt <= c.cfg.RetryBudget; attempt++ {
		w := c.pick(key, attempt-1)
		if w == nil {
			break // nobody can take it: degrade below
		}
		if attempt > 1 {
			c.redispatches.Add(1)
			c.cRedispatch.Inc()
			stats.mu.Lock()
			stats.redispatches++
			stats.mu.Unlock()
			telemetry.Instant(ctx, "redispatch", "file", name, "worker", w.id, "attempt", attempt)
			log.Info("redispatching", "worker", w.id, "attempt", attempt)
		}
		if hook := c.cfg.Hooks.BeforeDispatch; hook != nil {
			if err := hook(w.id, name, attempt); err != nil {
				c.dispatchFailed(w)
				if !c.backoff(ctx, attempt, 0) {
					return nil, ctx.Err()
				}
				continue
			}
		}
		actx, dsp := telemetry.StartSpan(ctx, "dispatch",
			"file", name, "worker", w.id, "attempt", attempt)
		rep, err := c.remoteVerify(actx, w, sreq, wantText)
		dsp.End()
		if err == nil {
			w.breaker.Success()
			c.cRemote.Inc()
			stats.mu.Lock()
			stats.remote++
			stats.mu.Unlock()
			log.Debug("file verified remotely", "worker", w.id, "attempt", attempt)
			return rep, nil
		}
		if ctx.Err() != nil {
			// The run itself is over (deadline/cancel), not the worker.
			return nil, ctx.Err()
		}
		var jobErr *client.JobFailedError
		if errors.As(err, &jobErr) {
			// The worker is fine; the job failed deterministically (parse
			// error, pathological file). Replay locally to reproduce the
			// exact engine error a local run would record — an error
			// message relayed over the wire would lose its typed stage.
			w.breaker.Success()
			c.cLocal.Inc()
			stats.mu.Lock()
			stats.local++
			stats.replayed++
			stats.mu.Unlock()
			log.Info("replaying deterministic failure locally", "worker", w.id)
			return webssari.VerifyContext(ctx, src, name, localOpts...)
		}
		c.dispatchFailed(w)
		log.Warn("dispatch failed", "worker", w.id, "attempt", attempt, "error", err.Error())
		hint := time.Duration(0)
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			hint = apiErr.RetryAfter
		}
		if !c.backoff(ctx, attempt, hint) {
			return nil, ctx.Err()
		}
	}

	// Graceful degradation: the cluster cannot take this file right now,
	// so run it here rather than fail it. Same options, same verdict —
	// only the profile's cluster section records that we degraded.
	stats.mu.Lock()
	stats.local++
	stats.degraded = true
	stats.mu.Unlock()
	c.cLocal.Inc()
	telemetry.Instant(ctx, "degraded", "file", name)
	log.Warn("degrading to local execution: no worker available")
	return webssari.VerifyContext(ctx, src, name, localOpts...)
}

// dispatchFailed charges one transient dispatch failure to a worker.
func (c *Coordinator) dispatchFailed(w *worker) {
	w.failures.Add(1)
	c.cDispFail.Inc()
	if w.breaker.Failure() {
		c.cTrips.Inc()
	}
}

// remoteVerify runs one dispatch attempt end to end on a worker:
// submit, wait, fetch. The attempt is bounded by DispatchTimeout and
// cancelled immediately if the worker is evicted mid-job — that
// cancellation is what turns a silent worker death into a prompt
// re-dispatch instead of a full timeout wait.
func (c *Coordinator) remoteVerify(ctx context.Context, w *worker, sreq api.SubmitFileRequest, wantText bool) (*webssari.Report, error) {
	dctx, cancel := context.WithTimeout(ctx, c.cfg.DispatchTimeout)
	defer cancel()
	// Each dispatch is one causal hop: re-derive the trace context so the
	// traceparent the client sends names this dispatch as the parent. The
	// worker extracts it and stamps the same trace ID on its own spans
	// and log lines.
	if tc := telemetry.TraceContextFrom(ctx); tc.Valid() {
		dctx = telemetry.WithTraceContext(dctx, tc.Child())
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-w.evicted:
			cancel()
		case <-watchDone:
		}
	}()

	w.dispatches.Add(1)
	c.cDispatch.Inc()
	start := time.Now()
	defer func() { c.hRTT.Observe(time.Since(start).Seconds()) }()
	sub, err := w.client.SubmitFile(dctx, sreq)
	if err != nil {
		return nil, err
	}
	if _, err := w.client.Wait(dctx, sub.Job); err != nil {
		return nil, err
	}
	rep, err := w.client.FileResult(dctx, sub.Job)
	if err != nil {
		return nil, err
	}
	if wantText {
		// A report decoded from JSON renders no text; single-file
		// callers (the daemon's ?text=1 view) want the worker's. Without
		// it the attempt fails, so a retry or the local fallback renders
		// the text.
		text, err := w.client.FileResultText(dctx, sub.Job)
		if err != nil {
			return nil, err
		}
		report.AttachText(rep, text)
	}
	c.ingestWorkerTrace(ctx, dctx, w, sub.Job)
	return rep, nil
}

// ingestWorkerTrace stitches the worker's span export for one dispatched
// job into the coordinator-side job tracer, labeled with the worker's
// identity — this is what makes GET /v1/jobs/{id}/trace on the
// coordinator a single artifact covering the whole distributed run. A
// fetch failure only costs trace completeness, never the dispatch.
func (c *Coordinator) ingestWorkerTrace(ctx, dctx context.Context, w *worker, remoteJob string) {
	tel := telemetry.From(ctx)
	if tel == nil || tel.Tracer == nil {
		return
	}
	doc, err := w.client.JobTrace(dctx, remoteJob)
	if err != nil {
		return
	}
	label := w.name
	if label == "" {
		label = w.id
	}
	tel.Tracer.Ingest(doc, fmt.Sprintf("worker %s (%s)", label, w.addr))
}

// --- Runner surface (what webssarid routes jobs through) ---

// VerifyFile verifies one source through the cluster.
func (c *Coordinator) VerifyFile(ctx context.Context, src []byte, name string, opts ...webssari.Option) (*webssari.Report, error) {
	stats := &runStats{workers: c.liveWorkers()}
	rep, err := c.dispatchFile(ctx, src, name, opts, stats, true)
	if err != nil {
		return nil, err
	}
	if rep.Profile == nil {
		rep.Profile = &webssari.RunProfile{}
	}
	rep.Profile.Cluster = stats.profile()
	c.noteDegraded(stats)
	return rep, nil
}

// VerifyDir verifies a directory, dispatching each entry file across
// the cluster through the engine's FileVerifier seam — the project
// walk, result assembly, and report shape are the engine's own, which
// is why clustered project reports are byte-identical to local ones.
func (c *Coordinator) VerifyDir(ctx context.Context, dir string, opts ...webssari.Option) (*webssari.ProjectReport, error) {
	stats := &runStats{workers: c.liveWorkers()}
	dopts := append(append([]webssari.Option(nil), opts...),
		webssari.WithFileVerifier(func(fctx context.Context, src []byte, name string, fopts ...webssari.Option) (*webssari.Report, error) {
			return c.dispatchFile(fctx, src, name, fopts, stats, false)
		}))
	pr, err := webssari.VerifyDirContext(ctx, dir, dopts...)
	if err != nil {
		return nil, err
	}
	if pr.Profile == nil {
		pr.Profile = &webssari.RunProfile{}
	}
	pr.Profile.Cluster = stats.profile()
	c.noteDegraded(stats)
	return pr, nil
}

// noteDegraded counts a degraded run once per run.
func (c *Coordinator) noteDegraded(stats *runStats) {
	stats.mu.Lock()
	degraded := stats.degraded
	stats.mu.Unlock()
	if degraded {
		c.degradedRuns.Add(1)
		c.cDegraded.Inc()
	}
}

// --- HTTP surface ---

// Handler returns the coordinator's HTTP handler: the cluster
// membership endpoints and, with a Store configured, the shared store
// endpoints. Mount it beside the service handler:
//
//	POST   /v1/cluster/workers                register (api.RegisterWorkerRequest)
//	POST   /v1/cluster/workers/{id}/heartbeat liveness refresh
//	DELETE /v1/cluster/workers/{id}           graceful leave
//	GET    /v1/cluster                        api.ClusterStatus
//	GET/PUT/DELETE /v1/store/{key}            shared result store
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/workers", c.handleRegister)
	mux.HandleFunc("POST /v1/cluster/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("DELETE /v1/cluster/workers/{id}", c.handleDeregister)
	mux.HandleFunc("GET /v1/cluster", c.handleStatus)
	if c.cfg.Store != nil {
		(&storeServer{backend: c.cfg.Store}).register(mux)
	}
	return mux
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var req api.RegisterWorkerRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if req.Addr == "" {
		writeError(w, http.StatusBadRequest, "missing \"addr\"")
		return
	}
	if u, err := url.Parse(req.Addr); err != nil || u.Scheme == "" || u.Host == "" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("%q is not an absolute base URL", req.Addr))
		return
	}
	id, err := c.register(req.Addr, req.Name, req.Fingerprint)
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, api.RegisterWorkerResponse{
		SchemaV:             api.Schema,
		Worker:              id,
		HeartbeatIntervalMS: int(c.cfg.HeartbeatInterval / time.Millisecond),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !c.heartbeat(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "no such worker; re-register")
		return
	}
	writeJSON(w, api.Ack{SchemaV: api.Schema, Status: "ok"})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if !c.deregister(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "no such worker")
		return
	}
	writeJSON(w, api.Ack{SchemaV: api.Schema, Status: "removed"})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	// A worker silent for the full miss budget is evicted; evict_in_ms is
	// the remaining slack, clamped at zero — the near-eviction signal.
	budget := time.Duration(c.cfg.HeartbeatMisses) * c.cfg.HeartbeatInterval
	c.mu.Lock()
	rows := make([]api.WorkerStatus, 0, len(c.workers))
	for _, wk := range c.workers {
		age := now.Sub(wk.lastSeen)
		evictIn := budget - age
		if evictIn < 0 {
			evictIn = 0
		}
		rows = append(rows, api.WorkerStatus{
			ID:              wk.id,
			Name:            wk.name,
			Addr:            wk.addr,
			Live:            true,
			LastHeartbeatMS: age.Milliseconds(),
			EvictInMS:       evictIn.Milliseconds(),
			Breaker:         wk.breaker.State(),
			Dispatches:      wk.dispatches.Load(),
			Failures:        wk.failures.Load(),
		})
	}
	c.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	st := api.ClusterStatus{
		SchemaV:      api.Schema,
		Workers:      rows,
		Live:         len(rows),
		Evictions:    c.evictions.Load(),
		Redispatches: c.redispatches.Load(),
		DegradedRuns: c.degradedRuns.Load(),
	}
	if c.cfg.JobCounts != nil {
		st.JobsByPolicy = c.cfg.JobCounts()
	}
	writeJSON(w, st)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(api.ErrorResponse{SchemaV: api.Schema, Error: msg})
}
