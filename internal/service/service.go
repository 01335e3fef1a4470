// Package service is the verification daemon behind cmd/webssarid: an
// HTTP/JSON front end over the webssari engine that turns the one-shot
// batch tool of the paper into an always-on analysis service.
//
// Shape of the system:
//
//   - Submissions (one PHP source, or a server-local directory) are
//     admission-controlled into a bounded queue; a full queue answers
//     429 immediately — callers get backpressure, not latency.
//   - A fixed set of worker goroutines (Config.Workers) drains the
//     queue, each running one job at a time, so heavy traffic saturates
//     the hardware without oversubscribing it. Each job runs under the
//     engine's robustness discipline: per-unit deadlines (WithDeadline),
//     SAT conflict budgets (WithSolverConfig), fault isolation per file.
//   - Results stream: every job records one NDJSON line per finished
//     file the moment it completes, and GET /v1/jobs/{id}/stream replays
//     then follows that stream live. The same encoder serves xbmc's
//     -ndjson directory mode.
//   - With a persistent result store attached (internal/store), repeat
//     submissions of unchanged content answer from disk across process
//     restarts; hit/miss/GC counters are on /metrics.
//   - Drain is graceful: after Drain begins, new submissions get 503,
//     queued and in-flight jobs run to completion, then the server
//     stops. cmd/webssarid triggers this on SIGTERM.
//
// Directory jobs support two refinements on top of PR-4 semantics:
//
//   - Delta verification: with a store attached and incremental mode on
//     (Config.Incremental, overridable per job), re-submitting a
//     directory re-verifies only changed files plus their
//     reverse-dependency closure (webssari.WithIncremental).
//   - Watch mode: a {"watch": true} directory job stays alive after its
//     first round, polling the directory's stat snapshot (no OS watcher
//     dependency) and re-verifying on every change; each round streams
//     its per-file reports plus one summary line over the job's NDJSON
//     channel. Watch jobs end on DELETE /v1/jobs/{id} or server drain.
//
// Wire format: every JSON response is stamped `"schema": "v1"`, request
// bodies reject unknown fields, and the payload types live in the
// shared internal/service/api package (see also the root client
// package).
//
// Endpoints:
//
//	POST   /v1/files            api.SubmitFileRequest → 202 api.SubmitResponse
//	POST   /v1/dirs             api.SubmitDirRequest  → 202 api.SubmitResponse
//	GET    /v1/jobs             api.JobList (newest first)
//	GET    /v1/jobs/{id}        api.JobStatus
//	DELETE /v1/jobs/{id}        cancel: stop a watch job / abort a running job
//	GET    /v1/jobs/{id}/wait   api.JobStatus once the job is done or failed (blocks)
//	GET    /v1/jobs/{id}/result api.ResultResponse (409 while running)
//	GET    /v1/jobs/{id}/stream NDJSON: per-file reports as they complete
//	GET    /v1/jobs/{id}/trace  Chrome/Perfetto trace of the job (with a Telemetry)
//	GET    /v1/version          api.VersionResponse (buildinfo + schema)
//	GET    /healthz             api.Health: liveness, queue occupancy, version, uptime
//	GET    /metrics             Prometheus exposition (with a Telemetry)
//	GET    /debug/events        structured-log flight recorder (with a Logger)
//
// Observability (PR 8): every job carries a distributed trace context —
// taken from the submitter's W3C `traceparent` header, or minted at
// admission — that is stamped on all spans and log lines and propagated
// downstream (the cluster coordinator forwards it per dispatch, workers
// extract it again). Each job records its spans into a private tracer,
// so GET /v1/jobs/{id}/trace serves one Perfetto-loadable document per
// job; in coordinator mode the document also contains the workers'
// stitched span exports. Request latency per /v1 route, queue wait,
// and latency-objective breaches (`webssari_slo_breaches_total`) are on
// /metrics; files slower than Config.SlowFile produce a warn-level log
// entry with the trace ID.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webssari"
	"webssari/internal/buildinfo"
	"webssari/internal/service/api"
	"webssari/internal/store"
	"webssari/internal/telemetry"
)

// DefaultQueueSize bounds the submission queue when Config.QueueSize is
// zero. Shallow on purpose: the queue is a shock absorber, not a
// backlog — a deep queue only converts overload into latency.
const DefaultQueueSize = 64

// DefaultMaxSourceBytes caps one submitted source text (4 MiB — far
// above any real PHP page; admission control for the parser).
const DefaultMaxSourceBytes = 4 << 20

// defaultRetainedJobs bounds the finished-job history kept for status
// queries.
const defaultRetainedJobs = 256

// Runner is the execution backend a Server routes verification jobs
// through. The default (nil Config.Runner) runs the engine in process;
// a webssarid in coordinator mode installs the cluster coordinator
// here, which dispatches per-file work across registered workers. The
// contract is the engine's: implementations must produce reports
// byte-identical (profiles aside) to the local entry points under the
// same options.
type Runner interface {
	VerifyFile(ctx context.Context, src []byte, name string, opts ...webssari.Option) (*webssari.Report, error)
	VerifyDir(ctx context.Context, dir string, opts ...webssari.Option) (*webssari.ProjectReport, error)
}

// localRunner is the default Runner: the in-process engine.
type localRunner struct{}

func (localRunner) VerifyFile(ctx context.Context, src []byte, name string, opts ...webssari.Option) (*webssari.Report, error) {
	return webssari.VerifyContext(ctx, src, name, opts...)
}

func (localRunner) VerifyDir(ctx context.Context, dir string, opts ...webssari.Option) (*webssari.ProjectReport, error) {
	return webssari.VerifyDirContext(ctx, dir, opts...)
}

// Config assembles a Server.
type Config struct {
	// Store is the persistent result store (tier 2); nil disables it.
	Store *store.Store
	// StoreBackend is an alternative result-store backend used when
	// Store is nil — a cluster worker's remote view of the
	// coordinator's store. Ignored when Store is set.
	StoreBackend store.Backend
	// Runner executes verification jobs (nil: in-process engine).
	Runner Runner
	// Telemetry receives metrics and spans; nil runs uninstrumented.
	Telemetry *telemetry.Telemetry
	// Workers bounds concurrently running jobs (<= 0: GOMAXPROCS).
	Workers int
	// JobParallelism bounds how many files of a directory job are
	// verified at once (WithParallelism); file jobs ignore it, and 0
	// keeps the engine default.
	JobParallelism int
	// QueueSize bounds queued-but-unstarted jobs (<= 0: DefaultQueueSize).
	QueueSize int
	// JobDeadline bounds each verification unit's wall time
	// (WithDeadline: per file under directory jobs); 0 means none.
	JobDeadline time.Duration
	// Solver is the daemon's default solver configuration
	// (webssari.WithSolverConfig): dispatch mode and search budgets.
	// Per-job SolverSpec fields in api.SubmitFileRequest /
	// SubmitDirRequest override it field-wise.
	Solver webssari.SolverConfig
	// MaxSourceBytes caps a submitted source (<= 0: DefaultMaxSourceBytes).
	MaxSourceBytes int64
	// DisableDirs rejects directory submissions — for deployments where
	// the daemon must not read server-local paths chosen by clients.
	DisableDirs bool
	// Incremental makes directory jobs use delta re-verification by
	// default (webssari.WithIncremental; needs Store). Individual
	// submissions can override it via api.SubmitDirRequest.Incremental.
	Incremental bool
	// WatchInterval is the snapshot poll interval of watch-mode
	// directory jobs (0 = DefaultWatchInterval).
	WatchInterval time.Duration
	// Logger receives the daemon's structured log stream; nil is silent.
	// Job-scoped log lines carry job_id and trace_id attributes, and the
	// logger travels down the context so cluster-dispatch logging
	// inherits them.
	Logger *telemetry.Logger
	// LatencyObjective is the per-request latency SLO for the /v1
	// endpoints: a request (stream excluded) slower than this increments
	// webssari_slo_breaches_total{route=...}. 0 disables breach counting
	// (latency histograms still record).
	LatencyObjective time.Duration
	// SlowFile, when positive, logs a warn-level entry (with the job's
	// trace ID) for every file whose verification wall time exceeds it,
	// and counts it in webssari_service_slow_files_total.
	SlowFile time.Duration
	// Policy / PolicyJSON select the daemon's default security policy
	// (webssari.WithPolicy / WithPolicyJSON); per-job selections in
	// api.SubmitFileRequest / SubmitDirRequest override it.
	Policy     string
	PolicyJSON string
	// Options are extra engine options appended to every job (preludes,
	// extra sinks).
	Options []webssari.Option
}

// maxJobTraceEvents bounds each job's private tracer so long-lived
// watch jobs cannot grow a trace without limit; overflow is counted in
// the trace document's droppedEvents.
const maxJobTraceEvents = 100_000

// DefaultWatchInterval is the watch-mode poll cadence when
// Config.WatchInterval is zero: fast enough to feel live, cheap enough
// (a stat walk) to run forever.
const DefaultWatchInterval = 2 * time.Second

// jobState aliases the wire-level lifecycle states (internal/service/api).
type jobState = api.JobState

const (
	stateQueued  = api.StateQueued
	stateRunning = api.StateRunning
	stateDone    = api.StateDone
	stateFailed  = api.StateFailed
)

// job is one submitted verification unit.
type job struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`   // "file" | "dir"
	Target string `json:"target"` // file name or directory path

	source []byte // file jobs only
	dir    string // file jobs: optional include root

	// Directory-job refinements (set before admission, then read-only).
	incremental *bool         // per-job override of Config.Incremental
	watch       bool          // watch mode: re-verify on every change
	interval    time.Duration // watch poll interval (0 = server default)

	// Per-job security policy, validated at admission (set before
	// admission, then read-only). policyLabel is the canonical policy
	// name for counters — the declared name even for JSON policies,
	// "default" when no policy is selected.
	policy      string
	policyJSON  string
	policyLabel string

	// Per-job solver override, validated at admission (nil keeps the
	// daemon default).
	solver *webssari.SolverConfig

	// trace is the job's distributed trace context: the submitter's
	// traceparent, or minted at admission. Set before admission, then
	// read-only.
	trace telemetry.TraceContext

	mu        sync.Mutex
	state     jobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	fileRep   *webssari.Report
	dirRep    *webssari.ProjectReport
	rounds    int                // watch jobs: completed verification rounds
	cancel    context.CancelFunc // set while running; DELETE triggers it
	canceled  bool               // cancel requested (possibly pre-start)
	tracer    *telemetry.Tracer  // the job's private span sink (nil without telemetry)

	// lines is the job's NDJSON line log: per-file reports appended as
	// they complete. Each stream follower keeps its own cursor into it
	// and waits on grown, which is closed and replaced on every append
	// and at finish. Guarded by mu.
	lines [][]byte
	grown chan struct{}
	done  chan struct{} // closed on completion
}

// status snapshots the job under its lock.
func (j *job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := api.JobStatus{
		ID: j.ID, Kind: j.Kind, Target: j.Target,
		State: j.state, Submitted: j.submitted, Error: j.errMsg,
		Watch: j.watch, Rounds: j.rounds, TraceID: j.trace.TraceID,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.fileRep != nil {
		st.Verdict = j.fileRep.Verdict
	}
	if j.dirRep != nil {
		st.Verdict = j.dirRep.Verdict()
	}
	return st
}

// Write records one NDJSON line and wakes the stream followers. It
// implements io.Writer so the shared NDJSON encoder can drive it; each
// Write is exactly one line by the encoder's contract. It never waits
// on a follower: each one reads the log at its own pace.
func (j *job) Write(line []byte) (int, error) {
	cp := append([]byte(nil), line...)
	j.mu.Lock()
	j.lines = append(j.lines, cp)
	j.wakeLocked()
	j.mu.Unlock()
	return len(line), nil
}

// wakeLocked releases every follower waiting on grown. Call with mu held.
func (j *job) wakeLocked() {
	close(j.grown)
	j.grown = make(chan struct{})
}

// linesFrom returns the lines recorded at or after cursor, whether the
// job has finished (no line follows those), and a channel that is
// closed when either changes.
func (j *job) linesFrom(cursor int) (lines [][]byte, finished bool, grown <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lines[cursor:], j.state.Terminal(), j.grown
}

// Server is the verification service.
type Server struct {
	cfg      Config
	runner   Runner
	mux      *http.ServeMux
	queue    chan *job
	maxSrc   int64
	deadline time.Duration

	admitMu  sync.RWMutex // guards queue sends against close-on-drain
	draining atomic.Bool
	inFlight atomic.Int64

	jobsMu   sync.Mutex
	jobs     map[string]*job
	jobOrder []string // submission order, for listing and history cap
	nextID   atomic.Int64

	// jobsByPolicy counts completed jobs per policy label; mirrored on
	// /metrics as webssari_jobs_total{policy=...} and surfaced through
	// JobsByPolicy for the cluster status endpoint.
	policyMu     sync.Mutex
	jobsByPolicy map[string]int64

	wg sync.WaitGroup // worker goroutines
	// stopWatch ends every watch job's poll loop; closed when Drain
	// begins so long-running watch jobs cannot stall a graceful stop.
	stopWatch chan struct{}

	log     *telemetry.Logger
	started time.Time

	gQueue     *telemetry.GaugeMetric
	gInFlight  *telemetry.GaugeMetric
	cAccepted  *telemetry.CounterMetric
	cRejected  *telemetry.CounterMetric
	cDone      *telemetry.CounterMetric
	cFailed    *telemetry.CounterMetric
	cSlowFiles *telemetry.CounterMetric
	hJobSecs   *telemetry.HistogramMetric
	hQueueWait *telemetry.HistogramMetric
}

// New assembles a Server and starts its workers. Call Drain to stop.
func New(cfg Config) *Server {
	qs := cfg.QueueSize
	if qs <= 0 {
		qs = DefaultQueueSize
	}
	maxSrc := cfg.MaxSourceBytes
	if maxSrc <= 0 {
		maxSrc = DefaultMaxSourceBytes
	}
	runner := cfg.Runner
	if runner == nil {
		runner = localRunner{}
	}
	s := &Server{
		cfg:          cfg,
		runner:       runner,
		mux:          http.NewServeMux(),
		queue:        make(chan *job, qs),
		maxSrc:       maxSrc,
		deadline:     cfg.JobDeadline,
		jobs:         make(map[string]*job),
		jobsByPolicy: make(map[string]int64),
		stopWatch:    make(chan struct{}),
		log:          cfg.Logger,
		started:      time.Now(),
	}
	if cfg.Telemetry != nil && cfg.Telemetry.Metrics != nil {
		reg := cfg.Telemetry.Metrics
		s.gQueue = reg.Gauge(telemetry.MetricServiceQueueDepth)
		s.gInFlight = reg.Gauge(telemetry.MetricServiceInFlight)
		s.cAccepted = reg.Counter(telemetry.MetricServiceJobsAccepted)
		s.cRejected = reg.Counter(telemetry.MetricServiceJobsRejected)
		s.cDone = reg.Counter(telemetry.MetricServiceJobsDone)
		s.cFailed = reg.Counter(telemetry.MetricServiceJobsFailed)
		s.cSlowFiles = reg.Counter(telemetry.MetricServiceSlowFiles)
		s.hJobSecs = reg.Histogram(telemetry.MetricServiceJobSeconds, nil)
		s.hQueueWait = reg.Histogram(telemetry.MetricServiceQueueWait, nil)
		if cfg.Store != nil {
			cfg.Store.Instrument(reg)
		}
	}
	s.routes()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s.wg.Add(workers)
	for range workers {
		go s.work()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	// Each /v1 route is wrapped explicitly with its SLO instrumentation
	// (latency histogram + breach counter per route). The route string is
	// passed alongside the pattern because the mux does not expose the
	// matched pattern to handlers on our minimum Go version.
	s.handle("POST /v1/files", "/v1/files", s.handleSubmitFile)
	s.handle("POST /v1/dirs", "/v1/dirs", s.handleSubmitDir)
	s.handle("GET /v1/jobs", "/v1/jobs", s.handleListJobs)
	s.handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJobStatus)
	s.handle("DELETE /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJobCancel)
	s.handle("GET /v1/jobs/{id}/result", "/v1/jobs/{id}/result", s.handleJobResult)
	s.handle("GET /v1/jobs/{id}/trace", "/v1/jobs/{id}/trace", s.handleJobTrace)
	s.handle("GET /v1/version", "/v1/version", s.handleVersion)
	// The wait and stream endpoints stay open until the job ends; their
	// duration is not a request latency, so they get no SLO
	// instrumentation.
	s.mux.HandleFunc("GET /v1/jobs/{id}/wait", s.handleJobWait)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.Telemetry != nil && s.cfg.Telemetry.Metrics != nil {
		s.mux.Handle("GET /metrics", s.cfg.Telemetry.Metrics.Handler())
	}
	if rec := s.recorder(); rec != nil {
		s.mux.Handle("GET /debug/events", rec.Handler())
	}
}

// recorder returns the flight recorder to expose at /debug/events: the
// logger's, or one attached directly to the telemetry.
func (s *Server) recorder() *telemetry.FlightRecorder {
	if rec := s.log.Recorder(); rec != nil {
		return rec
	}
	if s.cfg.Telemetry != nil {
		return s.cfg.Telemetry.Logs
	}
	return nil
}

// handle registers an SLO-instrumented route: request latency recorded
// into webssari_http_request_seconds{route=...}, requests slower than
// the configured objective counted in webssari_slo_breaches_total.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	if s.cfg.Telemetry != nil && s.cfg.Telemetry.Metrics != nil {
		reg := s.cfg.Telemetry.Metrics
		hist := reg.Histogram(telemetry.Name(telemetry.MetricHTTPRequestSeconds, "route", route), nil)
		// Resolving the counter up front keeps the series visible on
		// /metrics at zero, before any breach happens.
		breaches := reg.Counter(telemetry.Name(telemetry.MetricSLOBreaches, "route", route))
		objective := s.cfg.LatencyObjective
		inner := h
		h = func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			inner(w, r)
			elapsed := time.Since(start)
			hist.Observe(elapsed.Seconds())
			if objective > 0 && elapsed > objective {
				breaches.Inc()
				s.log.Warn("latency objective breached",
					"route", route, "method", r.Method,
					"elapsed_ms", elapsed.Milliseconds(),
					"objective_ms", objective.Milliseconds())
			}
		}
	}
	s.mux.HandleFunc(pattern, h)
}

// work runs queued jobs one at a time until the queue is closed (Drain)
// and empty. An accepted job is run even during drain — that is the
// drain guarantee.
func (s *Server) work() {
	defer s.wg.Done()
	for j := range s.queue {
		s.gQueue.Set(int64(len(s.queue)))
		s.runJob(j)
	}
}

// Drain gracefully stops the server: new submissions are rejected with
// 503, already-accepted jobs (queued and in-flight) run to completion,
// then the workers exit. It returns ctx.Err() if the context
// expires first — jobs still running at that point keep their goroutines
// until process exit. Status/result endpoints keep answering throughout;
// Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		s.admitMu.Lock()
		close(s.queue)
		s.admitMu.Unlock()
		if s.stopWatch != nil {
			close(s.stopWatch) // watch jobs finish their round and stop
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// newJob registers a job in the history, evicting only as many of the
// oldest finished entries as the history exceeds the retention cap by.
func (s *Server) newJob(kind, target string, source []byte, dir string) *job {
	j := &job{
		ID:        fmt.Sprintf("j%d", s.nextID.Add(1)),
		Kind:      kind,
		Target:    target,
		source:    source,
		dir:       dir,
		state:     stateQueued,
		submitted: time.Now(),
		grown:     make(chan struct{}),
		done:      make(chan struct{}),
	}
	s.jobsMu.Lock()
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j.ID)
	if excess := len(s.jobOrder) - defaultRetainedJobs; excess > 0 {
		kept := s.jobOrder[:0]
		for _, id := range s.jobOrder {
			if excess > 0 {
				old := s.jobs[id]
				old.mu.Lock()
				finished := old.state == stateDone || old.state == stateFailed
				old.mu.Unlock()
				if finished {
					delete(s.jobs, id)
					excess--
					continue
				}
			}
			kept = append(kept, id)
		}
		s.jobOrder = kept
	}
	s.jobsMu.Unlock()
	return j
}

// admit enqueues a job, answering false when the queue is full or the
// server is draining.
func (s *Server) admit(j *job) (ok bool, draining bool) {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return false, true
	}
	select {
	case s.queue <- j:
		s.gQueue.Set(int64(len(s.queue)))
		s.cAccepted.Inc()
		return true, false
	default:
		s.cRejected.Inc()
		return false, false
	}
}

// jobOptions assembles the engine options one job runs under. The
// daemon-level knobs travel as one declarative webssari.Config — the
// round-trippable form the v1 API is built on — with any extra
// Config.Options appended after it (later options win).
func (s *Server) jobOptions(tel *telemetry.Telemetry, j *job) []webssari.Option {
	base := webssari.Config{
		Policy:       j.policy,
		PolicyJSON:   j.policyJSON,
		Store:        s.cfg.Store,
		StoreBackend: s.cfg.StoreBackend,
		Telemetry:    tel,
		Deadline:     s.deadline,
		Parallelism:  s.cfg.JobParallelism,
	}
	if base.Policy == "" && base.PolicyJSON == "" {
		// No per-job selection: fall back to the daemon default.
		base.Policy, base.PolicyJSON = s.cfg.Policy, s.cfg.PolicyJSON
	}
	base.Solver = s.cfg.Solver
	if j.solver != nil {
		// Field-wise override: zero fields of the job's spec keep the
		// daemon default, matching WithSolverConfig's sparse semantics.
		base.Solver = mergeSolver(base.Solver, *j.solver)
	}
	return append([]webssari.Option{webssari.WithConfig(base)}, s.cfg.Options...)
}

// mergeSolver overlays the non-zero fields of over onto base.
func mergeSolver(base, over webssari.SolverConfig) webssari.SolverConfig {
	if over.Mode != "" {
		base.Mode = over.Mode
	}
	if over.MaxConflicts != 0 {
		base.MaxConflicts = over.MaxConflicts
	}
	if over.MaxRestarts != 0 {
		base.MaxRestarts = over.MaxRestarts
	}
	return base
}

// solverConfigOf converts a wire SolverSpec into the engine's form.
func solverConfigOf(sp *api.SolverSpec) webssari.SolverConfig {
	if sp == nil {
		return webssari.SolverConfig{}
	}
	return webssari.SolverConfig{
		Mode:         webssari.SolverMode(sp.Mode),
		MaxConflicts: sp.MaxConflicts,
		MaxRestarts:  sp.MaxRestarts,
	}
}

// setSolver validates and records a job's solver override. A non-nil
// error is an admission failure (400) — unknown modes are rejected
// before the job ever queues.
func (s *Server) setSolver(j *job, sp *api.SolverSpec) error {
	if sp == nil {
		return nil
	}
	sc := solverConfigOf(sp)
	if _, err := webssari.ExportConfig(webssari.WithSolverConfig(sc)); err != nil {
		return err
	}
	j.solver = &sc
	return nil
}

// policyLabelOf derives the canonical counter label of a policy
// selection: the declared name (also for JSON policies), or fallback
// when nothing is selected.
func policyLabelOf(name, policyJSON, fallback string) string {
	if name == "" && policyJSON == "" {
		return fallback
	}
	cc, err := webssari.ExportConfig(webssari.WithConfig(webssari.Config{
		Policy: name, PolicyJSON: policyJSON,
	}))
	if err != nil || cc.Policy == "" {
		return fallback
	}
	return cc.Policy
}

// setPolicy validates and records a job's policy selection, deriving the
// canonical counter label: the declared name (also for JSON policies,
// whose wire label is their embedded name), or the daemon default's
// label when the job selects nothing. A non-nil error is an admission
// failure (400).
func (s *Server) setPolicy(j *job, name, policyJSON string) error {
	j.policy, j.policyJSON = name, policyJSON
	fallback := policyLabelOf(s.cfg.Policy, s.cfg.PolicyJSON, "default")
	if name == "" && policyJSON == "" {
		j.policyLabel = fallback
		return nil
	}
	if _, err := webssari.ExportConfig(webssari.WithConfig(webssari.Config{
		Policy: name, PolicyJSON: policyJSON,
	})); err != nil {
		return err
	}
	j.policyLabel = policyLabelOf(name, policyJSON, "default")
	return nil
}

// notePolicyJob counts one completed job against its policy label, on
// /metrics and in the JobsByPolicy snapshot.
func (s *Server) notePolicyJob(j *job) {
	label := j.policyLabel
	if label == "" {
		label = "default"
	}
	s.policyMu.Lock()
	s.jobsByPolicy[label]++
	s.policyMu.Unlock()
	if s.cfg.Telemetry != nil && s.cfg.Telemetry.Metrics != nil {
		s.cfg.Telemetry.Metrics.Counter(telemetry.Name(telemetry.MetricJobsTotal, "policy", label)).Inc()
	}
}

// JobsByPolicy snapshots the completed-job counts per policy label. The
// cluster coordinator surfaces it on GET /v1/cluster.
func (s *Server) JobsByPolicy() map[string]int64 {
	s.policyMu.Lock()
	defer s.policyMu.Unlock()
	out := make(map[string]int64, len(s.jobsByPolicy))
	for k, v := range s.jobsByPolicy {
		out[k] = v
	}
	return out
}

// runJob executes one job on the calling worker.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.mu.Lock()
	if j.canceled { // cancelled while still queued: never start
		j.mu.Unlock()
		s.failJob(j, context.Canceled)
		return
	}
	j.state = stateRunning
	j.started = time.Now()
	j.cancel = cancel
	queueWait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	s.hQueueWait.Observe(queueWait.Seconds())
	s.gInFlight.Set(s.inFlight.Add(1))
	defer func() { s.gInFlight.Set(s.inFlight.Add(-1)) }()

	// Each job records spans into a private tracer (shared metrics, own
	// trace) so GET /v1/jobs/{id}/trace can serve a per-job document; the
	// coordinator also stitches worker exports into it.
	jobTel := s.cfg.Telemetry
	if jobTel != nil {
		tr := telemetry.NewTracer()
		tr.SetLimit(maxJobTraceEvents)
		jobTel = &telemetry.Telemetry{Metrics: jobTel.Metrics, Logs: jobTel.Logs, Tracer: tr}
		j.mu.Lock()
		j.tracer = tr
		j.mu.Unlock()
	}
	ctx = telemetry.WithTelemetry(ctx, jobTel)
	// The job's execution is one causal hop below its admission: derive a
	// child span ID so downstream dispatches name the right parent.
	ctx = telemetry.WithTraceContext(ctx, j.trace.Child())
	jlog := s.log.With("job_id", j.ID, "trace_id", j.trace.TraceID)
	ctx = telemetry.WithLogger(ctx, jlog)
	jlog.Info("job started", "kind", j.Kind, "target", j.Target,
		"queue_wait_ms", queueWait.Milliseconds())
	ctx, sp := telemetry.StartRootSpan(ctx, "job", "id", j.ID, "kind", j.Kind, "target", j.Target)

	stream := NewNDJSON(j) // per-file lines accumulate on the job
	start := time.Now()
	var err error
	switch j.Kind {
	case "file":
		opts := s.jobOptions(jobTel, j)
		if j.dir != "" {
			opts = append(opts, webssari.WithDir(j.dir))
		}
		var rep *webssari.Report
		rep, err = s.runner.VerifyFile(ctx, j.source, j.Target, opts...)
		if err == nil {
			_ = stream.Encode(rep)
			s.noteSlowFile(jlog, rep)
			j.mu.Lock()
			j.fileRep = rep
			j.mu.Unlock()
		}
	case "dir":
		opts := append(s.jobOptions(jobTel, j), webssari.WithFileObserver(func(rep *webssari.Report) {
			_ = stream.Encode(rep)
			s.noteSlowFile(jlog, rep)
		}))
		incremental := s.cfg.Incremental
		if j.incremental != nil {
			incremental = *j.incremental
		}
		if incremental && (s.cfg.Store != nil || s.cfg.StoreBackend != nil) {
			opts = append(opts, webssari.WithIncremental())
		}
		if j.watch {
			err = s.runWatch(ctx, j, opts, stream)
		} else {
			var pr *webssari.ProjectReport
			pr, err = s.runner.VerifyDir(ctx, j.Target, opts...)
			if err == nil {
				j.mu.Lock()
				j.dirRep = pr
				j.rounds++
				j.mu.Unlock()
			}
		}
	default:
		err = fmt.Errorf("unknown job kind %q", j.Kind)
	}
	elapsed := time.Since(start)
	s.hJobSecs.Observe(elapsed.Seconds())
	// End the root span before publishing the terminal state: a client
	// that sees state=done and immediately downloads the trace must see
	// the complete document.
	sp.End()
	if err != nil {
		jlog.Warn("job failed", "error", err.Error(), "elapsed_ms", elapsed.Milliseconds())
		s.failJob(j, err)
		return
	}
	jlog.Info("job done", "elapsed_ms", elapsed.Milliseconds())
	// Count before publishing: a waiter woken by finishJob must find the
	// job in /metrics and JobsByPolicy.
	s.cDone.Inc()
	s.notePolicyJob(j)
	s.finishJob(j, stateDone)
}

// noteSlowFile logs (and counts) a file whose verification wall time —
// compile plus solve, as profiled by the engine — exceeded the
// configured slow-file threshold. The log line carries the job's trace
// ID through jlog, so a slow file points straight at its trace.
func (s *Server) noteSlowFile(jlog *telemetry.Logger, rep *webssari.Report) {
	if s.cfg.SlowFile <= 0 || rep == nil || rep.Profile == nil {
		return
	}
	elapsed := rep.Profile.CompileWall() + rep.Profile.SolveWall()
	if elapsed < s.cfg.SlowFile {
		return
	}
	s.cSlowFiles.Inc()
	jlog.Warn("slow file", "file", rep.File, "elapsed_ms", elapsed.Milliseconds(),
		"threshold_ms", s.cfg.SlowFile.Milliseconds(), "verdict", rep.Verdict)
}

// runWatch is the watch-mode directory job loop: verify, publish the
// round, then poll the directory's stat snapshot until it changes and
// go again. The loop ends cleanly — state done, last report retained —
// on job cancellation (DELETE) or server drain; a verification or
// snapshot error fails the job. With incremental mode on, every round
// after the first costs a plan over the snapshot plus re-verification
// of only the changed closure.
func (s *Server) runWatch(ctx context.Context, j *job, opts []webssari.Option, stream *NDJSON) error {
	interval := j.interval
	if interval <= 0 {
		interval = s.cfg.WatchInterval
	}
	if interval <= 0 {
		interval = DefaultWatchInterval
	}
	for {
		// Fingerprint before verifying: an edit racing the verification
		// triggers the next round instead of being missed.
		fp, err := webssari.SnapshotFingerprint(j.Target)
		if err != nil {
			return fmt.Errorf("snapshotting %s: %w", j.Target, err)
		}
		pr, err := s.runner.VerifyDir(ctx, j.Target, opts...)
		if err != nil {
			return err
		}
		// One summary line closes each round on the stream: the project
		// report without its per-file bodies (they streamed individually),
		// the same convention as xbmc -ndjson.
		summary := *pr
		summary.Files = nil
		_ = stream.Encode(&summary)
		j.mu.Lock()
		j.dirRep = pr
		j.rounds++
		j.mu.Unlock()

		ticker := time.NewTicker(interval)
		waiting := true
		for waiting {
			select {
			case <-s.stopWatch:
				ticker.Stop()
				return nil
			case <-ctx.Done():
				ticker.Stop()
				return nil
			case <-ticker.C:
				cur, err := webssari.SnapshotFingerprint(j.Target)
				if err != nil {
					ticker.Stop()
					return fmt.Errorf("snapshotting %s: %w", j.Target, err)
				}
				if cur != fp {
					waiting = false
				}
			}
		}
		ticker.Stop()
	}
}

// failJob marks a job failed.
func (s *Server) failJob(j *job, err error) {
	j.mu.Lock()
	j.errMsg = err.Error()
	j.mu.Unlock()
	s.cFailed.Inc()
	s.finishJob(j, stateFailed)
}

// finishJob transitions a job to a terminal state and releases stream
// followers and waiters.
func (s *Server) finishJob(j *job, state jobState) {
	j.mu.Lock()
	j.state = state
	j.finished = time.Now()
	j.wakeLocked()
	j.mu.Unlock()
	close(j.done)
}

// --- HTTP handlers ---

// decodeRequest parses a JSON request body into dst, rejecting unknown
// fields and trailing content — the v1 schema's strictness contract.
func decodeRequest(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing content after JSON body")
	}
	return nil
}

func (s *Server) handleSubmitFile(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.maxSrc+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if int64(len(body)) > s.maxSrc {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("source exceeds %d bytes", s.maxSrc))
		return
	}
	var req api.SubmitFileRequest
	if err := decodeRequest(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, "missing \"source\"")
		return
	}
	if req.Dir != "" && s.cfg.DisableDirs {
		writeError(w, http.StatusForbidden, "server-local include roots are disabled")
		return
	}
	name := req.Name
	if name == "" {
		name = "input.php"
	}
	j := s.newJob("file", name, []byte(req.Source), req.Dir)
	if err := s.setPolicy(j, req.Policy, req.PolicyJSON); err != nil {
		s.dropJob(j)
		writeError(w, http.StatusBadRequest, "invalid policy: "+err.Error())
		return
	}
	if err := s.setSolver(j, req.Solver); err != nil {
		s.dropJob(j)
		writeError(w, http.StatusBadRequest, "invalid solver spec: "+err.Error())
		return
	}
	j.trace = traceFromRequest(r)
	s.enqueue(w, j)
}

// traceFromRequest extracts the submitter's W3C trace context from the
// traceparent header, or mints a fresh one — every job has a trace ID
// whether or not the caller propagates one.
func traceFromRequest(r *http.Request) telemetry.TraceContext {
	if tc, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader)); ok {
		return tc
	}
	return telemetry.NewTraceContext()
}

func (s *Server) handleSubmitDir(w http.ResponseWriter, r *http.Request) {
	if s.cfg.DisableDirs {
		writeError(w, http.StatusForbidden, "directory submissions are disabled")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var req api.SubmitDirRequest
	if err := decodeRequest(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if req.Dir == "" {
		writeError(w, http.StatusBadRequest, "missing \"dir\"")
		return
	}
	info, err := os.Stat(req.Dir)
	if err != nil || !info.IsDir() {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("%q is not a readable directory", req.Dir))
		return
	}
	j := s.newJob("dir", req.Dir, nil, "")
	if err := s.setPolicy(j, req.Policy, req.PolicyJSON); err != nil {
		s.dropJob(j)
		writeError(w, http.StatusBadRequest, "invalid policy: "+err.Error())
		return
	}
	if err := s.setSolver(j, req.Solver); err != nil {
		s.dropJob(j)
		writeError(w, http.StatusBadRequest, "invalid solver spec: "+err.Error())
		return
	}
	j.incremental = req.Incremental
	j.watch = req.Watch
	j.trace = traceFromRequest(r)
	if req.WatchIntervalMS > 0 {
		j.interval = time.Duration(req.WatchIntervalMS) * time.Millisecond
	}
	s.enqueue(w, j)
}

// enqueue admits a job and writes the submission response.
func (s *Server) enqueue(w http.ResponseWriter, j *job) {
	ok, draining := s.admit(j)
	if draining {
		s.dropJob(j)
		// A draining daemon is gone shortly; in a cluster the load
		// balancer or retrying client should come back to whoever
		// replaces it, not hammer the drain.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if !ok {
		s.dropJob(j)
		s.log.Warn("job rejected: queue full",
			"job_id", j.ID, "trace_id", j.trace.TraceID, "kind", j.Kind, "target", j.Target)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue is full; retry later")
		return
	}
	s.log.Info("job accepted",
		"job_id", j.ID, "trace_id", j.trace.TraceID, "kind", j.Kind, "target", j.Target,
		"queued", len(s.queue))
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, api.SubmitResponse{
		SchemaV: api.Schema,
		Job:     j.ID,
		Status:  fmt.Sprintf("/v1/jobs/%s", j.ID),
		Result:  fmt.Sprintf("/v1/jobs/%s/result", j.ID),
		Stream:  fmt.Sprintf("/v1/jobs/%s/stream", j.ID),
		Trace:   fmt.Sprintf("/v1/jobs/%s/trace", j.ID),
		TraceID: j.trace.TraceID,
	})
}

// dropJob removes a job that was never admitted.
func (s *Server) dropJob(j *job) {
	s.jobsMu.Lock()
	delete(s.jobs, j.ID)
	for i, id := range s.jobOrder {
		if id == j.ID {
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			break
		}
	}
	s.jobsMu.Unlock()
}

func (s *Server) lookup(id string) *job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.jobsMu.Lock()
	ids := append([]string(nil), s.jobOrder...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.jobsMu.Unlock()
	out := make([]api.JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Submitted.After(out[k].Submitted) })
	writeJSON(w, api.JobList{SchemaV: api.Schema, Jobs: out})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status()
	st.SchemaV = api.Schema
	writeJSON(w, st)
}

// handleJobCancel stops a job: a watch job ends its loop cleanly (state
// done, last round's report retained), a running one-shot job winds
// down through context cancellation into a failed state, and a queued
// job is failed before it starts. Cancellation is asynchronous — the
// response reports the state at request time; GET /v1/jobs/{id}/wait or
// the stream gives the terminal state.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	j.canceled = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	st := j.status()
	st.SchemaV = api.Schema
	writeJSON(w, st)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, api.VersionResponse{
		SchemaV:     api.Schema,
		Version:     buildinfo.Version("webssarid"),
		Policies:    webssari.Policies(),
		SolverModes: webssari.SolverModes(),
	})
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	state, errMsg := j.state, j.errMsg
	fileRep, dirRep := j.fileRep, j.dirRep
	j.mu.Unlock()
	switch state {
	case stateQueued, stateRunning:
		writeError(w, http.StatusConflict, fmt.Sprintf("job is %s; wait for it or follow the stream", state))
		return
	case stateFailed:
		writeJSON(w, api.ResultResponse{SchemaV: api.Schema, ID: j.ID, Kind: j.Kind, Error: errMsg})
		return
	}
	if r.URL.Query().Get("text") == "1" && fileRep != nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, fileRep.String())
		return
	}
	var report any
	switch {
	case fileRep != nil:
		report = fileRep
	case dirRep != nil:
		report = dirRep
	default:
		writeError(w, http.StatusInternalServerError, "job finished without a report")
		return
	}
	raw, err := json.Marshal(report)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding report: "+err.Error())
		return
	}
	writeJSON(w, api.ResultResponse{SchemaV: api.Schema, ID: j.ID, Kind: j.Kind, Report: raw})
}

// handleJobTrace serves the job's span recording as a Chrome/Perfetto
// trace-event document. For a job run by the cluster coordinator the
// document also contains the stitched span exports of every worker that
// verified files for it — one downloadable artifact explains the whole
// distributed run. Available as soon as the job starts (a running job
// serves a partial trace) and retained with the job history.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	tr := j.tracer
	j.mu.Unlock()
	if tr == nil {
		writeError(w, http.StatusNotFound, "no trace recorded (telemetry disabled, or job not started)")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = tr.WriteDoc(w)
}

// handleJobWait answers the job's status once it is done or failed, in
// one blocking request. It returns without an answer when the caller
// goes away first, so an abandoned wait holds no goroutine.
func (s *Server) handleJobWait(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		return
	}
	st := j.status()
	st.SchemaV = api.Schema
	writeJSON(w, st)
}

// handleJobStream replays the job's lines, then follows them live until
// the job ends. A slow reader falls behind on its own cursor; it never
// loses a line and never holds up the job.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for cursor := 0; ; {
		lines, finished, grown := j.linesFrom(cursor)
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		cursor += len(lines)
		if flusher != nil {
			flusher.Flush()
		}
		if finished {
			return
		}
		select {
		case <-grown:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, api.Health{
		SchemaV:  api.Schema,
		Status:   status,
		Queued:   len(s.queue),
		InFlight: s.inFlight.Load(),
		Version:  buildinfo.Version("webssarid"),
		UptimeMS: time.Since(s.started).Milliseconds(),
	})
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
