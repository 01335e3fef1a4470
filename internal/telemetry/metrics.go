package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric naming scheme: `webssari_<subsystem>_<unit-or-noun>[_total]`,
// Prometheus conventions. Labels are encoded into the name with Name()
// (`base{k="v"}`), so the registry stays a flat map and the hot path a
// single atomic add. The constants below are the names the engine emits;
// call sites and tests share them so renames cannot drift.
const (
	MetricFilesVerified      = "webssari_files_verified_total"
	MetricFilesFailed        = "webssari_files_failed_total"
	MetricAssertionsChecked  = "webssari_assertions_checked_total"
	MetricCounterexamples    = "webssari_counterexamples_total"
	MetricSolverDecisions    = "webssari_solver_decisions_total"
	MetricSolverPropagations = "webssari_solver_propagations_total"
	MetricSolverConflicts    = "webssari_solver_conflicts_total"
	MetricSolverRestarts     = "webssari_solver_restarts_total"
	MetricSolverLearnt       = "webssari_solver_learnt_clauses_total"
	MetricSolverDeleted      = "webssari_solver_deleted_clauses_total"
	MetricCacheHits          = "webssari_compile_cache_hits_total"
	MetricCacheMisses        = "webssari_compile_cache_misses_total"
	MetricCacheEvictions     = "webssari_compile_cache_evictions_total"
	MetricCacheStale         = "webssari_compile_cache_stale_total"
	MetricCacheEntries       = "webssari_compile_cache_entries"
	MetricStageSeconds       = "webssari_stage_seconds"  // histogram, label stage
	MetricDegraded           = "webssari_degraded_total" // counter, label cause

	// Tier-2 (on-disk result store) series, mirrored live by
	// store.Store.Instrument.
	MetricStoreHits        = "webssari_store_hits_total"
	MetricStoreMisses      = "webssari_store_misses_total"
	MetricStorePuts        = "webssari_store_puts_total"
	MetricStoreCorrupt     = "webssari_store_corrupt_total"
	MetricStoreStale       = "webssari_store_stale_total"
	MetricStoreGCEvictions = "webssari_store_gc_evictions_total"
	MetricStoreEntries     = "webssari_store_entries"
	MetricStoreBytes       = "webssari_store_bytes"

	// Incremental re-verification (delta planner) series: how many files
	// the planner scheduled for verification, how many it served from the
	// store without re-verifying, how many previously known files it
	// invalidated (changed content, changed include, appeared include),
	// and how many runs degraded to a full (non-incremental) pass.
	MetricIncrementalPlanned     = "webssari_incremental_planned_total"
	MetricIncrementalSkipped     = "webssari_incremental_skipped_total"
	MetricIncrementalInvalidated = "webssari_incremental_invalidated_total"
	MetricIncrementalFullRuns    = "webssari_incremental_full_runs_total"

	// Verification-service (webssarid) series.
	MetricServiceQueueDepth   = "webssari_service_queue_depth"
	MetricServiceInFlight     = "webssari_service_in_flight"
	MetricServiceJobsAccepted = "webssari_service_jobs_accepted_total"
	MetricServiceJobsRejected = "webssari_service_jobs_rejected_total"
	MetricServiceJobsDone     = "webssari_service_jobs_completed_total"
	MetricServiceJobsFailed   = "webssari_service_jobs_failed_total"
	MetricServiceJobSeconds   = "webssari_service_job_seconds" // histogram
	// MetricJobsTotal counts completed jobs per security policy
	// (Name(MetricJobsTotal, "policy", "ssrf"); "default" = no policy).
	MetricJobsTotal = "webssari_jobs_total" // counter, label policy

	// SLO instrumentation. Request latency is a histogram family labeled
	// by route (Name(MetricHTTPRequestSeconds, "route", "/v1/files"));
	// breaches count requests slower than the daemon's configured latency
	// objective, again per route. Queue wait is the admission-to-start
	// delay of a job; slow files count per-file verifications beyond the
	// slow-file threshold (each also logged with its trace ID).
	MetricHTTPRequestSeconds = "webssari_http_request_seconds"       // histogram, label route
	MetricSLOBreaches        = "webssari_slo_breaches_total"         // counter, label route
	MetricServiceQueueWait   = "webssari_service_queue_wait_seconds" // histogram
	MetricServiceSlowFiles   = "webssari_service_slow_files_total"

	// Cluster-coordinator series. Per-worker health is a labeled gauge
	// family (Name(MetricClusterWorkerUp, "worker", id) — 1 while live, 0
	// after eviction or deregistration); the counters record dispatch
	// outcomes: every remote per-file dispatch attempt, attempts that
	// failed transiently, files re-dispatched to another worker after
	// their first-choice worker died or tripped, breaker trips, runs that
	// degraded to local execution, and the local/remote split of files.
	MetricClusterWorkersLive      = "webssari_cluster_workers_live"
	MetricClusterWorkerUp         = "webssari_cluster_worker_up" // gauge, label worker
	MetricClusterRegistrations    = "webssari_cluster_registrations_total"
	MetricClusterHeartbeats       = "webssari_cluster_heartbeats_total"
	MetricClusterEvictions        = "webssari_cluster_evictions_total"
	MetricClusterDispatches       = "webssari_cluster_dispatches_total"
	MetricClusterDispatchFailures = "webssari_cluster_dispatch_failures_total"
	MetricClusterRedispatches     = "webssari_cluster_redispatches_total"
	MetricClusterBreakerTrips     = "webssari_cluster_breaker_trips_total"
	MetricClusterDegradedRuns     = "webssari_cluster_degraded_runs_total"
	MetricClusterLocalFiles       = "webssari_cluster_local_files_total"
	MetricClusterRemoteFiles      = "webssari_cluster_remote_files_total"
	// MetricClusterDispatchRTT observes the wall time of each remote
	// dispatch attempt (submit → result), successful or not.
	MetricClusterDispatchRTT = "webssari_cluster_dispatch_rtt_seconds" // histogram
)

// Name encodes label pairs into a metric name: Name("x_seconds",
// "stage", "parse") → `x_seconds{stage="parse"}`. The exposition writer
// understands the encoding, so labeled series scrape correctly.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// splitName separates a Name()-encoded metric name into its base family
// name and raw label string (without braces, "" when unlabeled).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// CounterMetric is a monotonically increasing counter with an atomic hot
// path. All methods are nil-safe no-ops, which is how disabled telemetry
// costs nothing at the call site.
type CounterMetric struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored).
func (c *CounterMetric) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *CounterMetric) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *CounterMetric) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// GaugeMetric is a settable instantaneous value. Nil-safe.
type GaugeMetric struct {
	v atomic.Int64
}

// Set stores v.
func (g *GaugeMetric) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (either sign).
func (g *GaugeMetric) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is greater (a lock-free high-water
// mark).
func (g *GaugeMetric) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *GaugeMetric) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultDurationBuckets are the histogram bounds (seconds) used when no
// explicit buckets are given: 10µs … 10s, roughly ×4 per step, matched
// to the spread between a cache-hit compile and a budget-bounded solve.
var DefaultDurationBuckets = []float64{
	1e-5, 4e-5, 1.6e-4, 6.4e-4, 2.56e-3, 1.024e-2, 4.096e-2, 0.164, 0.655, 2.62, 10.5,
}

// HistogramMetric is a fixed-bucket histogram; observations, the running
// sum, and the count are all atomics. Nil-safe.
type HistogramMetric struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *HistogramMetric {
	if len(bounds) == 0 {
		bounds = DefaultDurationBuckets
	}
	return &HistogramMetric{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *HistogramMetric) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		want := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, want) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *HistogramMetric) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *HistogramMetric) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry interns metrics by name. Lookup takes a mutex; the returned
// metric's operations are lock-free, so call sites that update in a loop
// should resolve once and reuse. A nil *Registry resolves every lookup
// to nil (a no-op metric).
type Registry struct {
	mu     sync.Mutex
	counts map[string]*CounterMetric
	gauges map[string]*GaugeMetric
	hists  map[string]*HistogramMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*CounterMetric),
		gauges: make(map[string]*GaugeMetric),
		hists:  make(map[string]*HistogramMetric),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *CounterMetric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &CounterMetric{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *GaugeMetric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &GaugeMetric{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (nil = DefaultDurationBuckets) on first use.
// Bounds are fixed by the first caller; later callers share the series.
func (r *Registry) Histogram(name string, bounds []float64) *HistogramMetric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every scalar series (counters and gauges; histograms
// contribute _count and _sum entries) as a name→value map — the expvar
// view of the registry.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counts)+len(r.gauges)+2*len(r.hists))
	for name, c := range r.counts {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = float64(g.Value())
	}
	for name, h := range r.hists {
		base, labels := splitName(name)
		out[seriesName(base+"_count", labels)] = float64(h.Count())
		out[seriesName(base+"_sum", labels)] = h.Sum()
	}
	return out
}

// seriesName re-attaches a raw label string to a (possibly suffixed)
// base name.
func seriesName(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}
