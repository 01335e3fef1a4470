// Package api defines the versioned wire types of the webssarid
// HTTP/JSON interface. Every response body carries `"schema": "v1"`;
// request bodies reject unknown fields, so client typos fail loudly
// instead of being silently ignored. The daemon (internal/service) and
// the Go client (package client) share these types, and the schema
// constant is the compatibility contract between them: additive changes
// keep "v1", breaking changes bump it.
package api

import (
	"encoding/json"
	"time"
)

// Schema is the wire-format version stamped into every response.
const Schema = "v1"

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states: queued → running → done | failed.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == StateDone || s == StateFailed }

// SolverSpec is a job's solver configuration — the wire form of
// webssari.SolverConfig, carried under the "solver" key of both submit
// bodies. Zero fields keep the daemon's defaults. Any field outside this
// struct is rejected at admission (400): job bodies are decoded with
// unknown fields disallowed.
type SolverSpec struct {
	// MaxConflicts / MaxRestarts cap SAT effort per solver call
	// (0 = daemon default).
	MaxConflicts uint64 `json:"max_conflicts,omitempty"`
	MaxRestarts  uint64 `json:"max_restarts,omitempty"`
}

// SubmitFileRequest is the POST /v1/files body.
type SubmitFileRequest struct {
	// Name labels the source in reports (defaults to "input.php").
	Name string `json:"name,omitempty"`
	// Source is the PHP text to verify.
	Source string `json:"source"`
	// Dir, when set, roots include resolution at a server-local
	// directory. Rejected when the daemon disables directory access.
	Dir string `json:"dir,omitempty"`
	// Policy selects a built-in security policy by name for this job
	// (see VersionResponse.Policies); empty keeps the daemon's default
	// trust environment. Unknown names are rejected (400).
	Policy string `json:"policy,omitempty"`
	// PolicyJSON carries a complete custom policy declaration instead;
	// it wins over Policy when both are set.
	PolicyJSON string `json:"policy_json,omitempty"`
	// Solver overrides the daemon's solver configuration for this job
	// (nil keeps the daemon defaults).
	Solver *SolverSpec `json:"solver,omitempty"`
}

// SubmitDirRequest is the POST /v1/dirs body.
type SubmitDirRequest struct {
	// Dir is a server-local directory to verify recursively.
	Dir string `json:"dir"`
	// Incremental overrides the daemon's default delta-verification
	// setting for this job; nil keeps the server default. Requires the
	// daemon to run with a result store to have any effect.
	Incremental *bool `json:"incremental,omitempty"`
	// Watch keeps the job alive after the first verification: the daemon
	// polls the directory snapshot and re-verifies on every change,
	// streaming each round's per-file reports plus a summary line over
	// the job's NDJSON stream, until the job is cancelled (DELETE) or the
	// server drains.
	Watch bool `json:"watch,omitempty"`
	// WatchIntervalMS is the snapshot poll interval in milliseconds
	// (0 = server default).
	WatchIntervalMS int `json:"watch_interval_ms,omitempty"`
	// Policy / PolicyJSON select the security policy for this job, as in
	// SubmitFileRequest.
	Policy     string `json:"policy,omitempty"`
	PolicyJSON string `json:"policy_json,omitempty"`
	// Solver overrides the daemon's solver configuration for this job
	// (nil keeps the daemon defaults), as in SubmitFileRequest.
	Solver *SolverSpec `json:"solver,omitempty"`
}

// SubmitResponse answers an accepted submission (HTTP 202).
type SubmitResponse struct {
	SchemaV string `json:"schema"`
	Job     string `json:"job"`
	Status  string `json:"status"`
	Result  string `json:"result"`
	Stream  string `json:"stream"`
	// Trace is the URL of the job's Chrome/Perfetto trace document.
	Trace string `json:"trace,omitempty"`
	// TraceID is the job's distributed trace ID — taken from the
	// submitter's `traceparent` header when present, minted otherwise.
	TraceID string `json:"trace_id,omitempty"`
}

// JobStatus is one job's status rendering. SchemaV is set on top-level
// responses (GET /v1/jobs/{id}) and empty inside JobList entries.
type JobStatus struct {
	SchemaV   string     `json:"schema,omitempty"`
	ID        string     `json:"id"`
	Kind      string     `json:"kind"`
	Target    string     `json:"target"`
	State     JobState   `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	Verdict   string     `json:"verdict,omitempty"`
	// Watch marks a watch-mode job; Rounds counts its completed
	// verification rounds.
	Watch  bool `json:"watch,omitempty"`
	Rounds int  `json:"rounds,omitempty"`
	// TraceID is the job's distributed trace ID; every span and log line
	// of the job (on the coordinator and on workers) carries it.
	TraceID string `json:"trace_id,omitempty"`
}

// JobList is the GET /v1/jobs response (newest first).
type JobList struct {
	SchemaV string      `json:"schema"`
	Jobs    []JobStatus `json:"jobs"`
}

// ResultResponse is the GET /v1/jobs/{id}/result response. Report is
// the raw webssari.Report (file jobs) or webssari.ProjectReport (dir
// jobs) JSON; typed accessors live in the client package.
type ResultResponse struct {
	SchemaV string          `json:"schema"`
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	Error   string          `json:"error,omitempty"`
	Report  json.RawMessage `json:"report,omitempty"`
}

// EnvelopeContentType labels a file job's result envelope
// (webssari.EncodeResult), the GET /v1/jobs/{id}/result?envelope=1
// answer. A report the envelope cannot hold is answered as a failed
// job's ResultResponse instead.
const EnvelopeContentType = "application/vnd.webssari.envelope"

// VersionResponse is the GET /v1/version response.
type VersionResponse struct {
	SchemaV string `json:"schema"`
	// Version is the daemon's buildinfo banner.
	Version string `json:"version"`
	// Policies lists the built-in security policies jobs may select.
	Policies []string `json:"policies,omitempty"`
}

// Health is the GET /healthz response.
type Health struct {
	SchemaV  string `json:"schema"`
	Status   string `json:"status"`
	Queued   int    `json:"queued"`
	InFlight int64  `json:"inflight"`
	// Version is the daemon's buildinfo banner; UptimeMS is how long the
	// service has been up.
	Version  string `json:"version,omitempty"`
	UptimeMS int64  `json:"uptime_ms"`
}

// ErrorResponse is the body of every non-2xx JSON answer.
type ErrorResponse struct {
	SchemaV string `json:"schema"`
	Error   string `json:"error"`
}

// --- Cluster coordination (coordinator mode of webssarid) ---

// RegisterWorkerRequest is the POST /v1/cluster/workers body a worker
// daemon sends to join the cluster.
type RegisterWorkerRequest struct {
	// Addr is the worker's advertised base URL
	// (e.g. "http://10.0.0.7:8722") — the address the coordinator
	// dispatches jobs to, which may differ from the listen address
	// behind NAT or in containers.
	Addr string `json:"addr"`
	// Name is an optional human-readable label shown in cluster status.
	Name string `json:"name,omitempty"`
	// Fingerprint summarizes the worker's verdict-shaping configuration.
	// When both sides set one, the coordinator rejects a mismatch (409):
	// a worker with different analysis options would silently break the
	// cluster's byte-identical-verdicts invariant.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// RegisterWorkerResponse acknowledges a registration.
type RegisterWorkerResponse struct {
	SchemaV string `json:"schema"`
	// Worker is the coordinator-assigned worker ID, used in heartbeat
	// and deregistration paths.
	Worker string `json:"worker"`
	// HeartbeatIntervalMS is the heartbeat cadence the coordinator
	// expects; missing several in a row gets the worker evicted.
	HeartbeatIntervalMS int `json:"heartbeat_interval_ms"`
}

// Ack is the minimal success body of state-changing cluster calls
// (heartbeat, deregistration).
type Ack struct {
	SchemaV string `json:"schema"`
	Status  string `json:"status"`
}

// WorkerStatus is one worker's row in ClusterStatus.
type WorkerStatus struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	Addr string `json:"addr"`
	// Live is true while the worker heartbeats; an evicted or
	// deregistered worker disappears from the listing instead.
	Live bool `json:"live"`
	// LastHeartbeatMS is how long ago the last heartbeat arrived.
	LastHeartbeatMS int64 `json:"last_heartbeat_ms"`
	// EvictInMS is the time remaining before the coordinator evicts this
	// worker if no further heartbeat arrives (0 = eviction imminent) —
	// the at-a-glance signal for spotting near-eviction workers.
	EvictInMS int64 `json:"evict_in_ms"`
	// Breaker is the worker's circuit-breaker state
	// ("closed" | "open" | "half-open").
	Breaker string `json:"breaker"`
	// Dispatches and Failures count per-file dispatch attempts routed to
	// this worker and how many of them failed.
	Dispatches int64 `json:"dispatches"`
	Failures   int64 `json:"failures,omitempty"`
}

// ClusterStatus is the GET /v1/cluster response.
type ClusterStatus struct {
	SchemaV string         `json:"schema"`
	Workers []WorkerStatus `json:"workers"`
	// Live counts currently registered workers.
	Live int `json:"live"`
	// Evictions, Redispatches, and DegradedRuns count over the
	// coordinator's lifetime; /metrics reads the same counters.
	Evictions    int64 `json:"evictions"`
	Redispatches int64 `json:"redispatches"`
	DegradedRuns int64 `json:"degraded_runs"`
	// JobsByPolicy counts completed jobs per security policy over the
	// daemon's lifetime ("default" = no policy selected), read from the
	// webssari_jobs_total series; absent without telemetry.
	JobsByPolicy map[string]int64 `json:"jobs_by_policy,omitempty"`
}
