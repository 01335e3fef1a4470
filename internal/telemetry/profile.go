package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"webssari/internal/sat"
)

// SolverProfile is the CDCL search effort of one assertion or, summed
// with Add, of a whole run.
type SolverProfile = sat.Stats

// AssertProfile is the per-assertion slice of a RunProfile: encoding
// size, stage wall time, and the solver's search effort — the
// observability counterpart of the per-assertion lines in the xbmc CLI.
type AssertProfile struct {
	Index           int           `json:"index"`
	Sink            string        `json:"sink,omitempty"`
	Site            string        `json:"site,omitempty"`
	Vars            int           `json:"vars"`
	Clauses         int           `json:"clauses"`
	Counterexamples int           `json:"counterexamples"`
	Unknown         bool          `json:"unknown,omitempty"`
	Cause           string        `json:"cause,omitempty"`
	EncodeNS        int64         `json:"encode_ns"`
	SearchNS        int64         `json:"search_ns"`
	Solver          SolverProfile `json:"solver"`
}

// StageProfile is the summed wall time of one pipeline stage.
type StageProfile struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
	Count  int64  `json:"count"`
}

// PoolProfile describes a project run's file fan-out.
type PoolProfile struct {
	// Capacity is the parallelism the run was given.
	Capacity int `json:"capacity"`
	// Acquires counts the files a worker started verifying; files it
	// served from the result store do not count.
	Acquires int64 `json:"acquires"`
	// MaxInUse is the number of workers started: Capacity, or fewer when
	// fewer files needed verifying or serving. MaxInUse/Capacity is the
	// peak utilization.
	MaxInUse int64 `json:"max_in_use"`
	// MaxWaiting is always 0: workers drain one channel of files and
	// nothing waits for a slot. It stays for readers of the JSON shape.
	MaxWaiting int64 `json:"max_waiting"`
}

// Utilization returns the peak pool utilization in [0, 1].
func (p *PoolProfile) Utilization() float64 {
	if p == nil || p.Capacity == 0 {
		return 0
	}
	return float64(p.MaxInUse) / float64(p.Capacity)
}

// IncrementalProfile summarizes one incremental VerifyDir plan: how the
// delta planner partitioned the project snapshot. Planned + Skipped
// equals the number of entry files the run reported on.
type IncrementalProfile struct {
	// Planned counts files scheduled for (re-)verification: changed
	// files, their reverse-dependency closure, files new to the graph,
	// and files whose remembered store entry had been evicted.
	Planned int `json:"planned"`
	// Skipped counts files served from the result store by remembered
	// key, without re-hashing or re-verifying anything.
	Skipped int `json:"skipped"`
	// Invalidated counts previously known files among Planned — the
	// actual delta, excluding files the graph had never seen.
	Invalidated int `json:"invalidated"`
	// Full is set when no usable dependency graph existed (first run,
	// corruption, config change) and the whole project was verified.
	Full bool `json:"full,omitempty"`
}

// ClusterProfile summarizes how a clustered project run placed its
// files. Like every other profile section it is informational only —
// stripped before byte-identical report comparisons — because placement
// never changes a verdict, only where it was computed.
type ClusterProfile struct {
	// Workers is the number of live workers when the run started.
	Workers int `json:"workers"`
	// Remote counts files verified on a worker daemon; Local counts
	// files executed in-process (degradation or deterministic replay).
	Remote int `json:"remote_files"`
	Local  int `json:"local_files,omitempty"`
	// Redispatches counts files that were re-sent to another worker
	// after their first-choice worker failed or was evicted mid-job.
	Redispatches int `json:"redispatches,omitempty"`
	// Replayed counts files re-executed locally to reproduce a
	// deterministic remote failure (a worker reported the job itself
	// failed, so the error is a property of the input, not the worker).
	Replayed int `json:"replayed,omitempty"`
	// Degraded is set when at least one file fell back to local
	// execution because no worker could take it (zero live workers, or
	// the retry budget ran out everywhere) — the run completed, but not
	// at cluster capacity.
	Degraded bool `json:"degraded,omitempty"`
}

// RunProfile is the exportable summary of one verification run — per
// file (attached to Report) or per project (attached to ProjectReport,
// where the per-file profiles are aggregated and the pool section is
// populated). It marshals under the stable "profile" JSON key so
// corpus scripts can consume timings; note its wall-clock fields are the
// one intentionally nondeterministic part of a report.
type RunProfile struct {
	// CompileWallNS and SolveWallNS are the wall times of the two engine
	// stages (front end / SAT back end) in nanoseconds.
	CompileWallNS int64 `json:"compile_wall_ns"`
	SolveWallNS   int64 `json:"solve_wall_ns"`
	// StoreHit is set on per-file profiles served whole from the on-disk
	// result store: nothing was compiled or solved, so such a profile has
	// no stage or solver data.
	StoreHit bool `json:"store_hit,omitempty"`
	// Failed is set on the per-file profile of a file whose front end
	// failed: no report carries it, only the metrics roll-up counts it.
	Failed bool `json:"-"`
	// Stages holds finer-grained per-stage wall times (parse, lower,
	// flow, rename, constraints, encode, search), sorted by name.
	Stages []StageProfile `json:"stages,omitempty"`
	// Solver sums search effort across all assertions of the run.
	Solver SolverProfile `json:"solver"`
	// Assertions is the per-assertion breakdown (per-file profiles only).
	Assertions []AssertProfile `json:"assertions,omitempty"`
	// Degraded counts degradation causes (deadline, conflict budget, CNF
	// ceiling, …) across the run.
	Degraded map[string]int64 `json:"degraded,omitempty"`
	// Files counts aggregated per-file profiles (project profiles only).
	Files int `json:"files,omitempty"`
	// Pool is populated on every project profile, and only there.
	Pool *PoolProfile `json:"pool,omitempty"`
	// Incremental is populated on project profiles of incremental runs
	// (WithIncremental): the delta planner's partition of the snapshot.
	// Like the rest of the profile it is stripped before byte-identical
	// report comparisons.
	Incremental *IncrementalProfile `json:"incremental,omitempty"`
	// Cluster is populated on project profiles of clustered runs: how
	// the coordinator placed the files across workers.
	Cluster *ClusterProfile `json:"cluster,omitempty"`
}

// CompileWall returns the front-end wall time as a Duration.
func (p *RunProfile) CompileWall() time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.CompileWallNS)
}

// SolveWall returns the back-end wall time as a Duration.
func (p *RunProfile) SolveWall() time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.SolveWallNS)
}

// AddStage accumulates d into the named stage. A zero d means the stage
// never ran (after a failed compile stage, an assertion skipped at the
// deadline or decided by the encoder) and is not counted, so the stage
// table agrees with the trace's spans.
func (p *RunProfile) AddStage(name string, d time.Duration) {
	if d > 0 {
		p.addStage(name, d.Nanoseconds(), 1)
	}
}

func (p *RunProfile) addStage(name string, wallNS, count int64) {
	for i := range p.Stages {
		if p.Stages[i].Name == name {
			p.Stages[i].WallNS += wallNS
			p.Stages[i].Count += count
			return
		}
	}
	p.Stages = append(p.Stages, StageProfile{Name: name, WallNS: wallNS, Count: count})
	sort.Slice(p.Stages, func(i, j int) bool { return p.Stages[i].Name < p.Stages[j].Name })
}

// CauseLabel reduces a degradation cause to its base constant — some
// causes (the CNF ceiling) carry a parenthesized detail suffix that
// would explode label cardinality and Degraded-map keys.
func CauseLabel(cause string) string {
	if cause == "" {
		return "unknown"
	}
	if i := strings.IndexByte(cause, ' '); i > 0 {
		return cause[:i]
	}
	return cause
}

// AddDegraded counts one degradation under the given cause.
func (p *RunProfile) AddDegraded(cause string) {
	if cause == "" {
		return
	}
	if p.Degraded == nil {
		p.Degraded = make(map[string]int64)
	}
	p.Degraded[cause]++
}

// Merge folds a per-file profile o into project profile p: wall times,
// stages, solver effort, and degradation counts accumulate; per-file
// fields (StoreHit, Assertions) are deliberately not carried over.
func (p *RunProfile) Merge(o *RunProfile) {
	if o == nil {
		return
	}
	p.CompileWallNS += o.CompileWallNS
	p.SolveWallNS += o.SolveWallNS
	p.Files++
	for _, st := range o.Stages {
		p.addStage(st.Name, st.WallNS, st.Count)
	}
	p.Solver.Add(o.Solver)
	for cause, n := range o.Degraded {
		if p.Degraded == nil {
			p.Degraded = make(map[string]int64)
		}
		p.Degraded[cause] += n
	}
}

// Record rolls a finished profile into r's series; it is the only writer
// of the engine's verification metrics. A per-file profile adds the file,
// assertion, counterexample, solver and degradation counters and its
// stage samples: one per front-end stage, and one encode and one search
// sample per assertion whose encoder and search ran. A project profile
// (one with a Pool section, which every project run carries, also over
// no files) only adds the incremental series, since its files were
// recorded as each one finished. A nil registry or profile records
// nothing and allocates nothing.
func (r *Registry) Record(p *RunProfile) {
	if r == nil || p == nil {
		return
	}
	if p.Pool != nil {
		if inc := p.Incremental; inc != nil {
			r.Counter(MetricIncrementalPlanned).Add(int64(inc.Planned))
			r.Counter(MetricIncrementalSkipped).Add(int64(inc.Skipped))
			r.Counter(MetricIncrementalInvalidated).Add(int64(inc.Invalidated))
			if inc.Full {
				r.Counter(MetricIncrementalFullRuns).Inc()
			}
		}
		return
	}
	stage := func(name string, ns int64) {
		r.Histogram(Name(MetricStageSeconds, "stage", name), nil).Observe(float64(ns) / 1e9)
	}
	for _, st := range p.Stages {
		if st.Name != "encode" && st.Name != "search" {
			stage(st.Name, st.WallNS)
		}
	}
	if p.Failed {
		r.Counter(MetricFilesFailed).Inc()
		return
	}
	var cexs int64
	for _, a := range p.Assertions {
		if a.EncodeNS > 0 {
			stage("encode", a.EncodeNS)
		}
		if a.SearchNS > 0 {
			stage("search", a.SearchNS)
		}
		cexs += int64(a.Counterexamples)
	}
	for cause, n := range p.Degraded {
		r.Counter(Name(MetricDegraded, "cause", cause)).Add(n)
	}
	r.Counter(MetricAssertionsChecked).Add(int64(len(p.Assertions)))
	r.Counter(MetricCounterexamples).Add(cexs)
	r.Counter(MetricSolverDecisions).Add(int64(p.Solver.Decisions))
	r.Counter(MetricSolverPropagations).Add(int64(p.Solver.Propagations))
	r.Counter(MetricSolverConflicts).Add(int64(p.Solver.Conflicts))
	r.Counter(MetricSolverRestarts).Add(int64(p.Solver.Restarts))
	r.Counter(MetricSolverLearnt).Add(int64(p.Solver.LearntClauses))
	r.Counter(MetricSolverDeleted).Add(int64(p.Solver.DeletedClauses))
	r.Counter(MetricFilesVerified).Inc()
}

// String renders a compact single-audience summary — what the CLIs print
// under -v.
func (p *RunProfile) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "compile %v, solve %v", p.CompileWall().Round(time.Microsecond), p.SolveWall().Round(time.Microsecond))
	if p.Files > 0 {
		fmt.Fprintf(&b, " over %d file(s)", p.Files)
	}
	if p.StoreHit {
		b.WriteString(" (served from result store)")
	}
	s := p.Solver
	fmt.Fprintf(&b, "; solver: %d decisions, %d propagations, %d conflicts, %d restarts, %d learnt",
		s.Decisions, s.Propagations, s.Conflicts, s.Restarts, s.LearntClauses)
	if p.Pool != nil {
		fmt.Fprintf(&b, "; pool: %d/%d peak workers", p.Pool.MaxInUse, p.Pool.Capacity)
	}
	if inc := p.Incremental; inc != nil {
		fmt.Fprintf(&b, "; incremental: planned %d, skipped %d, invalidated %d",
			inc.Planned, inc.Skipped, inc.Invalidated)
		if inc.Full {
			b.WriteString(" (full run)")
		}
	}
	if cl := p.Cluster; cl != nil {
		fmt.Fprintf(&b, "; cluster: %d worker(s), %d remote / %d local file(s)",
			cl.Workers, cl.Remote, cl.Local)
		if cl.Redispatches > 0 {
			fmt.Fprintf(&b, ", %d redispatched", cl.Redispatches)
		}
		if cl.Replayed > 0 {
			fmt.Fprintf(&b, ", %d replayed", cl.Replayed)
		}
		if cl.Degraded {
			b.WriteString(" (degraded)")
		}
	}
	for _, st := range p.Stages {
		fmt.Fprintf(&b, "\n  stage %-12s %12v  (×%d)", st.Name,
			time.Duration(st.WallNS).Round(time.Microsecond), st.Count)
	}
	if len(p.Degraded) > 0 {
		causes := make([]string, 0, len(p.Degraded))
		for c := range p.Degraded {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		b.WriteString("\n  degraded:")
		for _, c := range causes {
			fmt.Fprintf(&b, " %s×%d", c, p.Degraded[c])
		}
	}
	return b.String()
}
