package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCountersConcurrent hammers one counter, gauge high-water mark, and
// histogram from many goroutines; run under -race this doubles as the
// data-race check for the atomic hot paths.
func TestCountersConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("c_total")
			g := reg.Gauge("g")
			h := reg.Histogram("h_seconds", nil)
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(int64(w*per + i))
				h.Observe(0.001)
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("c_total").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := reg.Gauge("g").Value(); got != workers*per-1 {
		t.Errorf("gauge high-water = %d, want %d", got, workers*per-1)
	}
	h := reg.Histogram("h_seconds", nil)
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got, want := h.Sum(), float64(workers*per)*0.001; got < want*0.99 || got > want*1.01 {
		t.Errorf("histogram sum = %g, want ≈ %g", got, want)
	}
}

// TestSpansConcurrent opens and closes spans from many goroutines on one
// tracer; each root span gets its own lane and no event is lost.
func TestSpansConcurrent(t *testing.T) {
	tel := New()
	ctx := WithTelemetry(context.Background(), tel)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c, root := StartRootSpan(ctx, "unit")
				_, child := StartSpan(c, "stage")
				child.SetArg("i", i)
				child.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	events := tel.Tracer.Events()
	if len(events) != 2*workers*per {
		t.Fatalf("got %d events, want %d", len(events), 2*workers*per)
	}
	lanes := map[int64]bool{}
	for _, ev := range events {
		if ev.Name == "unit" {
			lanes[ev.TID] = true
		}
	}
	if len(lanes) != workers*per {
		t.Errorf("root spans used %d lanes, want %d (one per unit)", len(lanes), workers*per)
	}
}

// TestTraceGolden pins the exact Chrome trace-event JSON: a deterministic
// clock makes timestamps reproducible, so the full output is compared
// byte-for-byte.
func TestTraceGolden(t *testing.T) {
	base := time.Unix(1000, 0)
	var ticks int64
	now := func() time.Time {
		ticks++
		return base.Add(time.Duration(ticks) * 100 * time.Microsecond)
	}
	tel := &Telemetry{Tracer: NewTracerWithClock(base, now)}
	ctx := WithTelemetry(context.Background(), tel)

	ctx, root := StartRootSpan(ctx, "verify_file", "file", "a.php") // t=100µs
	_, parse := StartSpan(ctx, "parse")                             // t=200µs
	parse.End()                                                     // t=300µs
	root.SetArg("vars", 3)
	root.End() // t=400µs

	var b strings.Builder
	if err := tel.Tracer.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	want := `{
 "traceEvents": [
  {
   "name": "parse",
   "cat": "pipeline",
   "ph": "X",
   "ts": 200,
   "dur": 100,
   "pid": 1,
   "tid": 1
  },
  {
   "name": "verify_file",
   "cat": "pipeline",
   "ph": "X",
   "ts": 100,
   "dur": 300,
   "pid": 1,
   "tid": 1,
   "args": {
    "file": "a.php",
    "vars": 3
   }
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if b.String() != want {
		t.Errorf("trace JSON mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestSpanLanes verifies the lane discipline: children inherit the
// parent's lane, root spans allocate fresh ones.
func TestSpanLanes(t *testing.T) {
	tel := New()
	ctx := WithTelemetry(context.Background(), tel)
	c1, r1 := StartRootSpan(ctx, "a")
	_, ch := StartSpan(c1, "a.child")
	ch.End()
	r1.End()
	_, r2 := StartRootSpan(ctx, "b")
	r2.End()
	events := tel.Tracer.Events()
	byName := map[string]Event{}
	for _, ev := range events {
		byName[ev.Name] = ev
	}
	if byName["a"].TID != byName["a.child"].TID {
		t.Errorf("child lane %d != parent lane %d", byName["a.child"].TID, byName["a"].TID)
	}
	if byName["a"].TID == byName["b"].TID {
		t.Errorf("independent roots share lane %d", byName["a"].TID)
	}
}

// TestNilSafety exercises every entry point with no telemetry attached —
// each must be an inert no-op.
func TestNilSafety(t *testing.T) {
	ctx := context.Background()
	got, sp := StartSpan(ctx, "x")
	if got != ctx || sp != nil {
		t.Errorf("StartSpan without telemetry: ctx changed or span non-nil")
	}
	sp.SetArg("k", 1)
	sp.End()
	if d := sp.Duration(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
	var reg *Registry
	reg.Record(&RunProfile{Stages: []StageProfile{{Name: "parse", WallNS: 1, Count: 1}}})
	NewRegistry().Record(nil)
	if reg.Counter("c") != nil || reg.Gauge("g") != nil || reg.Histogram("h", nil) != nil {
		t.Errorf("nil registry returned a live metric")
	}
	if s := reg.PrometheusText(); s != "" {
		t.Errorf("nil registry exposition = %q", s)
	}
	var tr *Tracer
	if tr.Events() != nil {
		t.Errorf("nil tracer has events")
	}
	WithTelemetry(ctx, nil) // must not panic and must be a no-op
	if From(WithTelemetry(ctx, nil)) != nil {
		t.Errorf("attaching nil telemetry produced a non-nil From")
	}
}

// TestDisabledFastPathAllocs pins the uninstrumented cost: resolving
// spans from a bare context and rolling a profile into a nil registry
// must not allocate.
func TestDisabledFastPathAllocs(t *testing.T) {
	ctx := context.Background()
	prof := &RunProfile{
		Stages:     []StageProfile{{Name: "parse", WallNS: 1, Count: 1}},
		Assertions: []AssertProfile{{EncodeNS: 1, SearchNS: 1, Counterexamples: 1}},
		Degraded:   map[string]int64{"deadline": 1},
	}
	var reg *Registry
	allocs := testing.AllocsPerRun(100, func() {
		_, sp := StartSpan(ctx, "parse")
		sp.End()
		reg.Record(prof)
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry allocates %.1f per op, want 0", allocs)
	}
}

// TestPrometheusText checks the exposition format: TYPE lines, labeled
// series, and histogram bucket expansion.
func TestPrometheusText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricFilesVerified).Add(3)
	reg.Counter(Name(MetricDegraded, "cause", "deadline")).Inc()
	reg.Gauge(MetricCacheEntries).Set(7)
	reg.Histogram(Name(MetricStageSeconds, "stage", "parse"), nil).Observe(0.002)
	text := reg.PrometheusText()
	for _, want := range []string{
		"# TYPE webssari_files_verified_total counter",
		"webssari_files_verified_total 3",
		`webssari_degraded_total{cause="deadline"} 1`,
		"# TYPE webssari_compile_cache_entries gauge",
		"webssari_compile_cache_entries 7",
		"# TYPE webssari_stage_seconds histogram",
		`webssari_stage_seconds_bucket{stage="parse",le="+Inf"} 1`,
		`webssari_stage_seconds_sum{stage="parse"} 0.002`,
		`webssari_stage_seconds_count{stage="parse"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

// TestServe spins the exposition server on an ephemeral port and scrapes
// /metrics and /debug/vars.
func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricSolverConflicts).Add(42)
	srv, err := Serve(":0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return body
	}
	if body := get("/metrics"); !strings.Contains(string(body), "webssari_solver_conflicts_total 42") {
		t.Errorf("/metrics missing solver counter:\n%s", body)
	}
	var vars map[string]any
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	telv, ok := vars["telemetry"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars has no telemetry section: %v", vars)
	}
	if telv[MetricSolverConflicts] != 42.0 {
		t.Errorf("telemetry snapshot conflicts = %v, want 42", telv[MetricSolverConflicts])
	}
}

// TestNameRoundTrip pins the label encoding both directions.
func TestNameRoundTrip(t *testing.T) {
	n := Name("base_seconds", "stage", "parse", "file", "a.php")
	if n != `base_seconds{stage="parse",file="a.php"}` {
		t.Errorf("Name = %q", n)
	}
	base, labels := splitName(n)
	if base != "base_seconds" || labels != `stage="parse",file="a.php"` {
		t.Errorf("splitName = %q, %q", base, labels)
	}
	if CauseLabel("deadline exceeded after 3s") != "deadline" {
		t.Errorf("CauseLabel did not strip detail")
	}
	if CauseLabel("") != "unknown" {
		t.Errorf("CauseLabel empty = %q", CauseLabel(""))
	}
}

// TestRecordRollsUpProfile maps a per-file and a project profile onto
// the engine's series: every counter, each stage sample, and the split
// between the per-file and the project sections.
func TestRecordRollsUpProfile(t *testing.T) {
	reg := NewRegistry()
	file := &RunProfile{
		Stages: []StageProfile{
			{Name: "encode", WallNS: 99, Count: 3},
			{Name: "parse", WallNS: 2e6, Count: 1},
			{Name: "search", WallNS: 99, Count: 1},
		},
		Solver: SolverProfile{Decisions: 5, Propagations: 6, Conflicts: 7, Restarts: 1, LearntClauses: 2, DeletedClauses: 3},
		Assertions: []AssertProfile{
			{EncodeNS: 10, SearchNS: 20, Counterexamples: 2},
			{EncodeNS: 10},  // decided by the encoder: no search
			{Unknown: true}, // skipped at the deadline: no encode
			{Reused: true},  // reused: neither
			{EncodeNS: 10, SearchNS: 5, Counterexamples: 1},
		},
		Degraded: map[string]int64{"deadline": 1},
	}
	reg.Record(file)
	reg.Record(&RunProfile{Failed: true, Stages: []StageProfile{{Name: "parse", WallNS: 1, Count: 1}}})
	reg.Record(&RunProfile{
		Files:       2,
		Stages:      []StageProfile{{Name: "parse", WallNS: 1, Count: 2}},
		Cache:       &CacheProfile{Hits: 1, Misses: 2, Evictions: 3, Stale: 4, Entries: 5},
		Incremental: &IncrementalProfile{Planned: 2, Skipped: 3, Invalidated: 1, Full: true, ReusedAsserts: 4},
	})
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		MetricFilesVerified:                                  1,
		MetricFilesFailed:                                    1,
		MetricAssertionsChecked:                              5,
		MetricCounterexamples:                                3,
		MetricSolverDecisions:                                5,
		MetricSolverPropagations:                             6,
		MetricSolverConflicts:                                7,
		MetricSolverRestarts:                                 1,
		MetricSolverLearnt:                                   2,
		MetricSolverDeleted:                                  3,
		Name(MetricDegraded, "cause", "deadline"):            1,
		Name(MetricStageSeconds+"_count", "stage", "parse"):  2,
		Name(MetricStageSeconds+"_count", "stage", "encode"): 3,
		Name(MetricStageSeconds+"_count", "stage", "search"): 2,
		MetricCacheHits:                                      1,
		MetricCacheMisses:                                    2,
		MetricCacheEvictions:                                 3,
		MetricCacheStale:                                     4,
		MetricCacheEntries:                                   5,
		MetricIncrementalPlanned:                             2,
		MetricIncrementalSkipped:                             3,
		MetricIncrementalInvalidated:                         1,
		MetricIncrementalReusedAsserts:                       4,
		MetricIncrementalFullRuns:                            1,
	} {
		if snap[name] != want {
			t.Errorf("%s = %v, want %v", name, snap[name], want)
		}
	}
	if got, want := snap[Name(MetricStageSeconds+"_sum", "stage", "search")], 25e-9; got != want {
		t.Errorf("search seconds = %v, want %v (per-assertion samples, not the stage row)", got, want)
	}
}

// TestRunProfileMerge checks project-level aggregation of per-file
// profiles.
func TestRunProfileMerge(t *testing.T) {
	a := &RunProfile{CompileWallNS: 100, SolveWallNS: 10}
	a.AddStage("parse", 40*time.Nanosecond)
	a.AddDegraded("deadline")
	b := &RunProfile{CompileWallNS: 50, SolveWallNS: 5}
	b.AddStage("parse", 60*time.Nanosecond)
	var total RunProfile
	total.Merge(a)
	total.Merge(b)
	if total.CompileWallNS != 150 || total.SolveWallNS != 15 || total.Files != 2 {
		t.Errorf("merge walls/files = %d/%d/%d", total.CompileWallNS, total.SolveWallNS, total.Files)
	}
	if len(total.Stages) != 1 || total.Stages[0].WallNS != 100 || total.Stages[0].Count != 2 {
		t.Errorf("merge stages = %+v", total.Stages)
	}
	if total.Degraded["deadline"] != 1 {
		t.Errorf("merge degraded = %v", total.Degraded)
	}
	if s := total.String(); !strings.Contains(s, "over 2 file(s)") {
		t.Errorf("String() = %q", s)
	}
}
