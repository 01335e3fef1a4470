// Command bench is the end-to-end benchmark of the WebSSARI verifier.
//
// It generates every input from -seed, runs one workload, checks each
// verdict against an answer its generator knows, prints every metric as
// "workload metric value unit", and ends with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics and writes a Chrome trace-event
// file. Without -workload every workload runs, each in a child process of
// its own. See README.md for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one set of generated inputs and the loop that measures it.
// README.md says why each was chosen.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"corpus-cold", runCorpusCold},
	{"taint-dense", runTaintDense},
	{"edit-reverify", runEditReverify},
	{"daemon-open", runDaemonOpen},
}

// The JSON summary carries exactly e2eMetrics in an untraced run and
// exactly layerMetrics in a traced one; BENCHMARK.json names the same.
var (
	e2eMetrics   = []string{"setup_s", "files_per_s", "latency_ms", "peak_rss_mb"}
	layerMetrics = []string{
		"php.parse_ms", "ir.lower_ms", "flow.build_ms", "typestate.ms", "rename.ms",
		"constraint.ms", "cnf.encode_ms", "core.solve_ms", "core.search_ms", "fixing.ms",
		"report.ms", "walk.coverage_pct", "verify_file.p50_ms", "verify_file.p99_ms",
		"trace.overhead_pct", "ai.cmds", "constraint.checks", "cnf.vars", "cnf.clauses",
		"sat.decisions", "sat.conflicts", "cache.hits", "cache.misses",
	}
)

// sizes sets how much input each workload generates; tests shrink it.
type sizes struct {
	corpusScale float64 // corpus-cold: fraction of the §5 corpus
	taintFiles  int     // taint-dense: generated files
	editScale   float64 // edit-reverify: fraction of the §5 corpus
	daemonScale float64 // daemon-open: fraction of the §5 corpus requests are drawn from
	daemonRate  float64 // daemon-open: the open loop's arrival rate, files/s
	daemonRound int     // daemon-open: files of one closed-loop round
	daemonWalk  int     // daemon-open: requests the layer walk of a traced run visits
	setups      int     // set-ups per untraced run; setup_s is their median
}

var defaultSizes = sizes{
	corpusScale: 0.1,
	taintFiles:  400,
	editScale:   0.05,
	daemonScale: 1,
	daemonRate:  100,
	daemonRound: 300,
	daemonWalk:  1500,
	setups:      3,
}

//go:embed counts.json
var recordedCounts []byte

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs each workload in its own child process")
	seed := fs.Uint64("seed", 2004, "seed of every input generator")
	seconds := fs.Int("seconds", 20, "seconds each run measures")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "Chrome trace-event file of a traced run (default <workdir>/trace-<workload>.json)")
	workdir := fs.String("workdir", ".bench_build", "directory for generated inputs and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(*workdir, "trace-"+w.name+".json")
	}
	r := &run{
		name:    w.name,
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		size:    defaultSizes,
		workdir: *workdir,
		out:     stdout,
		log:     stderr,
	}
	printHeader(stdout, *seed)
	sum, err := r.execute(w, *traceOut)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, _ := json.Marshal(sum)
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// execute runs the workload and returns the summary of what it measured.
// A traced run also writes its spans to traceOut.
func (r *run) execute(w *workload, traceOut string) (summary, error) {
	if r.traced {
		r.tr = newTracer()
	}
	if err := w.run(r); err != nil {
		return summary{}, err
	}
	r.checkRecordedCounts(recordedCounts)
	if r.traced {
		if err := r.tr.writeJSON(traceOut); err != nil {
			return summary{}, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(r.out, "# trace %s (%d spans)\n", traceOut, len(r.tr.spans))
	}
	return r.summary()
}

// runAll runs every workload in a child process of this binary, so each
// starts with an empty compile cache and its peak RSS is its own.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// printHeader records the host shape and inputs a run depends on.
func printHeader(w io.Writer, seed uint64) {
	fmt.Fprintf(w, "# nproc %d\n# gomaxprocs %d\n# go %s\n# cpu %s\n# seed %d\n# commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), seed, commit())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the toolchain stamped into the binary; a
// build outside a git checkout has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// run is one workload run: its settings and everything it measured.
type run struct {
	name    string
	seed    uint64
	measure time.Duration
	traced  bool
	size    sizes
	workdir string
	out     io.Writer // metric lines
	log     io.Writer // diagnostics
	tr      *tracer   // spans of a traced run; nil otherwise

	metrics   map[string]jsonMetric
	attempted int
	failed    int
	counts    map[string]int64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric records and prints one measured value.
func (r *run) metric(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]jsonMetric)
	}
	r.metrics[name] = jsonMetric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "%s %s %.6g %s\n", r.name, name, v, unit)
}

// check counts one unit of work against its known answer.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintf(r.log, "bench: %s: wrong: %s\n", r.name, fmt.Sprintf(format, args...))
	}
}

// checkCounts guards the structural counts: every pass of a run must
// produce the same ones. A count's first value is recorded and printed;
// later values must equal it.
func (r *run) checkCounts(c map[string]int64) {
	if r.counts == nil {
		r.counts = make(map[string]int64)
	}
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		first, seen := r.counts[k]
		if !seen {
			r.counts[k] = c[k]
			fmt.Fprintf(r.out, "%s count.%s %d count\n", r.name, k, c[k])
			continue
		}
		r.check(c[k] == first, "count %s is %d, an earlier pass had %d", k, c[k], first)
	}
}

// checkRecordedCounts compares the run's structural counts with the ones
// recorded in counts.json for the same workload, seed and sizes.
func (r *run) checkRecordedCounts(data []byte) {
	var rec map[string]struct {
		Seed   uint64           `json:"seed"`
		Counts map[string]int64 `json:"counts"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		r.check(false, "counts.json: %v", err)
		return
	}
	want, ok := rec[r.name]
	if !ok || want.Seed != r.seed || r.size != defaultSizes {
		return
	}
	for k, v := range want.Counts {
		got, seen := r.counts[k]
		if !seen {
			continue // only a traced run walks the layers
		}
		r.check(got == v, "count %s is %d, counts.json records %d", k, got, v)
	}
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summary assembles the final JSON line: exactly the metric set of the
// run's mode, every one of which the workload must have measured.
func (r *run) summary() (summary, error) {
	names := e2eMetrics
	if r.traced {
		names = layerMetrics
	}
	s := summary{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(names)),
	}
	var missing []string
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		s.Metrics[n] = m
	}
	if len(missing) > 0 {
		return s, errors.New("metrics not measured: " + strings.Join(missing, ", "))
	}
	if s.Attempted == 0 {
		s.Attempted = 1
		s.Failed = 1
	}
	return s, nil
}

// setupMedian builds the state a run measures and times the build. The
// caller passes the outcome of its measurement to done, which tears the
// state down. After a successful untraced measurement, done records
// peak_rss_mb, then builds and tears down the state r.size.setups-1 more
// times and records the median build time as setup_s. Builds at both ends
// of the run keep one slow stretch of the host from setting setup_s; the
// peak is read before them, so only the measured set-up and measurement
// set it.
func setupMedian[T any](r *run, build func() (T, func(), error)) (state T, done func(error) error, err error) {
	var times []float64
	timed := func() (T, func(), error) {
		start := time.Now()
		s, teardown, err := build()
		times = append(times, time.Since(start).Seconds())
		return s, teardown, err
	}
	state, teardown, err := timed()
	if err != nil {
		return state, nil, err
	}
	done = func(err error) error {
		teardown()
		if err != nil || r.traced { // setup_s is an end-to-end metric: a traced run builds once
			return err
		}
		r.metric("peak_rss_mb", peakRSSMB(), "MB")
		for len(times) < r.size.setups {
			_, teardown, err := timed()
			if err != nil {
				return err
			}
			teardown()
		}
		r.metric("setup_s", median(times), "s")
		return nil
	}
	return state, done, nil
}
