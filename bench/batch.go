package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"webssari"
	"webssari/internal/corpus"
)

// answer is what a generator knows about one file without running the
// verifier. A negative count is one the generator cannot predict.
type answer struct {
	unsafe   bool
	symptoms int
	cexs     int
}

// genFile is one generated PHP entry file under a relative path.
type genFile struct {
	rel  string
	src  []byte
	want answer
}

// tree is a generated project tree and its known totals.
type tree struct {
	files      []genFile
	statements int
	symptoms   int
	groups     int // negative when the generator cannot predict it
}

// corpusTree generates the paper's §5 corpus at the given scale, one
// directory per project. Its totals come from the project profiles: each
// profile's TS count is its symptoms and its BMC count its groups.
func corpusTree(scale float64, seed uint64) *tree {
	t := &tree{}
	for i, prof := range corpus.FullCorpus(scale) {
		proj := corpus.Generate(prof, seed)
		vulnerable := make(map[string]bool, len(proj.VulnerableFiles))
		for _, name := range proj.VulnerableFiles {
			vulnerable[name] = true
		}
		for _, name := range proj.FileNames() {
			t.files = append(t.files, genFile{
				rel:  filepath.Join(fmt.Sprintf("p%03d", i), name),
				src:  proj.Sources[name],
				want: answer{unsafe: vulnerable[name], symptoms: -1, cexs: -1},
			})
		}
		t.statements += proj.Statements
		t.symptoms += prof.TS
		t.groups += prof.BMC
	}
	return t
}

// batch is a tree written under dir. Each top-level directory of the
// tree is one project.
type batch struct {
	*tree
	dir      string
	projects []string  // absolute paths, sorted
	files    []srcFile // absolute paths, sorted
	want     map[string]answer
}

func (t *tree) write(dir string) (*batch, error) {
	b := &batch{tree: t, dir: dir, want: make(map[string]answer, len(t.files))}
	seen := map[string]bool{}
	for _, f := range t.files {
		path := filepath.Join(dir, f.rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, f.src, 0o644); err != nil {
			return nil, err
		}
		b.files = append(b.files, srcFile{name: path, src: f.src})
		b.want[path] = f.want
		if project, _, _ := strings.Cut(filepath.ToSlash(f.rel), "/"); !seen[project] {
			seen[project] = true
			b.projects = append(b.projects, filepath.Join(dir, project))
		}
	}
	sort.Strings(b.projects)
	sort.Slice(b.files, func(i, j int) bool { return b.files[i].name < b.files[j].name })
	return b, nil
}

// setupTree times generating a tree, writing it to a fresh directory
// under the run's workdir and one warm-up pass over it, which grows the
// heap and fills the page cache. The warm-up's report is checked like
// any other.
func setupTree(r *run, gen func() *tree) (*batch, func(error) error, error) {
	return setupMedian(r, func() (*batch, func(), error) {
		dir, err := os.MkdirTemp(r.workdir, r.name+"-")
		if err != nil {
			return nil, nil, err
		}
		b, err := gen().write(dir)
		if err == nil {
			_, _, err = b.pass(r, nil)
		}
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return b, func() { os.RemoveAll(dir) }, nil
	})
}

// fileTimer is a FileVerifier that times every file's verification and,
// in a traced run, records it as a span.
type fileTimer struct {
	tr *tracer
	mu sync.Mutex
	ms []float64
}

func (ft *fileTimer) verify(ctx context.Context, src []byte, name string, opts ...webssari.Option) (*webssari.Report, error) {
	id := ft.tr.begin("verify_file", name, 0)
	start := time.Now()
	rep, err := webssari.VerifyContext(ctx, src, name, opts...)
	d := time.Since(start)
	ft.tr.end(id)
	ft.mu.Lock()
	ft.ms = append(ft.ms, ms(d))
	ft.mu.Unlock()
	return rep, err
}

// passResult is what one pass over every project measured.
type passResult struct {
	files       int
	wall        time.Duration
	projectMS   []float64 // each project's verification time
	maxWaiting  int64     // the worker pools' deepest queue
	utilization float64   // the worker pools' peak utilization
}

func (p *passResult) rate() float64 { return float64(p.files) / p.wall.Seconds() }

// pass verifies every project once, each as a CLI run over the project
// would: from an empty compile cache, without a result store, on one
// worker per CPU. The heap is collected first. A non-nil ft times every
// file. It checks the projects' reports and returns them merged.
func (b *batch) pass(r *run, ft *fileTimer) (*passResult, *webssari.ProjectReport, error) {
	runtime.GC()
	opts := []webssari.Option{webssari.WithParallelism(runtime.NumCPU())}
	if ft != nil {
		opts = append(opts, webssari.WithFileVerifier(ft.verify))
	}
	res := &passResult{}
	m := &webssari.ProjectReport{Dir: b.dir}
	start := time.Now()
	for _, dir := range b.projects {
		webssari.ResetCompileCache()
		t0 := time.Now()
		pr, err := webssari.VerifyDir(dir, opts...)
		if err != nil {
			return nil, nil, err
		}
		res.projectMS = append(res.projectMS, ms(time.Since(t0)))
		m.Files = append(m.Files, pr.Files...)
		m.Failures = append(m.Failures, pr.Failures...)
		m.Symptoms += pr.Symptoms
		m.Groups += pr.Groups
		m.CacheHits += pr.CacheHits
		m.CacheMisses += pr.CacheMisses
		if pool := pr.Profile.Pool; pool != nil {
			res.maxWaiting = max(res.maxWaiting, pool.MaxWaiting)
			res.utilization = max(res.utilization, pool.Utilization())
		}
	}
	res.wall = time.Since(start)
	res.files = len(m.Files)
	b.check(r, m)
	r.checkCounts(reportCounts(m, b.statements))
	return res, m, nil
}

// check matches a project report against the generator's answers: one
// unit per file plus one for the project totals.
func (b *batch) check(r *run, pr *webssari.ProjectReport) {
	for _, f := range pr.Failures {
		r.check(false, "%s failed in %s: %s", f.File, f.Stage, f.Cause)
	}
	for _, rep := range pr.Files {
		want, ok := b.want[rep.File]
		cexs := 0
		for _, a := range rep.Profile.Assertions {
			cexs += a.Counterexamples
		}
		r.check(ok && rep.Verdict == verdictOf(want.unsafe) &&
			(want.symptoms < 0 || rep.Symptoms == want.symptoms) &&
			(want.cexs < 0 || cexs == want.cexs),
			"%s: verdict %s, %d symptoms, %d counterexamples; want %+v", rep.File, rep.Verdict, rep.Symptoms, cexs, want)
	}
	for i := len(pr.Files) + len(pr.Failures); i < len(b.files); i++ {
		r.check(false, "a file is missing from the report")
	}
	r.check(pr.Symptoms == b.symptoms && (b.groups < 0 || pr.Groups == b.groups),
		"project totals: %d symptoms, %d groups; want %d, %d", pr.Symptoms, pr.Groups, b.symptoms, b.groups)
}

func verdictOf(unsafe bool) string {
	if unsafe {
		return webssari.VerdictUnsafe
	}
	return webssari.VerdictSafe
}

// reportCounts are the structural counts of a freshly verified project:
// they depend only on the inputs, never on timing. They share the layer
// walk's names, so a traced run also checks the walk against them.
func reportCounts(pr *webssari.ProjectReport, statements int) map[string]int64 {
	c := map[string]int64{
		"files":              int64(len(pr.Files)),
		"statements":         int64(statements),
		"typestate.symptoms": int64(pr.Symptoms),
		"fixing.groups":      int64(pr.Groups),
	}
	for _, rep := range pr.Files {
		for _, a := range rep.Profile.Assertions {
			c["constraint.checks"]++
			c["cnf.vars"] += int64(a.Vars)
			c["cnf.clauses"] += int64(a.Clauses)
			c["core.counterexamples"] += int64(a.Counterexamples)
			c["sat.decisions"] += int64(a.Solver.Decisions)
			c["sat.conflicts"] += int64(a.Solver.Conflicts)
		}
	}
	return c
}

func outcomes(pr *webssari.ProjectReport) map[string]outcome {
	out := make(map[string]outcome, len(pr.Files))
	for _, rep := range pr.Files {
		out[rep.File] = outcomeOf(rep)
	}
	return out
}

func runCorpusCold(r *run) error {
	return runBatch(r, func() *tree { return corpusTree(r.size.corpusScale, r.seed) })
}

func runTaintDense(r *run) error {
	return runBatch(r, func() *tree { return taintTree(r.size.taintFiles, r.seed) })
}

// runBatch measures passes over every project. An untraced run reports
// the files per second and the median time to verify one project of its
// fastest pass: every pass does the same work, so passes differ by what
// else the host ran meanwhile. A traced run times passes without and with
// spans around each file, then walks the layers.
func runBatch(r *run, gen func() *tree) (err error) {
	b, done, err := setupTree(r, gen)
	if err != nil {
		return err
	}
	defer func() { err = done(err) }()
	if !r.traced {
		ps, _, err := b.passes(r, r.measure, nil)
		if err != nil {
			return err
		}
		fastest := ps[0]
		var lat []float64
		for _, p := range ps {
			if p.wall < fastest.wall {
				fastest = p
			}
			lat = append(lat, p.projectMS...)
		}
		r.metric("files_per_s", fastest.rate(), "files/s")
		r.metric("latency_ms", median(fastest.projectMS), "ms")
		r.metric("passes", float64(len(ps)), "count")
		r.metric("pass.files_per_s_p50", medianRate(ps), "files/s")
		r.metric("latency_p50_ms", quantile(lat, 0.5), "ms")
		r.metric("latency_p75_ms", quantile(lat, 0.75), "ms")
		r.metric("latency_p99_ms", quantile(lat, 0.99), "ms")
		return nil
	}

	plain, _, err := b.passes(r, r.measure*35/100, nil)
	if err != nil {
		return err
	}
	ft := &fileTimer{tr: r.tr}
	traced, pr, err := b.passes(r, r.measure*35/100, ft)
	if err != nil {
		return err
	}
	last := traced[len(traced)-1]
	r.metric("trace.overhead_pct", 100*(medianRate(plain)/medianRate(traced)-1), "%")
	r.metric("verify_file.p50_ms", quantile(ft.ms, 0.5), "ms")
	r.metric("verify_file.p99_ms", quantile(ft.ms, 0.99), "ms")
	r.metric("cache.hits", float64(pr.CacheHits), "count")
	r.metric("cache.misses", float64(pr.CacheMisses), "count")
	r.metric("pool.max_waiting", float64(last.maxWaiting), "count")
	r.metric("pool.utilization", last.utilization, "ratio")
	matchWalk(r, layerWalk(r, b.files, b.dir), outcomes(pr))
	return nil
}

// passes runs passes for at least d, and at least one. Only the last
// pass's report is kept: every report holds all its traces.
func (b *batch) passes(r *run, d time.Duration, ft *fileTimer) ([]*passResult, *webssari.ProjectReport, error) {
	var (
		ps   []*passResult
		last *webssari.ProjectReport
	)
	deadline := time.Now().Add(d)
	for len(ps) == 0 || time.Now().Before(deadline) {
		last = nil
		p, pr, err := b.pass(r, ft)
		if err != nil {
			return nil, nil, err
		}
		ps, last = append(ps, p), pr
	}
	return ps, last, nil
}

func medianRate(ps []*passResult) float64 {
	rates := make([]float64, len(ps))
	for i, p := range ps {
		rates[i] = p.rate()
	}
	return median(rates)
}
