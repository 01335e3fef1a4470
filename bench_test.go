package webssari_test

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§5), plus the ablations DESIGN.md calls out. Each benchmark
// prints the same rows/series the paper reports via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the evaluation end to end. EXPERIMENTS.md records
// paper-vs-measured values.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"webssari"
	"webssari/client"
	"webssari/internal/cluster"
	"webssari/internal/core"
	"webssari/internal/corpus"
	"webssari/internal/fixing"
	"webssari/internal/flow"
	"webssari/internal/ir"
	"webssari/internal/php/parser"
	"webssari/internal/prelude"
	"webssari/internal/sat"
	"webssari/internal/service"
)

// corpusScale reads the statement-scale factor for corpus benchmarks from
// WEBSSARI_CORPUS_SCALE (default 0.01; 1.0 reproduces the paper's
// 1,140,091-statement corpus in full).
func corpusScale() float64 {
	if v := os.Getenv("WEBSSARI_CORPUS_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.01
}

// BenchmarkFigure10 regenerates the paper's Figure 10: per-project TS- and
// BMC-reported error counts over the 38 acknowledged projects. The paper
// reports totals 980 (TS) and 578 (BMC), a 41.0% instrumentation
// reduction; the printed rows of the table sum to 969/578 (40.4%), which
// is what the synthetic corpus reproduces exactly.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var totals corpus.Totals
		for _, prof := range corpus.Figure10() {
			prof.Files = maxInt(2, prof.TS/2)
			prof.Statements = prof.TS*4 + 60
			proj := corpus.Generate(prof, 2004)
			stats, err := corpus.Run(proj, nil, core.Options{})
			if err != nil {
				b.Fatalf("%s: %v", prof.Name, err)
			}
			if stats.TS != prof.TS || stats.BMC != prof.BMC {
				b.Fatalf("%s: measured %d/%d, want %d/%d",
					prof.Name, stats.TS, stats.BMC, prof.TS, prof.BMC)
			}
			totals.Accumulate(stats)
		}
		if i == 0 {
			b.ReportMetric(float64(totals.TS), "TS-errors")
			b.ReportMetric(float64(totals.BMC), "BMC-groups")
			b.ReportMetric(totals.Reduction()*100, "reduction-%")
		}
	}
}

// BenchmarkCorpusAggregate regenerates the §5 aggregate numbers (230
// projects, 11,848 files, 1,140,091 statements, 69 vulnerable projects)
// at WEBSSARI_CORPUS_SCALE and runs both analyses over every file.
func BenchmarkCorpusAggregate(b *testing.B) {
	scale := corpusScale()
	profiles := corpus.FullCorpus(scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var totals corpus.Totals
		for _, prof := range profiles {
			proj := corpus.Generate(prof, 2004)
			stats, err := corpus.Run(proj, nil, core.Options{})
			if err != nil {
				b.Fatalf("%s: %v", prof.Name, err)
			}
			totals.Accumulate(stats)
		}
		if i == 0 {
			b.ReportMetric(float64(totals.Projects), "projects")
			b.ReportMetric(float64(totals.Files), "files")
			b.ReportMetric(float64(totals.Statements), "statements")
			b.ReportMetric(float64(totals.VulnerableProjects), "vuln-projects")
			b.ReportMetric(float64(totals.VulnerableFiles), "vuln-files")
			b.ReportMetric(float64(totals.TS), "TS-errors")
			b.ReportMetric(float64(totals.BMC), "BMC-groups")
			b.ReportMetric(scale, "scale")
		}
	}
}

// BenchmarkEncodingAblation compares the xBMC0.1 location-variable
// encoding (§3.3.1) against the xBMC1.0 renaming encoding (§3.3.2) on
// programs with a growing variable count |X|: the naive encoding pays
// 2·|X| variables per assignment (frame axioms across unrolled steps),
// the renaming encoding pays 2.
func BenchmarkEncodingAblation(b *testing.B) {
	pre := prelude.Default()
	for _, n := range []int{4, 8, 16, 24} {
		src := taintChainSrc(n)
		prog, errs := flow.BuildSource("chain.php", []byte(src), flow.Options{Prelude: pre})
		if len(errs) != 0 {
			b.Fatalf("build: %v", errs)
		}
		asserts := prog.Asserts()
		target := asserts[len(asserts)-1]

		b.Run(fmt.Sprintf("xBMC0.1-naive/vars=%d", n), func(b *testing.B) {
			var encVars, encClauses int
			for i := 0; i < b.N; i++ {
				violated, enc, err := core.VerifyAssertNaive(prog, target, sat.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !violated {
					b.Fatal("chain must be violated")
				}
				encVars, encClauses = enc.F.NumVars, len(enc.F.Clauses)
			}
			b.ReportMetric(float64(encVars), "cnf-vars")
			b.ReportMetric(float64(encClauses), "cnf-clauses")
		})
		b.Run(fmt.Sprintf("xBMC1.0-renamed/vars=%d", n), func(b *testing.B) {
			var encVars, encClauses int
			for i := 0; i < b.N; i++ {
				res, err := core.VerifyAI(prog, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last := res.PerAssert[len(res.PerAssert)-1]
				if len(last.Counterexamples) == 0 {
					b.Fatal("chain must be violated")
				}
				encVars, encClauses = last.EncodedVars, last.EncodedClauses
			}
			b.ReportMetric(float64(encVars), "cnf-vars")
			b.ReportMetric(float64(encClauses), "cnf-clauses")
		})
	}
}

// BenchmarkEnumerationModes measures the §3.3.2 enumeration ablations:
// blocking on the full BN assignment (the paper's literal loop) vs
// trace-relevant blocking (the default), and the incremental restriction
// that assumes prior assertions hold.
func BenchmarkEnumerationModes(b *testing.B) {
	// Branches nested inside rarely-taken arms: full-BN blocking assigns
	// them even on paths that never reach them, so it enumerates the cross
	// product where trace-relevant blocking enumerates one counterexample
	// per distinct trace.
	src := `<?php
if ($a) { if ($b) { if ($c) { $pad = 1; } } }
if ($d) { if ($e) { $pad2 = 2; } }
if ($mode) { $x = $_GET['q']; } else { $x = $_POST['r']; }
echo $x;
echo $x;
mysql_query($x);
`
	modes := []struct {
		name string
		opts core.Options
	}{
		{"trace-relevant-blocking", core.Options{}},
		{"full-BN-blocking", core.Options{BlockAllBN: true}},
		{"assume-prior-asserts", core.Options{AssumePriorAsserts: true}},
	}
	pre := prelude.Default()
	prog, errs := flow.BuildSource("enum.php", []byte(src), flow.Options{Prelude: pre})
	if len(errs) != 0 {
		b.Fatalf("build: %v", errs)
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			var cexs int
			var solved uint64
			for i := 0; i < b.N; i++ {
				res, err := core.VerifyAI(prog, m.opts)
				if err != nil {
					b.Fatal(err)
				}
				cexs = len(res.Counterexamples())
				solved = 0
				for _, ar := range res.PerAssert {
					solved += ar.SolverStats.Decisions
				}
			}
			b.ReportMetric(float64(cexs), "counterexamples")
			b.ReportMetric(float64(solved), "decisions")
		})
	}
}

// verifySource compiles and solves one PHP source text: core.Compile
// followed by core.Solve. Recoverable parse errors are returned beside
// the result.
func verifySource(name string, src []byte, opts core.Options) (*core.Result, []error) {
	p, _, errs := core.Compile(name, src, opts)
	if p == nil {
		return nil, errs
	}
	return core.Solve(context.Background(), p, opts), errs
}

// BenchmarkFixingSetStrategies compares the three fixing-set strategies of
// §3.3.3–3.3.4 — naive (one guard per violating variable, the TS-era
// behaviour), Chvátal greedy, and exact branch-and-bound — on the
// Figure 7 shape scaled up.
func BenchmarkFixingSetStrategies(b *testing.B) {
	pre := prelude.Default()
	pre.AddSink("DoSQL", pre.Lattice().Top(), 1)
	src := surveyorSrc(10, 4) // 10 roots × 4 sinks = 40 symptoms
	opts := core.Options{Flow: flow.Options{Prelude: pre}}
	res, errs := verifySource("fix.php", []byte(src), opts)
	if len(errs) != 0 {
		b.Fatalf("verify: %v", errs)
	}
	analysis := fixing.Analyze(res)

	b.Run("naive", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n = len(analysis.NaiveFix())
		}
		b.ReportMetric(float64(n), "patches")
	})
	b.Run("greedy", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n = len(analysis.GreedyMinimalFix())
		}
		b.ReportMetric(float64(n), "patches")
	})
	b.Run("exact", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n = len(analysis.ExactMinimalFix(128))
		}
		b.ReportMetric(float64(n), "patches")
	})
}

// BenchmarkSolverFeatures ablates the CDCL features (VSIDS, clause
// learning, restarts) on an unsatisfiable pigeonhole instance, the
// standard clause-learning stress test.
func BenchmarkSolverFeatures(b *testing.B) {
	configs := []struct {
		name string
		opts sat.Options
	}{
		{"full-cdcl", sat.Options{}},
		{"no-vsids", sat.Options{DisableVSIDS: true}},
		{"no-learning", sat.Options{DisableLearning: true, MaxConflicts: 200000}},
		{"no-restarts", sat.Options{DisableRestarts: true}},
	}
	instances := []struct {
		name string
		cnf  func() *sat.CNF
	}{
		{"pigeonhole-7-6", func() *sat.CNF { return pigeonholeCNF(7, 6) }},
		{"random-3sat", func() *sat.CNF { return random3SAT(140, 596, 99) }},
	}
	for _, inst := range instances {
		for _, cfg := range configs {
			b.Run(inst.name+"/"+cfg.name, func(b *testing.B) {
				var conflicts uint64
				for i := 0; i < b.N; i++ {
					f := inst.cnf()
					s := sat.NewWith(cfg.opts)
					f.LoadInto(s)
					res := s.Solve()
					if res == sat.Unknown {
						b.Skip("conflict budget exhausted (no-learning config)")
					}
					conflicts = s.Stats().Conflicts
				}
				b.ReportMetric(float64(conflicts), "conflicts")
			})
		}
	}
}

// random3SAT generates a fixed-seed random 3-SAT instance near the phase
// transition (ratio ≈ 4.26).
func random3SAT(nVars, nClauses int, seed uint64) *sat.CNF {
	f := &sat.CNF{NumVars: nVars}
	state := seed
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := 0; i < nClauses; i++ {
		cl := make([]sat.Lit, 3)
		for j := range cl {
			v := int(next()%uint64(nVars)) + 1
			cl[j] = sat.MkLit(v, next()%2 == 0)
		}
		f.AddClause(cl...)
	}
	return f
}

// BenchmarkLoopUnroll measures the cost of deeper loop deconstruction
// (§3.2 extension): AI size and verification time as the unroll factor
// grows.
func BenchmarkLoopUnroll(b *testing.B) {
	src := `<?php
$acc = 'seed';
while ($more) {
    $prev = $acc;
    $acc = $_GET['page'] . $prev;
    echo $prev;
}
mysql_query($acc);
`
	pre := prelude.Default()
	for _, unroll := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("unroll=%d", unroll), func(b *testing.B) {
			var size, cexs int
			for i := 0; i < b.N; i++ {
				opts := core.Options{Flow: flow.Options{Prelude: pre, LoopUnroll: unroll}}
				res, errs := verifySource("loop.php", []byte(src), opts)
				if len(errs) != 0 {
					b.Fatalf("verify: %v", errs)
				}
				size = res.AI.Size()
				cexs = len(res.Counterexamples())
			}
			b.ReportMetric(float64(size), "ai-size")
			b.ReportMetric(float64(cexs), "counterexamples")
		})
	}
}

// BenchmarkVerifyPipeline measures the end-to-end verifier on a mid-size
// generated file (parse → filter → rename → encode → solve → analyze).
func BenchmarkVerifyPipeline(b *testing.B) {
	proj := corpus.Generate(corpus.Profile{
		Name: "bench", TS: 12, BMC: 4, Files: 1, Statements: 400,
	}, 7)
	var src []byte
	for _, s := range proj.Sources {
		src = s
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := webssari.Verify(src, "bench.php")
		if err != nil {
			b.Fatal(err)
		}
		if rep.Symptoms != 12 || rep.Groups != 4 {
			b.Fatalf("unexpected counts %d/%d", rep.Symptoms, rep.Groups)
		}
	}
}

// BenchmarkPatchPipeline measures verify+patch+re-verify.
func BenchmarkPatchPipeline(b *testing.B) {
	src := []byte(surveyorSrc(4, 4))
	pre := []webssari.Option{webssari.WithSink("DoSQL", 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		patched, rep, err := webssari.Patch(src, "patch.php", pre...)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Safe {
			b.Fatal("input must be vulnerable")
		}
		rep2, err := webssari.Verify(patched, "patch.php", pre...)
		if err != nil {
			b.Fatal(err)
		}
		if !rep2.Safe {
			b.Fatal("patched output must verify safe")
		}
	}
}

// BenchmarkSATSolver measures the raw CDCL engine on a satisfiable
// structured instance.
func BenchmarkSATSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := pigeonholeCNF(12, 12) // satisfiable: one pigeon per hole
		s := sat.New()
		f.LoadInto(s)
		if s.Solve() != sat.Sat {
			b.Fatal("PHP(12,12) must be SAT")
		}
	}
}

// ------------------------------------------------------------- generators

// taintChainSrc builds a chain of n branch-guarded copies: every
// assignment depends on a nondeterministic condition, so neither encoding
// can constant-fold it away, exposing the raw per-assignment cost.
func taintChainSrc(n int) string {
	src := "<?php\n$v0 = $_GET['x'];\n"
	for i := 1; i < n; i++ {
		src += fmt.Sprintf("if ($c%d) { $v%d = $v%d; } else { $v%d = 'safe'; }\n", i, i, i-1, i)
	}
	src += fmt.Sprintf("echo $v%d;\n", n-1)
	return src
}

func surveyorSrc(roots, sinksPerRoot int) string {
	src := "<?php\n"
	for r := 0; r < roots; r++ {
		src += fmt.Sprintf("$r%d = $_GET['p%d'];\n", r, r)
		for s := 0; s < sinksPerRoot; s++ {
			src += fmt.Sprintf("$q%d_%d = \"SELECT %d WHERE k=$r%d\";\nDoSQL($q%d_%d);\n",
				r, s, s, r, r, s)
		}
	}
	return src
}

func pigeonholeCNF(pigeons, holes int) *sat.CNF {
	f := &sat.CNF{}
	at := make([][]int, pigeons)
	for p := range at {
		at[p] = make([]int, holes)
		for h := range at[p] {
			at[p][h] = f.NewVar()
		}
		cl := make([]sat.Lit, holes)
		for h := range at[p] {
			cl[h] = sat.Lit(at[p][h])
		}
		f.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				f.AddClause(sat.Lit(-at[p1][h]), sat.Lit(-at[p2][h]))
			}
		}
	}
	return f
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkParallelVerifyDir compares whole-project verification at
// parallelism 1 against a saturated worker pool over the same on-disk
// corpus. Every run pays the full front-end cost; the speedup is bounded
// by GOMAXPROCS (reported as a metric so single-CPU CI baselines read
// correctly).
func BenchmarkParallelVerifyDir(b *testing.B) {
	dir := b.TempDir()
	proj := corpus.Generate(corpus.Profile{
		Name: "parbench", TS: 16, BMC: 6, Files: 10, Statements: 600,
	}, 2004)
	for _, name := range proj.FileNames() {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, proj.Sources[name], 0o644); err != nil {
			b.Fatal(err)
		}
	}
	for _, jobs := range []int{1, runtime.GOMAXPROCS(0), 8} {
		b.Run(fmt.Sprintf("j=%d", jobs), func(b *testing.B) {
			var vuln int
			for i := 0; i < b.N; i++ {
				pr, err := webssari.VerifyDir(dir, webssari.WithParallelism(jobs))
				if err != nil {
					b.Fatal(err)
				}
				vuln = pr.VulnerableFiles
			}
			b.ReportMetric(float64(vuln), "vuln-files")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
	// The same saturated run with a live metrics registry and tracer
	// attached bounds the fully instrumented cost of a project sweep.
	b.Run("j=8+telemetry", func(b *testing.B) {
		var vuln int
		for i := 0; i < b.N; i++ {
			pr, err := webssari.VerifyDir(dir,
				webssari.WithParallelism(8), webssari.WithTelemetry(webssari.NewTelemetry()))
			if err != nil {
				b.Fatal(err)
			}
			vuln = pr.VulnerableFiles
		}
		b.ReportMetric(float64(vuln), "vuln-files")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	})
}

// BenchmarkClusterVerifyDir prices cluster mode against a plain local
// run over the bundled examples/php corpus: the local engine, a
// 1-worker cluster (pure dispatch overhead), and a 3-worker cluster.
// Workers are real service daemons behind httptest servers in this
// process, so on a single-CPU host the cluster cannot be faster than
// local — the numbers bound the HTTP dispatch tax per file.
func BenchmarkClusterVerifyDir(b *testing.B) {
	dir := filepath.Join("examples", "php")
	ctx := context.Background()

	b.Run("local", func(b *testing.B) {
		var vuln int
		for i := 0; i < b.N; i++ {
			pr, err := webssari.VerifyDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			vuln = pr.VulnerableFiles
		}
		b.ReportMetric(float64(vuln), "vuln-files")
	})

	for _, workers := range []int{1, 3} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := cluster.New(cluster.Config{
				// No agents heartbeat in this benchmark; a huge interval
				// keeps the eviction loop out of the measurement.
				HeartbeatInterval: time.Hour,
			})
			defer c.Close()
			coordTS := httptest.NewServer(c.Handler())
			defer coordTS.Close()
			cl := client.New(coordTS.URL)
			for w := 0; w < workers; w++ {
				ts := httptest.NewServer(service.New(service.Config{}).Handler())
				defer ts.Close()
				if _, err := cl.RegisterWorker(ctx, client.RegisterWorkerRequest{
					Addr: ts.URL, Name: fmt.Sprintf("bench-w%d", w),
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var remote int
			for i := 0; i < b.N; i++ {
				pr, err := c.VerifyDir(ctx, dir)
				if err != nil {
					b.Fatal(err)
				}
				if pr.Profile.Cluster.Degraded {
					b.Fatal("benchmark run degraded to local execution")
				}
				remote = pr.Profile.Cluster.Remote
			}
			b.ReportMetric(float64(remote), "remote-files")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// BenchmarkCompileStages measures the front end's cost with the typed
// flow IR in the middle (parse → lower → BuildUnit) against the legacy
// direct-AST walk (parse → BuildAST) it replaced, plus lowering alone,
// over the bundled examples/php corpus. A full core.Compile run reports
// the per-stage wall-time split (parse/lower/flow/rename/constraints)
// via b.ReportMetric; BENCH_compile.json records the numbers.
func BenchmarkCompileStages(b *testing.B) {
	dir := filepath.Join("examples", "php")
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	type file struct {
		name string
		src  []byte
	}
	var files []file
	var total int64
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".php" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		files = append(files, file{filepath.Join(dir, e.Name()), src})
		total += int64(len(src))
	}
	fopts := flow.Options{Prelude: prelude.Default(), Dir: dir, Loader: os.ReadFile}

	b.Run("lower-only", func(b *testing.B) {
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			for _, f := range files {
				if unit, _ := ir.LowerSource(f.name, f.src); unit == nil {
					b.Fatalf("nil unit for %s", f.name)
				}
			}
		}
	})
	b.Run("legacy-ast-flow", func(b *testing.B) {
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			for _, f := range files {
				res := parser.Parse(f.name, f.src)
				if _, err := flow.BuildAST(res.File, fopts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("ir-flow", func(b *testing.B) {
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			for _, f := range files {
				res := parser.Parse(f.name, f.src)
				if _, err := flow.Build(res.File, fopts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("full-compile", func(b *testing.B) {
		b.SetBytes(total)
		var stats core.CompileStats
		for i := 0; i < b.N; i++ {
			stats = core.CompileStats{}
			for _, f := range files {
				prog, cs, errs := core.Compile(f.name, f.src, core.Options{Flow: fopts})
				if prog == nil {
					b.Fatalf("compile %s: %v", f.name, errs)
				}
				stats.ParseNS += cs.ParseNS
				stats.LowerNS += cs.LowerNS
				stats.FlowNS += cs.FlowNS
				stats.RenameNS += cs.RenameNS
				stats.ConstraintsNS += cs.ConstraintsNS
			}
		}
		b.ReportMetric(float64(stats.ParseNS), "parse-ns")
		b.ReportMetric(float64(stats.LowerNS), "lower-ns")
		b.ReportMetric(float64(stats.FlowNS), "flow-ns")
		b.ReportMetric(float64(stats.RenameNS), "rename-ns")
		b.ReportMetric(float64(stats.ConstraintsNS), "constraints-ns")
	})
}
