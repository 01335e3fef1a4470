package webssari_test

// Solver-level benchmark suite: the per-assert vs shared dispatch-mode
// comparison. BENCH_solver.json records the numbers; the "Solver
// dispatch modes" section of EXPERIMENTS.md interprets them. The xBMC0.1 location-variable ablation
// that completes the suite lives in BenchmarkEncodingAblation (§3.3.1),
// with its CI guard in TestLocationVariableAblationFactor.

import (
	"fmt"
	"testing"

	"webssari"
)

// solverBenchSrc is a shared-core workload: eight conditional sinks over
// one tainted seed, so every dispatch mode pays eight hard assertions
// whose encodings overlap almost entirely.
func solverBenchSrc() []byte {
	src := "<?php\n$base = $_GET['seed'];\n"
	for i := 0; i < 8; i++ {
		src += fmt.Sprintf("if ($c%d) { $v%d = $base; } else { $v%d = 'ok'; }\n", i, i, i)
		src += fmt.Sprintf("echo $v%d;\nmysql_query($v%d);\n", i, i)
	}
	return []byte(src)
}

// BenchmarkSolverModes prices the two dispatch modes of SolverConfig
// against each other on the shared-core workload. The report text must
// stay byte-identical across modes (the differential suite pins the full
// corpus; the in-bench check keeps a miswired benchmark from recording
// numbers for a different verdict).
func BenchmarkSolverModes(b *testing.B) {
	src := solverBenchSrc()
	baseline, err := webssari.Verify(src, "bench.php")
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		opts []webssari.Option
	}{
		{"per-assert", nil},
		{"shared", []webssari.Option{webssari.WithSolverConfig(webssari.SolverConfig{Mode: webssari.SolverShared})}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var p *webssari.RunProfile
			for i := 0; i < b.N; i++ {
				rep, err := webssari.Verify(src, "bench.php", m.opts...)
				if err != nil {
					b.Fatal(err)
				}
				if rep.String() != baseline.String() {
					b.Fatalf("mode %s changed the report", m.name)
				}
				p = rep.Profile
			}
			b.ReportMetric(float64(p.Solver.Decisions), "decisions")
			b.ReportMetric(float64(p.Solver.Conflicts), "conflicts")
		})
	}
}
