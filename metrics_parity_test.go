package webssari_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webssari"
	"webssari/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the goldens under testdata/")

const metricsGolden = "testdata/metrics_parity.golden.json"

// metricCounts is the deterministic part of a registry: every counter and
// gauge value and every histogram's observation count. Histogram sums
// and buckets are wall-clock and are left out.
func metricCounts(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	for name, v := range reg.Snapshot() {
		base, _, _ := strings.Cut(name, "{")
		if strings.HasSuffix(base, "_sum") {
			continue
		}
		out[name] = v
	}
	return out
}

// checkStageCounts asserts that every webssari_stage_seconds series
// counts exactly the samples of the same stage in the project profile.
func checkStageCounts(t *testing.T, pass string, reg *telemetry.Registry, prof *webssari.RunProfile) {
	t.Helper()
	want := make(map[string]int64)
	for _, st := range prof.Stages {
		want[st.Name] = st.Count
	}
	got := make(map[string]int64)
	for name, v := range reg.Snapshot() {
		if stage, ok := strings.CutPrefix(name, telemetry.MetricStageSeconds+`_count{stage="`); ok {
			got[strings.TrimSuffix(stage, `"}`)] = int64(v)
		}
	}
	for stage := range want {
		if got[stage] != want[stage] {
			t.Errorf("%s: stage %q: /metrics counts %d samples, profile %d", pass, stage, got[stage], want[stage])
		}
	}
	for stage := range got {
		if _, ok := want[stage]; !ok {
			t.Errorf("%s: stage %q: /metrics counts %d samples, profile has none", pass, stage, got[stage])
		}
	}
}

// TestMetricsParityGolden pins the engine's /metrics series over
// examples/php: a cold-cache project run, then an incremental run over
// an empty result store. The golden was recorded before the series were
// derived from RunProfile, so a roll-up that drifts from the old
// per-site counters fails here. Regenerate with `go test -run
// TestMetricsParityGolden -update .` only for an intended change.
func TestMetricsParityGolden(t *testing.T) {
	webssari.ResetCompileCache()
	coldTel := webssari.NewTelemetry()
	cold, err := webssari.VerifyDir("examples/php",
		webssari.WithParallelism(1), webssari.WithTelemetry(coldTel))
	if err != nil {
		t.Fatal(err)
	}
	checkStageCounts(t, "cold", coldTel.Metrics, cold.Profile)

	st, err := webssari.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	incTel := webssari.NewTelemetry()
	inc, err := webssari.VerifyDir("examples/php",
		webssari.WithParallelism(1), webssari.WithTelemetry(incTel),
		webssari.WithStore(st), webssari.WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	checkStageCounts(t, "incremental", incTel.Metrics, inc.Profile)

	got := map[string]map[string]float64{
		"cold":        metricCounts(coldTel.Metrics),
		"incremental": metricCounts(incTel.Metrics),
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(metricsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for pass, series := range want {
		for name, v := range series {
			if g, ok := got[pass][name]; !ok || g != v {
				t.Errorf("%s: %s = %v (present %v), golden %v", pass, name, g, ok, v)
			}
		}
		for name, v := range got[pass] {
			if _, ok := series[name]; !ok {
				t.Errorf("%s: %s = %v is not in the golden", pass, name, v)
			}
		}
	}
}
