package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySizes keep every workload to a fraction of a second.
var tinySizes = sizes{
	corpusScale: 0.003,
	taintFiles:  40,
	editScale:   0.003,
	daemonScale: 0.03,
	daemonRate:  400,
	daemonRound: 30,
	daemonWalk:  60,
	setups:      1,
}

// TestWorkloadsSmoke runs every workload untraced and traced at a tiny
// size: each must match its known answers and print every metric the
// JSON summary of its mode carries.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name + map[bool]string{false: "/e2e", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				dir := t.TempDir()
				r := &run{
					name: w.name, seed: 11, measure: 150 * time.Millisecond, traced: traced,
					size: tinySizes, workdir: dir, out: &out, log: io.Discard,
				}
				tracePath := filepath.Join(dir, "trace.json")
				sum, err := r.execute(&w, tracePath)
				if err != nil {
					t.Fatal(err)
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d", sum.Attempted, sum.Failed)
				}
				names := e2eMetrics
				if traced {
					names = layerMetrics
					checkTrace(t, tracePath)
				}
				if len(sum.Metrics) != len(names) {
					t.Errorf("summary has %d metrics, want %d", len(sum.Metrics), len(names))
				}
				for _, n := range names {
					if !strings.Contains(out.String(), w.name+" "+n+" ") {
						t.Errorf("metric %s not printed", n)
					}
				}
				entries, _ := os.ReadDir(dir)
				for _, e := range entries {
					if e.Name() != "trace.json" {
						t.Errorf("%s left behind", e.Name())
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONNamesMetrics checks that BENCHMARK.json lists the
// workloads and, in order, the metrics the JSON summaries carry.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) string {
		var out []string
		for _, n := range ns {
			out = append(out, n.Name)
		}
		return strings.Join(out, " ")
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	for _, c := range []struct{ what, got, want string }{
		{"workloads", names(doc.Workloads), strings.Join(ws, " ")},
		{"end_to_end", names(doc.EndToEnd), strings.Join(e2eMetrics, " ")},
		{"per_layer", names(doc.PerLayer), strings.Join(layerMetrics, " ")},
	} {
		if c.got != c.want {
			t.Errorf("BENCHMARK.json %s: %s; the benchmark has %s", c.what, c.got, c.want)
		}
	}
}

// checkTrace loads a trace file as Chrome trace-event JSON.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Name == "" || e.Dur < 0 || e.Args["trace_id"] == "" {
			t.Fatalf("malformed event %+v", e)
		}
	}
}

// TestSetupMedian checks that an untraced run builds its state
// r.size.setups times, one build alive at a time, and records setup_s
// only after a successful measurement; a traced run builds once.
func TestSetupMedian(t *testing.T) {
	for _, tc := range []struct {
		traced     bool
		measureErr error
		builds     int
		recorded   bool
	}{
		{false, nil, 3, true},
		{false, io.EOF, 1, false},
		{true, nil, 1, false},
	} {
		r := &run{name: "w", traced: tc.traced, size: sizes{setups: 3}, out: io.Discard}
		builds, alive := 0, 0
		_, done, err := setupMedian(r, func() (int, func(), error) {
			builds++
			alive++
			if alive > 1 {
				t.Errorf("%+v: %d states alive at once", tc, alive)
			}
			return builds, func() { alive-- }, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := done(tc.measureErr); err != tc.measureErr {
			t.Errorf("%+v: done returned %v", tc, err)
		}
		_, recorded := r.metrics["setup_s"]
		if builds != tc.builds || alive != 0 || recorded != tc.recorded {
			t.Errorf("%+v: %d builds, %d alive, setup_s recorded %v", tc, builds, alive, recorded)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.add("file", "f", 0, tr.t0, tr.t0.Add(10*time.Millisecond))
	tr.add("parse", "f", root, tr.t0.Add(1*time.Millisecond), tr.t0.Add(4*time.Millisecond))
	tr.add("solve", "f", root, tr.t0.Add(4*time.Millisecond), tr.t0.Add(9*time.Millisecond))
	self := tr.selfTimes()
	if self["file"] != 2*time.Millisecond || self["parse"] != 3*time.Millisecond || self["solve"] != 5*time.Millisecond {
		t.Fatalf("self times %v", self)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input")
	}
}
