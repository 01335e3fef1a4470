package service

// Tests of the per-job solver spec: admission validation, the version
// response, daemon-default merging, and the wire round-trip (a job whose
// budgets never trip must answer exactly like a default one).

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"webssari"
)

// TestSubmitSolverSpec drives one vulnerable file through the daemon
// with the default solver and with budgets that never trip, and requires
// identical report JSON (profiles are nil on wire reports already).
func TestSubmitSolverSpec(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(body map[string]any) map[string]any {
		t.Helper()
		code, sub := postJSON(t, ts, "/v1/files", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d (%v)", code, sub)
		}
		id, _ := sub["job"].(string)
		st := waitDone(t, ts, id)
		if st["state"] != string(stateDone) {
			t.Fatalf("job finished %v: %v", st["state"], st["error"])
		}
		code, res := getJSON(t, ts, "/v1/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("result: HTTP %d", code)
		}
		rep, _ := res["report"].(map[string]any)
		if rep == nil {
			t.Fatalf("no report in %v", res)
		}
		delete(rep, "profile")
		return rep
	}

	ref := submit(map[string]any{"name": "page.php", "source": vulnerableSrc})
	for _, spec := range []map[string]any{
		{"max_conflicts": 1 << 20},
		{"max_restarts": 1 << 20},
	} {
		got := submit(map[string]any{"name": "page.php", "source": vulnerableSrc, "solver": spec})
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("solver spec %v changed the report:\n got %v\nwant %v", spec, got, ref)
		}
	}
}

// TestSubmitSolverSpecValidation covers rejection at admission of the
// solver fields the v1 schema no longer has: job bodies disallow unknown
// fields, so they fail with 400 rather than being silently ignored.
func TestSubmitSolverSpecValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []map[string]any{
		{"mode": "quantum"},
		{"mode": "portfolio"},
		{"portfolio": 3},
		{"warm_start": true},
	}
	for _, spec := range cases {
		code, body := postJSON(t, ts, "/v1/files", map[string]any{
			"name": "p.php", "source": safeSrc, "solver": spec,
		})
		if code != http.StatusBadRequest {
			t.Errorf("solver spec %v: HTTP %d (%v), want 400", spec, code, body)
		}
	}
	// Unknown fields inside the spec fail like any other typo.
	code, _ := postJSON(t, ts, "/v1/files", map[string]any{
		"name": "p.php", "source": safeSrc,
		"solver": map[string]any{"lanes": 3},
	})
	if code != http.StatusBadRequest {
		t.Errorf("unknown solver field: HTTP %d, want 400", code)
	}
}

// TestSubmitSolverModeRejected pins the removal of the solver mode: a
// file or directory job that still names one is refused with 400, and
// no job is created or queued.
func TestSubmitSolverModeRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for path, body := range map[string]map[string]any{
		"/v1/files": {"name": "p.php", "source": safeSrc, "solver": map[string]any{"mode": "shared"}},
		"/v1/dirs":  {"dir": t.TempDir(), "solver": map[string]any{"mode": "shared"}},
	} {
		code, resp := postJSON(t, ts, path, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s with a solver mode: HTTP %d (%v), want 400", path, code, resp)
		}
	}
	s.jobsMu.Lock()
	jobs := len(s.jobs)
	s.jobsMu.Unlock()
	if jobs != 0 || len(s.queue) != 0 {
		t.Fatalf("%d job(s) created, %d queued; want none", jobs, len(s.queue))
	}
}

// TestVersionHasNoSolverModes: the version response no longer advertises
// solver dispatch modes.
func TestVersionHasNoSolverModes(t *testing.T) {
	s := New(Config{})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := getJSON(t, ts, "/v1/version")
	if code != http.StatusOK {
		t.Fatalf("version: HTTP %d", code)
	}
	if _, ok := body["solver_modes"]; ok {
		t.Fatalf("version response carries solver_modes: %v", body)
	}
	if _, ok := body["policies"]; !ok {
		t.Fatalf("version response lacks policies: %v", body)
	}
}

// TestMergeSolver pins the field-wise overlay of per-job specs onto the
// daemon default.
func TestMergeSolver(t *testing.T) {
	base := webssari.SolverConfig{MaxConflicts: 100, MaxRestarts: 2}
	over := webssari.SolverConfig{MaxRestarts: 4}
	got := mergeSolver(base, over)
	want := webssari.SolverConfig{MaxConflicts: 100, MaxRestarts: 4}
	if got != want {
		t.Fatalf("mergeSolver = %+v, want %+v", got, want)
	}
	if got := mergeSolver(base, webssari.SolverConfig{}); got != base {
		t.Fatalf("zero overlay changed the base: %+v", got)
	}
}
