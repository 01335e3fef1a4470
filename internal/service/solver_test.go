package service

// Tests of the per-job solver spec: admission validation, the version
// capability advertisement, daemon-default merging, and the wire
// round-trip's verdict neutrality (a solver-spec'd job must answer
// exactly like a default one).

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"webssari"
	"webssari/internal/service/api"
)

// TestSubmitSolverSpec drives one vulnerable file through the daemon
// twice — default solver and shared-mode spec — and requires identical
// report JSON (profiles are nil on wire reports already).
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
		{"mode": "shared"},
		{"mode": "per-assert"},
	} {
		got := submit(map[string]any{"name": "page.php", "source": vulnerableSrc, "solver": spec})
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("solver spec %v changed the report:\n got %v\nwant %v", spec, got, ref)
		}
	}
}

// TestSubmitSolverSpecValidation covers rejection at admission,
// including the solver fields and mode the v1 schema no longer has:
// job bodies disallow unknown fields, so they fail with 400 rather than
// being silently ignored.
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

// TestVersionAdvertisesSolverModes pins the capability advertisement:
// clients discover the dispatch modes from /v1/version.
func TestVersionAdvertisesSolverModes(t *testing.T) {
	s := New(Config{})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := getJSON(t, ts, "/v1/version")
	if code != http.StatusOK {
		t.Fatalf("version: HTTP %d", code)
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var v api.VersionResponse
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	want := []string{"per-assert", "shared"}
	if !reflect.DeepEqual(v.SolverModes, want) {
		t.Fatalf("solver_modes = %v, want %v", v.SolverModes, want)
	}
}

// TestMergeSolver pins the field-wise overlay of per-job specs onto the
// daemon default.
func TestMergeSolver(t *testing.T) {
	base := webssari.SolverConfig{Mode: webssari.SolverShared, MaxConflicts: 100}
	over := webssari.SolverConfig{Mode: webssari.SolverPerAssert, MaxRestarts: 4}
	got := mergeSolver(base, over)
	want := webssari.SolverConfig{
		Mode:         webssari.SolverPerAssert,
		MaxConflicts: 100,
		MaxRestarts:  4,
	}
	if got != want {
		t.Fatalf("mergeSolver = %+v, want %+v", got, want)
	}
	if got := mergeSolver(base, webssari.SolverConfig{}); got != base {
		t.Fatalf("zero overlay changed the base: %+v", got)
	}
}
