package webssari_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"webssari"
)

const reportIdentityGolden = "testdata/report_identity.golden"

// renderIdentity renders the deterministic part of a project run: each
// file's text report followed by its JSON report with the profile (the
// only wall-clock part) removed.
func renderIdentity(t *testing.T, pr *webssari.ProjectReport) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, f := range pr.Files {
		r := *f
		r.Profile = nil
		data, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "--- text %s\n%s--- json %s\n%s\n", f.File, f.String(), f.File, data)
	}
	for _, fail := range pr.Failures {
		fmt.Fprintf(&b, "--- failure %s: %s: %s\n", fail.File, fail.Stage, fail.Cause)
	}
	return b.Bytes()
}

// TestReportIdentityGolden pins the text and JSON reports, byte for byte,
// over the branchy fixtures under testdata/branchy and examples/php, for
// every built-in policy. Each (directory, policy) pair is verified at
// parallelism 1 and 2; both runs must render identically, and that
// rendering must match the golden. The fixtures
// are shaped like the taint-dense benchmark (conditionals with
// sanitizing else arms ahead of several sinks, many traces per sink).
// Three of them have paths through branch IDs of 10 and above, and one
// nests conditionals in then-arms, so one sink's trace keys differ in
// length: the golden tells the lexicographic trace order apart from one
// that puts shorter keys first. (Branch "+10" sorting before "+9" is
// pinned by TestCounterexampleKeyEquivalenceOrder in internal/core.)
// Regenerate with `go test -run
// TestReportIdentityGolden -update .` only for an intended change.
func TestReportIdentityGolden(t *testing.T) {
	var got bytes.Buffer
	for _, dir := range []string{"testdata/branchy", "examples/php"} {
		for _, pol := range webssari.Policies() {
			var first []byte
			for _, par := range []int{1, 2} {
				pr, err := webssari.VerifyDir(dir, webssari.WithPolicy(pol), webssari.WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				out := renderIdentity(t, pr)
				if first == nil {
					first = out
					continue
				}
				if !bytes.Equal(out, first) {
					t.Errorf("%s policy %s: parallelism %d renders differently from parallelism 1", dir, pol, par)
				}
			}
			fmt.Fprintf(&got, "=== %s policy=%s\n", dir, pol)
			got.Write(first)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(reportIdentityGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(reportIdentityGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("report identity differs from %s at line %d:\n got: %s\nwant: %s",
					reportIdentityGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("report identity differs from %s in length: got %d lines, want %d",
			reportIdentityGolden, len(gl), len(wl))
	}
}
