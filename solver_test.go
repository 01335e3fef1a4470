package webssari_test

// Tests of the solver configuration surface (SolverConfig, the search
// switches and the CNF ceilings of ResourceLimits), plus the report
// helpers the other example-corpus suites share.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webssari"
	"webssari/internal/sat"
)

// stripped returns the canonical comparison form of a report: the JSON
// encoding with the profile (the one intentionally nondeterministic
// section) removed, plus the rendered text, which is deterministic and
// compared separately.
func stripped(t *testing.T, rep *webssari.Report) (string, string) {
	t.Helper()
	clone := *rep
	clone.Profile = nil
	data, err := json.Marshal(&clone)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(data), rep.String()
}

// examplePHPFiles lists the bundled corpus.
func examplePHPFiles(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("examples", "php"))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".php") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		t.Fatal("no example PHP files found")
	}
	return files
}

// TestSolverModesByteIdentical sweeps the example corpus and the branchy
// fixtures under every built-in policy and asserts that reports do not
// depend on how the CDCL search runs. With VSIDS, clause learning or
// restarts switched off the search finds an assertion's counterexamples
// in another order (on the branchy fixtures it does); the canonical
// trace-key order must still render the default report byte for byte.
func TestSolverModesByteIdentical(t *testing.T) {
	policies := []string{"default", "xss-context", "ssrf"}
	searches := map[string]sat.Options{
		"no-vsids":    {DisableVSIDS: true},
		"no-learning": {DisableLearning: true},
		"no-restarts": {DisableRestarts: true},
	}
	branchy, err := filepath.Glob(filepath.Join("testdata", "branchy", "*.php"))
	if err != nil {
		t.Fatal(err)
	}
	type input struct{ sub, name string }
	var inputs []input
	for _, file := range examplePHPFiles(t) {
		inputs = append(inputs, input{file, "examples/php/" + file})
	}
	for _, path := range branchy {
		inputs = append(inputs, input{"branchy/" + filepath.Base(path), filepath.ToSlash(path)})
	}
	for _, in := range inputs {
		src, err := os.ReadFile(in.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range policies {
			t.Run(pol+"/"+in.sub, func(t *testing.T) {
				ref, err := webssari.Verify(src, in.name, webssari.WithPolicy(pol))
				if err != nil {
					t.Fatalf("default Verify: %v", err)
				}
				refJSON, refText := stripped(t, ref)
				for search, o := range searches {
					rep, err := webssari.Verify(src, in.name, webssari.WithPolicy(pol), webssari.WithSearchOptions(o))
					if err != nil {
						t.Fatalf("%s Verify: %v", search, err)
					}
					gotJSON, gotText := stripped(t, rep)
					if gotJSON != refJSON {
						t.Errorf("%s report diverges from the default:\n got %s\nwant %s", search, gotJSON, refJSON)
					}
					if gotText != refText {
						t.Errorf("%s text diverges from the default:\n got %q\nwant %q", search, gotText, refText)
					}
				}
			})
		}
	}
}

// TestSolverConfigOptionValidation pins the API surface of the solver
// configuration: the zero SolverConfig is a no-op, not an error, and a
// budget that never trips leaves the report as it is.
func TestSolverConfigOptionValidation(t *testing.T) {
	src := []byte("<?php echo $_GET['q'];\n")
	ref, err := webssari.Verify(src, "t.php")
	if err != nil {
		t.Fatal(err)
	}
	refJSON, refText := stripped(t, ref)
	for _, sc := range []webssari.SolverConfig{{}, {MaxConflicts: 1 << 20, MaxRestarts: 1 << 20}} {
		rep, err := webssari.Verify(src, "t.php", webssari.WithSolverConfig(sc))
		if err != nil {
			t.Fatalf("%+v: %v", sc, err)
		}
		if gotJSON, gotText := stripped(t, rep); gotJSON != refJSON || gotText != refText {
			t.Errorf("%+v changed the report:\n got %s\nwant %s", sc, gotJSON, refJSON)
		}
	}
}

// TestCNFCeilingsIncomplete checks that the CNF resource ceilings reach
// the report. Under a 2-variable or a 2-clause cap no encoding of
// b2_two_roots.php fits, so every assertion degrades to Unknown: the
// report is incomplete, names the ceiling and has no findings.
func TestCNFCeilingsIncomplete(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "branchy", "b2_two_roots.php"))
	if err != nil {
		t.Fatal(err)
	}
	for _, lim := range []webssari.ResourceLimits{{MaxCNFVars: 2}, {MaxCNFClauses: 2}} {
		rep, err := webssari.Verify(src, "b2_two_roots.php", webssari.WithResourceLimits(lim))
		if err != nil {
			t.Fatalf("%+v: %v", lim, err)
		}
		if rep.Verdict != webssari.VerdictIncomplete || len(rep.Findings) != 0 ||
			len(rep.Limits) != 1 || !strings.HasPrefix(rep.Limits[0], "CNF ceiling (cnf: formula exceeds the 2-") {
			t.Errorf("%+v: verdict %s, %d findings, limits %q; want incomplete on the CNF ceiling, no findings",
				lim, rep.Verdict, len(rep.Findings), rep.Limits)
		}
	}
}
