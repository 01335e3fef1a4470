package webssari_test

// Differential tests for the solver dispatch modes: shared-mode runs
// must produce reports byte-identical (profiles stripped) to the default
// per-assertion solve — solver modes are verdict-neutral by contract,
// and this suite is the contract's teeth.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webssari"
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

// TestSolverModesByteIdentical sweeps the example corpus under every
// built-in policy and asserts that shared mode reproduces the
// per-assertion report byte for byte.
func TestSolverModesByteIdentical(t *testing.T) {
	policies := []string{"default", "xss-context", "ssrf"}
	for _, file := range examplePHPFiles(t) {
		src := readExample(t, file)
		name := "examples/php/" + file
		for _, pol := range policies {
			t.Run(pol+"/"+file, func(t *testing.T) {
				base := []webssari.Option{webssari.WithPolicy(pol)}
				ref, err := webssari.Verify(src, name, base...)
				if err != nil {
					t.Fatalf("per-assert Verify: %v", err)
				}
				refJSON, refText := stripped(t, ref)

				shared := append([]webssari.Option{
					webssari.WithSolverConfig(webssari.SolverConfig{Mode: webssari.SolverShared}),
				}, base...)
				rep, err := webssari.Verify(src, name, shared...)
				if err != nil {
					t.Fatalf("shared Verify: %v", err)
				}
				gotJSON, gotText := stripped(t, rep)
				if gotJSON != refJSON {
					t.Errorf("shared report diverges from per-assert:\n got %s\nwant %s", gotJSON, refJSON)
				}
				if gotText != refText {
					t.Errorf("shared text diverges from per-assert:\n got %q\nwant %q", gotText, refText)
				}
			})
		}
	}
}

// TestSolverConfigOptionValidation pins the API-surface errors of the
// unified solver configuration.
func TestSolverConfigOptionValidation(t *testing.T) {
	src := []byte("<?php echo 'hi';\n")
	if _, err := webssari.Verify(src, "t.php",
		webssari.WithSolverConfig(webssari.SolverConfig{Mode: "simulated-annealing"})); err == nil {
		t.Fatal("unknown solver mode accepted")
	} else if !strings.Contains(err.Error(), "per-assert") {
		t.Fatalf("error should list the valid modes, got: %v", err)
	}
	// The zero SolverConfig is a no-op, not an error.
	if _, err := webssari.Verify(src, "t.php",
		webssari.WithSolverConfig(webssari.SolverConfig{})); err != nil {
		t.Fatalf("zero SolverConfig should be accepted: %v", err)
	}
}

// TestSharedModeCNFCeilings checks that both solver modes enforce the CNF
// resource ceilings. Under a 2-variable or a 2-clause cap no encoding of
// b2_two_roots.php fits, so each mode degrades every assertion to
// Unknown: the report is incomplete, names the ceiling and has no
// findings. The shared whole-program encoding is held to the same caps
// as each per-assert encoding.
func TestSharedModeCNFCeilings(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "branchy", "b2_two_roots.php"))
	if err != nil {
		t.Fatal(err)
	}
	for _, lim := range []webssari.ResourceLimits{{MaxCNFVars: 2}, {MaxCNFClauses: 2}} {
		for _, mode := range []webssari.SolverMode{webssari.SolverPerAssert, webssari.SolverShared} {
			rep, err := webssari.Verify(src, "b2_two_roots.php", webssari.WithResourceLimits(lim),
				webssari.WithSolverConfig(webssari.SolverConfig{Mode: mode}))
			if err != nil {
				t.Fatalf("%s %+v: %v", mode, lim, err)
			}
			if rep.Verdict != webssari.VerdictIncomplete || len(rep.Findings) != 0 ||
				len(rep.Limits) != 1 || !strings.HasPrefix(rep.Limits[0], "CNF ceiling (cnf: formula exceeds the 2-") {
				t.Errorf("%s %+v: verdict %s, %d findings, limits %q; want incomplete on the CNF ceiling, no findings",
					mode, lim, rep.Verdict, len(rep.Findings), rep.Limits)
			}
		}
	}
}
