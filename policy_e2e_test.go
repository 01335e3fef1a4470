package webssari_test

// End-to-end tests for the security-policy subsystem: the bundled
// SSRF and context-XSS example workloads, the per-context sanitizer
// adequacy matrix, the context-aware patcher, policy JSON loading, and
// the report-level byte-identity of the default policy.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webssari"
)

func readExample(t *testing.T, name string) []byte {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("examples", "php", name))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestPolicyExamplesGolden locks the verdicts and report lines of the
// bundled policy workloads: each positive example is flagged with the
// exact class, context, and location, each _safe sibling verifies, and
// the context-blind default policy misses all of them (that blindness
// is the point of the examples).
func TestPolicyExamplesGolden(t *testing.T) {
	cases := []struct {
		file     string
		policy   string
		safe     bool
		symptoms int
		lines    []string
	}{
		{"widget.php", "xss-context", false, 2, []string{
			"* cross-site scripting (XSS) via echo [attr] at examples/php/widget.php:9:1",
			"* cross-site scripting (XSS) via echo [js] at examples/php/widget.php:10:1",
			"$name becomes escaped",
		}},
		{"widget_safe.php", "xss-context", true, 0, nil},
		{"fetch.php", "ssrf", false, 1, []string{
			"* server-side request forgery (SSRF) via file_get_contents at examples/php/fetch.php:6:9",
		}},
		{"fetch_safe.php", "ssrf", true, 0, nil},
		// The default policy is context-blind and has no SSRF sinks:
		// both positives sail through it.
		{"widget.php", "default", true, 0, nil},
		{"fetch.php", "default", true, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.policy+"/"+tc.file, func(t *testing.T) {
			src := readExample(t, tc.file)
			rep, err := webssari.Verify(src, "examples/php/"+tc.file,
				webssari.WithPolicy(tc.policy))
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if rep.Safe != tc.safe || rep.Symptoms != tc.symptoms {
				t.Fatalf("safe=%v symptoms=%d, want safe=%v symptoms=%d\n%s",
					rep.Safe, rep.Symptoms, tc.safe, tc.symptoms, rep.Text)
			}
			for _, line := range tc.lines {
				if !strings.Contains(rep.Text, line) {
					t.Errorf("report lacks %q\n%s", line, rep.Text)
				}
			}
		})
	}
}

// TestSanitizerAdequacyMatrix is the per-context adequacy table: each
// sanitizer yields a safety type, each HTML output context demands one,
// and the verdict is exactly their lattice comparison. One generated
// source per (sanitizer, context) cell.
func TestSanitizerAdequacyMatrix(t *testing.T) {
	sanitizers := []struct {
		label string
		expr  string // applied to $_GET['a']
		// adequacy per context, keyed by the contexts slice below
		safe map[string]bool
	}{
		{"raw", `$_GET['a']`,
			map[string]bool{"html": false, "attr": false, "js": false}},
		{"escaped", `htmlspecialchars($_GET['a'])`,
			map[string]bool{"html": true, "attr": false, "js": false}},
		{"quoted", `htmlspecialchars($_GET['a'], ENT_QUOTES)`,
			map[string]bool{"html": true, "attr": true, "js": false}},
		{"urlencoded", `urlencode($_GET['a'])`,
			map[string]bool{"html": true, "attr": true, "js": false}},
		{"untainted", `intval($_GET['a'])`,
			map[string]bool{"html": true, "attr": true, "js": true}},
	}
	contexts := []struct {
		name string
		tmpl string // echo statement embedding $x
	}{
		{"html", `echo "<p>$x</p>";`},
		{"attr", `echo "<input value='$x'>";`},
		{"js", `echo "<script>var v = '$x';</script>";`},
	}
	for _, san := range sanitizers {
		for _, ctx := range contexts {
			t.Run(san.label+"/"+ctx.name, func(t *testing.T) {
				src := fmt.Sprintf("<?php\n$x = %s;\n%s\n", san.expr, ctx.tmpl)
				rep, err := webssari.Verify([]byte(src), "matrix.php",
					webssari.WithPolicy("xss-context"))
				if err != nil {
					t.Fatalf("Verify: %v", err)
				}
				if want := san.safe[ctx.name]; rep.Safe != want {
					t.Errorf("safe=%v, want %v\nsource:\n%s\n%s",
						rep.Safe, want, src, rep.Text)
				}
			})
		}
	}
}

// TestPolicyPatchGolden locks the context-aware patcher: the selected
// guard is the context-preferred routine strong enough for every
// violated context, and the patched source re-verifies under the same
// policy.
func TestPolicyPatchGolden(t *testing.T) {
	cases := []struct {
		file   string
		policy string
		want   string // guard wrap the patch must contain
	}{
		// widget.php violates attr and js: quoted output (websafe_attr)
		// is inadequate for the script element, so the patcher escalates
		// to websafe_js for the shared fix point.
		{"widget.php", "xss-context", `$name = websafe_js(htmlspecialchars($_GET['name']));`},
		{"fetch.php", "ssrf", `$url = websafe_url($_GET['feed']);`},
	}
	for _, tc := range cases {
		t.Run(tc.policy+"/"+tc.file, func(t *testing.T) {
			src := readExample(t, tc.file)
			patched, rep, err := webssari.Patch(src, "examples/php/"+tc.file,
				webssari.WithPolicy(tc.policy))
			if err != nil {
				t.Fatalf("Patch: %v", err)
			}
			if rep.Safe {
				t.Fatalf("positive example verified safe; nothing to patch")
			}
			if !strings.Contains(string(patched), tc.want) {
				t.Fatalf("patched source lacks %q:\n%s", tc.want, patched)
			}
			rerep, err := webssari.Verify(patched, "patched.php",
				webssari.WithPolicy(tc.policy))
			if err != nil {
				t.Fatalf("re-verify: %v", err)
			}
			if !rerep.Safe {
				t.Fatalf("patched source still unsafe:\n%s", rerep.Text)
			}
		})
	}
}

// TestPolicyJSONLoading exercises the JSON loading path end to end: a
// custom minimal SSRF-style policy (the README walkthrough's example)
// loaded from bytes detects the positive and passes the sanitized one.
func TestPolicyJSONLoading(t *testing.T) {
	decl := []byte(`{
		"name": "my-ssrf",
		"lattice": ["untainted", "tainted"],
		"vars": [{"name": "_GET", "type": "tainted"}],
		"sinks": [{"name": "file_get_contents", "bound": "tainted", "args": [1],
			"class": "server-side request forgery (SSRF)"}],
		"sanitizers": [{"name": "websafe_url", "type": "untainted"}],
		"guards": [{"routine": "websafe_url", "type": "untainted"}]
	}`)
	rep, err := webssari.Verify(readExample(t, "fetch.php"), "fetch.php",
		webssari.WithPolicyJSON("my-ssrf", decl))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Safe {
		t.Fatal("custom policy missed the SSRF positive")
	}
	if !strings.Contains(rep.Text, "server-side request forgery (SSRF) via file_get_contents") {
		t.Errorf("report lacks the declared class:\n%s", rep.Text)
	}
	rep, err = webssari.Verify(readExample(t, "fetch_safe.php"), "fetch_safe.php",
		webssari.WithPolicyJSON("my-ssrf", decl))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.Safe {
		t.Fatalf("custom policy flagged the sanitized sibling:\n%s", rep.Text)
	}

	if _, err := webssari.Verify([]byte("<?php ?>"), "x.php",
		webssari.WithPolicyJSON("bad", []byte(`{"name":"bad"}`))); err == nil {
		t.Error("invalid policy JSON accepted")
	}
}

// TestPolicyKeysCaches asserts the policy fingerprint partitions both
// caching tiers: runs under different policies must never share a
// compiled program or a stored verdict, even for identical source.
func TestPolicyKeysCaches(t *testing.T) {
	src := readExample(t, "fetch.php")

	webssari.ResetCompileCache()
	if _, err := webssari.Verify(src, "fetch.php"); err != nil {
		t.Fatal(err)
	}
	if _, err := webssari.Verify(src, "fetch.php", webssari.WithPolicy("ssrf")); err != nil {
		t.Fatal(err)
	}
	if hits, misses := webssari.CompileCacheStats(); hits != 0 || misses != 2 {
		t.Fatalf("distinct policies shared a compile-cache entry: %d hits / %d misses, want 0/2", hits, misses)
	}
	rep, err := webssari.Verify(src, "fetch.php", webssari.WithPolicy("ssrf"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Profile.CacheHit {
		t.Fatal("identical (source, policy) pair missed the compile cache")
	}

	s, err := webssari.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := webssari.Verify(src, "fetch.php", webssari.WithStore(s)); err != nil {
		t.Fatal(err)
	}
	rep, err = webssari.Verify(src, "fetch.php", webssari.WithStore(s),
		webssari.WithPolicy("ssrf"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profile.StoreHit {
		t.Fatal("a different policy was served the stored verdict")
	}
	if rep.Safe {
		t.Fatal("ssrf run behind the store missed the finding")
	}
}

// TestDefaultPolicyReportByteIdentical asserts the compatibility
// guarantee at the outermost layer: over every bundled example, a run
// under WithPolicy("default") renders the byte-identical report text a
// policy-free run does.
func TestDefaultPolicyReportByteIdentical(t *testing.T) {
	dir := filepath.Join("examples", "php")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".php" {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			src := readExample(t, name)
			bare, err := webssari.Verify(src, name, webssari.WithDir(dir))
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			pol, err := webssari.Verify(src, name, webssari.WithDir(dir),
				webssari.WithPolicy("default"))
			if err != nil {
				t.Fatalf("Verify with default policy: %v", err)
			}
			if bare.Text != pol.Text {
				t.Errorf("report text diverged under default policy:\n--- bare ---\n%s\n--- policy ---\n%s",
					bare.Text, pol.Text)
			}
			if bare.Verdict != pol.Verdict || bare.Symptoms != pol.Symptoms || bare.Groups != pol.Groups {
				t.Errorf("verdict diverged: bare %s/%d/%d vs policy %s/%d/%d",
					bare.Verdict, bare.Symptoms, bare.Groups,
					pol.Verdict, pol.Symptoms, pol.Groups)
			}
		})
	}
}
