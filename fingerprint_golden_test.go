package webssari_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"webssari"
	"webssari/internal/policy"
	"webssari/internal/prelude"
)

const fingerprintGolden = "testdata/fingerprints.golden"

// fingerprintPolicyJSON declares a three-point chain through the policy
// JSON format, the second way a user can declare a lattice.
const fingerprintPolicyJSON = `{
  "name": "confidentiality",
  "lattice": ["public", "internal", "secret"],
  "vars": [{"name": "_GET", "type": "secret"}],
  "sources": [{"name": "read_salary", "type": "secret"}],
  "sinks": [
    {"name": "publish", "bound": "internal"},
    {"name": "echo", "bound": "secret", "contextual": true}
  ],
  "sanitizers": [{"name": "declassify", "type": "public",
    "variants": [{"arg_consts": ["PARTIAL"], "type": "internal"}]}],
  "contexts": [{"name": "html", "bound": "secret", "guard": "declassify"}],
  "guards": [{"routine": "declassify", "type": "public"}]
}`

// TestFingerprintGolden pins the prelude, policy and config fingerprints
// that result-store keys and dependency-graph keys hash. A change that
// moves any of them silently invalidates every existing store, so the
// golden may change only on purpose: regenerate with `go test -run
// TestFingerprintGolden -update .`.
func TestFingerprintGolden(t *testing.T) {
	var b strings.Builder
	section := func(label, fp string) {
		fmt.Fprintf(&b, "== %s\n%s\n", label, fp)
	}

	section("prelude default", prelude.Default().Fingerprint())
	for _, src := range []string{
		"lattice chain only\nvar _GET only\nsource read only\nsink emit only *\n",
		"lattice chain low mid high\nvar _GET high\nsource read high\nsink emit mid 1,2\nsink store high\nsanitizer clean low\nsanitizer escape mid\n",
		"lattice chain l0 l1 l2 l3 l4\nvar _GET l4\nvar _COOKIE l3\nsource read l4\nsink emit l1 *\nsink log l4\nsanitizer clean l0\nsanitizer half l2\n",
	} {
		p, err := prelude.Parse("golden", []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		section("prelude "+strings.SplitN(src, "\n", 2)[0], p.Fingerprint())
	}

	for _, name := range policy.Names() {
		c, err := policy.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		section("policy "+name, c.Fingerprint())
	}
	c, err := policy.LoadJSON("golden", []byte(fingerprintPolicyJSON))
	if err != nil {
		t.Fatal(err)
	}
	section("policy json "+c.Name(), c.Fingerprint())

	cfg, err := webssari.ConfigFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	section("config default", cfg)

	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(fingerprintGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("fingerprints drifted from %s; a store written before this change would miss on every key.\ngot:\n%s", fingerprintGolden, got)
	}
}
