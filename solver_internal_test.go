package webssari

// Internal test of result-store key derivation: it needs resultKey and
// the unexported config, so it lives inside the package.

import "testing"

// TestResultKeyDiscriminates pins what addresses a stored result: the
// entry name, the source bytes, and the verdict-shaping configuration.
func TestResultKeyDiscriminates(t *testing.T) {
	mk := func(opts ...Option) string {
		t.Helper()
		cfg, err := buildConfig(opts)
		if err != nil {
			t.Fatal(err)
		}
		return resultKey("a.php", []byte("<?php echo 1;"), cfg)
	}
	base := mk()
	if mk() != base {
		t.Fatal("result key not deterministic")
	}
	cfg, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey("b.php", []byte("<?php echo 1;"), cfg) == base {
		t.Fatal("name does not discriminate")
	}
	if resultKey("a.php", []byte("<?php echo 2;"), cfg) == base {
		t.Fatal("source does not discriminate")
	}
	if mk(WithPolicy("ssrf")) == base {
		t.Fatal("policy does not discriminate")
	}
	if mk(WithSolverConfig(SolverConfig{MaxConflicts: 7})) == base {
		t.Fatal("conflict budget does not discriminate")
	}
}
