package cluster

import (
	"testing"
	"time"

	"webssari"
)

// TestFingerprintIgnoresVerdictNeutralOptions: options that change only
// cost must not split a cluster (a coordinator run with -j 4 admits a
// worker run with -j 2), while every verdict-shaping option still gates
// registration.
func TestFingerprintIgnoresVerdictNeutralOptions(t *testing.T) {
	same := []struct {
		name string
		a, b []webssari.Option
	}{
		{"parallelism", []webssari.Option{webssari.WithParallelism(1)}, []webssari.Option{webssari.WithParallelism(8)}},
		{"incremental", []webssari.Option{webssari.WithIncremental()}, nil},
	}
	for _, tc := range same {
		a, b := Fingerprint(tc.a...), Fingerprint(tc.b...)
		if a == "" || b == "" {
			t.Fatalf("%s: empty fingerprint for valid options", tc.name)
		}
		if a != b {
			t.Errorf("%s: verdict-neutral option changed the fingerprint", tc.name)
		}
	}

	base := Fingerprint()
	for name, opt := range map[string]webssari.Option{
		"deadline":      webssari.WithDeadline(5 * time.Second),
		"policy":        webssari.WithPolicy("ssrf"),
		"unroll":        webssari.WithLoopUnroll(3),
		"max conflicts": webssari.WithSolverConfig(webssari.SolverConfig{MaxConflicts: 500}),
	} {
		if Fingerprint(opt) == base {
			t.Errorf("%s: verdict-shaping option did not change the fingerprint", name)
		}
	}
}
