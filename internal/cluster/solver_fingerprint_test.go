package cluster

// The verdict-shaping solver fields (budgets, restart caps) gate
// registration: a worker with other budgets could degrade assertions
// the coordinator decides.

import (
	"testing"

	"webssari"
)

func TestFingerprintSolverShapingGates(t *testing.T) {
	base := Fingerprint(webssari.WithConfig(webssari.Config{}))
	for _, cfg := range []webssari.Config{
		{Solver: webssari.SolverConfig{MaxConflicts: 500}},
		{Solver: webssari.SolverConfig{MaxRestarts: 7}},
	} {
		if fp := Fingerprint(webssari.WithConfig(cfg)); fp == base {
			t.Errorf("verdict-shaping solver config %+v did not change the fingerprint", cfg)
		}
	}
}
