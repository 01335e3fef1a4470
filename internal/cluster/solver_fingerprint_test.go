package cluster

// Fingerprint neutrality of the solver-mode surface: a worker solving in
// shared mode must still join a per-assert coordinator — the mode changes
// cost, never verdicts — while the verdict-shaping solver fields
// (budgets, restart caps) must still gate registration.

import (
	"testing"

	"webssari"
)

func TestFingerprintSolverModeNeutral(t *testing.T) {
	base := Fingerprint(webssari.WithConfig(webssari.Config{Solver: webssari.SolverConfig{MaxConflicts: 500}}))
	for _, cfg := range []webssari.Config{
		{Solver: webssari.SolverConfig{Mode: webssari.SolverShared, MaxConflicts: 500}},
		{Solver: webssari.SolverConfig{Mode: webssari.SolverPerAssert, MaxConflicts: 500}},
	} {
		if fp := Fingerprint(webssari.WithConfig(cfg)); fp != base {
			t.Errorf("verdict-neutral solver config %+v changed the fingerprint", cfg.Solver)
		}
	}
}

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
