package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"webssari/internal/flow"
	"webssari/internal/prelude"
)

// multiAssert returns a program with n independent tainted assertions,
// each behind its own branch structure, so every assertion has real
// search work.
func multiAssert(n int) string {
	var b strings.Builder
	b.WriteString("<?php\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "$v%d = $_GET['a%d'];\n", i, i)
		fmt.Fprintf(&b, "if ($c%d) { $v%d = htmlspecialchars($v%d); }\n", i, i, i)
		fmt.Fprintf(&b, "echo $v%d;\n", i)
	}
	return b.String()
}

func compileSrc(t *testing.T, src string) *Program {
	t.Helper()
	opts := Options{Flow: flow.Options{Prelude: prelude.Default()}}
	p, _, errs := Compile("test.php", []byte(src), opts)
	if p == nil {
		t.Fatalf("Compile failed: %v", errs)
	}
	return p
}

// assertResultsEqual compares two Results field-by-field over everything
// a report is built from.
func assertResultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.PerAssert) != len(b.PerAssert) {
		t.Fatalf("%s: PerAssert lengths %d vs %d", label, len(a.PerAssert), len(b.PerAssert))
	}
	for i := range a.PerAssert {
		x, y := a.PerAssert[i], b.PerAssert[i]
		if len(x.Counterexamples) != len(y.Counterexamples) {
			t.Fatalf("%s: assert %d: %d vs %d counterexamples",
				label, i, len(x.Counterexamples), len(y.Counterexamples))
		}
		for j := range x.Counterexamples {
			if x.Counterexamples[j].Key() != y.Counterexamples[j].Key() {
				t.Fatalf("%s: assert %d cex %d: key %q vs %q",
					label, i, j, x.Counterexamples[j].Key(), y.Counterexamples[j].Key())
			}
		}
		if x.Unknown != y.Unknown || x.Cause != y.Cause || x.Truncated != y.Truncated {
			t.Fatalf("%s: assert %d: verdict fields differ: %+v vs %+v", label, i, x, y)
		}
		if x.EncodedVars != y.EncodedVars || x.EncodedClauses != y.EncodedClauses {
			t.Fatalf("%s: assert %d: encoding sizes differ", label, i)
		}
		if x.SolverStats != y.SolverStats {
			t.Fatalf("%s: assert %d: solver stats differ: %+v vs %+v",
				label, i, x.SolverStats, y.SolverStats)
		}
	}
	if !reflect.DeepEqual(a.Warnings, b.Warnings) {
		t.Fatalf("%s: warnings differ: %v vs %v", label, a.Warnings, b.Warnings)
	}
	if !reflect.DeepEqual(a.ParseErrors, b.ParseErrors) {
		t.Fatalf("%s: parse errors differ: %v vs %v", label, a.ParseErrors, b.ParseErrors)
	}
}

// TestConcurrentSolvesOnSharedProgram proves the Program immutability
// contract: many goroutines solving one shared Program concurrently all
// produce the same result, and the race detector sees no shared-state
// writes.
func TestConcurrentSolvesOnSharedProgram(t *testing.T) {
	prog := compileSrc(t, multiAssert(6))
	opts := Options{Flow: flow.Options{Prelude: prelude.Default()}}
	want := Solve(context.Background(), prog, opts)

	const goroutines = 8
	results := make([]*Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = Solve(context.Background(), prog, opts)
		}(g)
	}
	wg.Wait()
	for g, got := range results {
		assertResultsEqual(t, fmt.Sprintf("goroutine %d", g), want, got)
	}
}

// TestSolveDeadlineDegradesSuffix pins the sequential deadline contract:
// assertions checked before the deadline keep their verdicts, the one in
// flight and every later one are Unknown/deadline, and a single warning
// names the first assertion that went unchecked.
func TestSolveDeadlineDegradesSuffix(t *testing.T) {
	prog := compileSrc(t, multiAssert(8))
	opts := Options{Flow: flow.Options{Prelude: prelude.Default()}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Hooks.BeforeAssert = func(idx int) {
		if idx == 2 {
			cancel()
		}
	}
	res := Solve(ctx, prog, opts)
	if len(res.PerAssert) != 8 {
		t.Fatalf("asserts = %d, want 8 (one entry per assertion even when degraded)", len(res.PerAssert))
	}
	for i, ar := range res.PerAssert {
		if i < 2 {
			if ar.Unknown || len(ar.Counterexamples) == 0 {
				t.Fatalf("assert %d checked before the deadline: Unknown=%v, %d counterexamples",
					i, ar.Unknown, len(ar.Counterexamples))
			}
			continue
		}
		if !ar.Unknown || ar.Cause != CauseDeadline {
			t.Fatalf("assert %d after the deadline: Unknown=%v Cause=%q, want Unknown/%s",
				i, ar.Unknown, ar.Cause, CauseDeadline)
		}
	}
	want := []string{"deadline expired before assert_3: 5 assertion(s) unchecked"}
	if !reflect.DeepEqual(res.Warnings, want) {
		t.Fatalf("warnings = %q, want %q", res.Warnings, want)
	}
	if len(res.IncompleteCauses()) == 0 {
		t.Fatal("cancelled solve not marked Incomplete")
	}
}
