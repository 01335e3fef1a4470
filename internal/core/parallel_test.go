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
// each behind its own branch structure, so a parallel Solve has real
// per-assertion work to fan out.
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
	opts := NewOptions(flow.Options{Prelude: prelude.Default()})
	p, errs := Compile("test.php", []byte(src), opts)
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

// TestSolveParallelMatchesSequential is the core determinism guarantee:
// Solve at any parallelism produces the same result as the sequential
// paper loop, assertion by assertion.
func TestSolveParallelMatchesSequential(t *testing.T) {
	prog := compileSrc(t, multiAssert(8))
	opts := NewOptions(flow.Options{Prelude: prelude.Default()})
	seq := Solve(context.Background(), prog, opts)
	for _, par := range []int{2, 4, 8, 16} {
		popts := opts
		popts.Parallelism = par
		got := Solve(context.Background(), prog, popts)
		assertResultsEqual(t, fmt.Sprintf("parallelism=%d", par), seq, got)
	}
}

// TestConcurrentSolvesOnSharedProgram proves the Program immutability
// contract: many goroutines solving one shared Program concurrently (each
// itself fanning out assertions) all produce the sequential result, and
// the race detector sees no shared-state writes.
func TestConcurrentSolvesOnSharedProgram(t *testing.T) {
	prog := compileSrc(t, multiAssert(6))
	opts := NewOptions(flow.Options{Prelude: prelude.Default()})
	want := Solve(context.Background(), prog, opts)

	const goroutines = 8
	results := make([]*Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			popts := opts
			popts.Parallelism = 1 + g%3
			results[g] = Solve(context.Background(), prog, popts)
		}(g)
	}
	wg.Wait()
	for g, got := range results {
		assertResultsEqual(t, fmt.Sprintf("goroutine %d", g), want, got)
	}
}

// TestSolveSharedPoolNoDeadlock exercises the pool-sharing discipline: a
// Solve whose caller holds the only slot of a shared pool must finish
// inline instead of waiting for slots that can never free up.
func TestSolveSharedPoolNoDeadlock(t *testing.T) {
	prog := compileSrc(t, multiAssert(4))
	opts := NewOptions(flow.Options{Prelude: prelude.Default()})
	pool := NewPool(1)
	if err := pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer pool.Release()
	opts.Workers = pool
	got := Solve(context.Background(), prog, opts)
	want := Solve(context.Background(), prog, NewOptions(flow.Options{Prelude: prelude.Default()}))
	assertResultsEqual(t, "shared pool, one slot", want, got)
}

// TestParallelSolveDeadlineDegrades: a context that expires mid-pool
// degrades undecided assertions to Unknown/deadline without deadlocking,
// and the degradation warning reports a contiguous unchecked suffix.
func TestParallelSolveDeadlineDegrades(t *testing.T) {
	prog := compileSrc(t, multiAssert(8))
	opts := NewOptions(flow.Options{Prelude: prelude.Default()})
	opts.Parallelism = 4
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	opts.Hooks.BeforeAssert = func(idx int) {
		if idx >= 2 {
			once.Do(cancel)
		}
	}
	defer cancel()
	res := Solve(ctx, prog, opts)
	if len(res.PerAssert) != 8 {
		t.Fatalf("asserts = %d, want 8 (one entry per assertion even when degraded)", len(res.PerAssert))
	}
	sawDeadline := false
	for _, ar := range res.PerAssert {
		if ar.Unknown && ar.Cause == CauseDeadline {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatal("no assertion degraded to Unknown/deadline despite cancellation")
	}
	if !res.Incomplete() {
		t.Fatal("cancelled parallel solve not marked Incomplete")
	}
}

// TestPoolAcquireRespectsContext: Acquire on a full pool returns the
// context error instead of blocking forever.
func TestPoolAcquireRespectsContext(t *testing.T) {
	pool := NewPool(1)
	if err := pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pool.Acquire(ctx); err == nil {
		t.Fatal("Acquire on a full pool with a cancelled context returned nil")
	}
	if pool.TryAcquire() {
		t.Fatal("TryAcquire succeeded on a full pool")
	}
	pool.Release()
	if !pool.TryAcquire() {
		t.Fatal("TryAcquire failed on a free pool")
	}
}

// TestPoolPeakNeverExceedsCapacity: a slot is counted in use only while
// it is held, so the in-use high-water mark stays within capacity when
// a release and the next acquire race.
func TestPoolPeakNeverExceedsCapacity(t *testing.T) {
	pool := NewPool(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := pool.Acquire(context.Background()); err != nil {
					t.Error(err)
					return
				}
				pool.Release()
			}
		}()
	}
	wg.Wait()
	if got := pool.Snapshot().MaxInUse; got > 1 {
		t.Errorf("peak in use = %d on a 1-slot pool", got)
	}
}
