package core

import (
	"context"
	"math/rand"
	"os"
	"strings"
	"testing"

	"webssari/internal/cnf"
	"webssari/internal/flow"
	"webssari/internal/prelude"
	"webssari/internal/sat"
)

func verifyShared(t *testing.T, src string) *Result {
	t.Helper()
	prog, errs := flow.BuildSource("test.php", []byte(src), flow.Options{Prelude: prelude.Default()})
	if len(errs) != 0 {
		t.Fatalf("build: %v", errs)
	}
	res, err := VerifyAI(prog, Options{Mode: ModeShared})
	if err != nil {
		t.Fatalf("shared verify: %v", err)
	}
	return res
}

func TestSharedSolverMatchesPerAssert(t *testing.T) {
	sources := []string{
		`<?php echo $_GET['x'];`,
		`<?php $x = 'safe'; echo $x;`,
		`<?php if ($a) { $x = $_GET['q']; } else { $x = 'ok'; } echo $x; mysql_query($x);`,
		`<?php
$x = $_COOKIE['c'];
if ($a) { $x = htmlspecialchars($x); }
echo $x;
echo 'const';`,
		`<?php
$x = $_GET['a'];
if ($s) { exit; }
echo $x;`,
		`<?php
switch ($m) { case 1: $v = $_GET['x']; break; default: $v = 'ok'; }
mysql_query($v);`,
	}
	for i, src := range sources {
		shared := verifyShared(t, src)
		baseline := verify(t, src)
		got := cexKeys(shared)
		want := cexKeys(baseline)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("source %d:\nshared:   %v\nbaseline: %v", i, got, want)
		}
	}
}

func TestSharedSolverMatchesOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(515))
	for i := 0; i < 80; i++ {
		src := randomProgram(r)
		prog, errs := flow.BuildSource("test.php", []byte(src), flow.Options{Prelude: prelude.Default()})
		if len(errs) != 0 {
			t.Fatalf("iter %d: %v", i, errs)
		}
		if prog.Branches > 12 {
			continue
		}
		shared, err := VerifyAI(prog, Options{Mode: ModeShared})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		baseline, err := VerifyAI(prog, Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		got := cexKeys(shared)
		want := cexKeys(baseline)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("iter %d mismatch:\nsrc:\n%s\nshared:   %v\nbaseline: %v",
				i, src, got, want)
		}
	}
}

func TestSharedSolverAssumePriorMatchesPerAssert(t *testing.T) {
	// AssumePriorAsserts in shared mode is realized through hold-selector
	// assumptions; the counterexample sets must match the per-assertion
	// encoder, which re-encodes the prior checks as hard constraints.
	sources := []string{
		`<?php echo 1;`,
		`<?php echo $_GET['x']; mysql_query($_GET['x']);`,
		`<?php $x = $_GET['a']; echo $x; echo $x; mysql_query($x);`,
		`<?php
if ($a) { $x = $_GET['q']; } else { $x = 'ok'; }
echo $x;
if ($b) { $y = $_POST['p']; } else { $y = $x; }
mysql_query($y);`,
		`<?php
$x = $_COOKIE['c'];
if ($a) { $x = htmlspecialchars($x); }
echo $x;
mysql_query($x);`,
	}
	for i, src := range sources {
		prog, errs := flow.BuildSource("test.php", []byte(src), flow.Options{Prelude: prelude.Default()})
		if len(errs) != 0 {
			t.Fatalf("source %d: %v", i, errs)
		}
		shared, err := VerifyAI(prog, Options{Mode: ModeShared, AssumePriorAsserts: true})
		if err != nil {
			t.Fatalf("source %d: shared verify: %v", i, err)
		}
		baseline, err := VerifyAI(prog, Options{AssumePriorAsserts: true})
		if err != nil {
			t.Fatalf("source %d: baseline verify: %v", i, err)
		}
		got := cexKeys(shared)
		want := cexKeys(baseline)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("source %d:\nshared:   %v\nbaseline: %v", i, got, want)
		}
	}
}

func TestSharedSolverBlockingIsolation(t *testing.T) {
	// Two assertions over the same branch structure: blocking clauses from
	// enumerating assert 0 must not hide assert 1's counterexamples.
	res := verifyShared(t, `<?php
if ($a) { $x = $_GET['p']; } else { $x = $_POST['q']; }
echo $x;
mysql_query($x);`)
	if len(res.PerAssert) != 2 {
		t.Fatalf("asserts = %d", len(res.PerAssert))
	}
	for i, ar := range res.PerAssert {
		if len(ar.Counterexamples) != 2 {
			t.Fatalf("assert %d: %d counterexamples, want 2 (selector gating broken)",
				i, len(ar.Counterexamples))
		}
	}
}

// TestSharedSolverStatsSumToFinal: in shared mode every assertion
// searches on one solver whose counters are cumulative, so each must
// record only the work its own enumeration added. Summed the way a run
// profile sums them, the per-assertion stats must equal the shared
// solver's final stats — not count earlier assertions' searches again.
func TestSharedSolverStatsSumToFinal(t *testing.T) {
	src, err := os.ReadFile("../../testdata/branchy/b2_two_roots.php")
	if err != nil {
		t.Fatal(err)
	}
	prog := compileSrc(t, string(src))
	opts := NewOptions(flow.Options{Prelude: prelude.Default()})
	opts.Mode = ModeShared
	opts.MaxCounterexamples = DefaultMaxCEX
	res := Solve(context.Background(), prog, opts)
	var got sat.Stats
	for _, ar := range res.PerAssert {
		got.Add(ar.SolverStats)
	}

	// Run the same assertion loop on a solver the test owns and read its
	// final stats.
	encoded, err := cnf.EncodeAllChecks(prog.System, opts.cnfOptions())
	if err != nil {
		t.Fatal(err)
	}
	solver := sat.NewWith(opts.Solver)
	if !encoded.F.LoadInto(solver) {
		t.Fatal("shared encoding trivially unsat")
	}
	searched := 0
	for i := range prog.System.Checks {
		if !encoded.TrivialUnsat[i] {
			enumerateShared(prog.System, encoded, solver, i, opts, &AssertResult{})
			searched++
		}
	}
	if searched < 2 {
		t.Fatalf("%d assertions searched; the test needs several to share the solver", searched)
	}
	want := solver.Stats()
	if want.Decisions == 0 {
		t.Fatal("shared solver made no decisions; the test has nothing to sum")
	}
	if got != want {
		t.Fatalf("per-assertion stats sum to %+v, shared solver's final stats are %+v", got, want)
	}
}
