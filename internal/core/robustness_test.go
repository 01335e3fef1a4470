package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"webssari/internal/flow"
	"webssari/internal/prelude"
	"webssari/internal/sat"
)

// branchyVulnerable returns a tainted program whose single echo assertion
// has 2^n counterexample paths — enough enumeration work that blocking
// clauses force real SAT search.
func branchyVulnerable(n int) string {
	var b strings.Builder
	b.WriteString("<?php\n$x = $_GET['a'];\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "if ($c%d) { $x = $x . \"s\"; } else { $x = \"\" . $x; }\n", i)
	}
	b.WriteString("echo $x;\n")
	return b.String()
}

// branchyMixed alternates sanitization and re-tainting per branch, so the
// echo's safety genuinely depends on the branch decisions: the encoding
// materializes one-hot value variables and implication clauses (unlike
// the all-tainted program, which constant-folds to just branch vars).
func branchyMixed(n int) string {
	var b strings.Builder
	b.WriteString("<?php\n$x = $_GET['a'];\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "if ($c%d) { $x = htmlspecialchars($x); } else { $x = $x . $_GET['b%d']; }\n", i, i)
	}
	b.WriteString("echo $x;\n")
	return b.String()
}

func buildAI(t *testing.T, src string) *flow.Options {
	t.Helper()
	return &flow.Options{Prelude: prelude.Default()}
}

// TestExpiredContextDegradesAll verifies that a context already expired
// when verification starts degrades every assertion to Unknown/deadline
// instead of aborting or (worse) claiming Safe.
func TestExpiredContextDegradesAll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := verify(t, `<?php echo $_GET['x']; echo $_GET['y'];`, func(o *Options) {
		o.Ctx = ctx
	})
	if len(res.PerAssert) != 2 {
		t.Fatalf("asserts = %d, want 2 (one entry per assertion even when degraded)", len(res.PerAssert))
	}
	for i, ar := range res.PerAssert {
		if !ar.Unknown || ar.Cause != CauseDeadline {
			t.Fatalf("assert %d: Unknown=%v Cause=%q, want Unknown/deadline", i, ar.Unknown, ar.Cause)
		}
	}
	if len(res.IncompleteCauses()) == 0 {
		t.Fatal("expired-context result not marked Incomplete")
	}
	// Safe() sees no counterexamples, which is exactly why callers must
	// consult Incomplete before presenting a verdict.
	if causes := res.IncompleteCauses(); len(causes) != 1 || causes[0] != CauseDeadline {
		t.Fatalf("IncompleteCauses = %v, want [%s]", causes, CauseDeadline)
	}
}

// TestDeadlineMidEnumeration cancels the context from the BeforeSolve
// hook after a few enumeration iterations: the assertion must come back
// Unknown/deadline with the counterexamples found so far retained.
func TestDeadlineMidEnumeration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := verify(t, branchyVulnerable(6), func(o *Options) {
		o.Ctx = ctx
		o.Hooks.BeforeSolve = func(assertIdx, iteration int) {
			if iteration == 3 {
				cancel()
			}
		}
	})
	if len(res.PerAssert) != 1 {
		t.Fatalf("asserts = %d, want 1", len(res.PerAssert))
	}
	ar := res.PerAssert[0]
	if !ar.Unknown || ar.Cause != CauseDeadline {
		t.Fatalf("Unknown=%v Cause=%q, want Unknown/deadline", ar.Unknown, ar.Cause)
	}
	if len(ar.Counterexamples) == 0 {
		t.Fatal("counterexamples found before cancellation were dropped")
	}
	if len(ar.Counterexamples) >= 64 {
		t.Fatalf("found all %d counterexamples despite mid-enumeration cancel", len(ar.Counterexamples))
	}
}

// TestHookPanicDegradesAssertion proves fault isolation: a panic inside
// one assertion's encode+solve step degrades only that assertion to
// Unknown/internal error while the others still verify.
func TestHookPanicDegradesAssertion(t *testing.T) {
	res := verify(t, `<?php echo $_GET['x']; echo htmlspecialchars($_GET['y']); echo $_GET['z'];`,
		func(o *Options) {
			o.Hooks.BeforeAssert = func(idx int) {
				if idx == 1 {
					panic("injected fault")
				}
			}
		})
	if len(res.PerAssert) != 3 {
		t.Fatalf("asserts = %d, want 3", len(res.PerAssert))
	}
	if ar := res.PerAssert[1]; !ar.Unknown || ar.Cause != CauseInternal {
		t.Fatalf("faulted assert: Unknown=%v Cause=%q, want Unknown/%s", ar.Unknown, ar.Cause, CauseInternal)
	}
	if len(res.PerAssert[0].Counterexamples) != 1 || len(res.PerAssert[2].Counterexamples) != 1 {
		t.Fatalf("neighbouring assertions lost their verdicts: %d / %d counterexamples",
			len(res.PerAssert[0].Counterexamples), len(res.PerAssert[2].Counterexamples))
	}
	if len(res.IncompleteCauses()) == 0 {
		t.Fatal("result with an internal fault not marked Incomplete")
	}
}

// TestCNFCeilingDegrades trips the clause ceiling: the oversized encoding
// must degrade to Unknown with a CNF-ceiling cause, not OOM or error out.
func TestCNFCeilingDegrades(t *testing.T) {
	res := verify(t, branchyMixed(6), func(o *Options) {
		o.MaxClauses = 8
	})
	ar := res.PerAssert[0]
	if !ar.Unknown || !strings.Contains(ar.Cause, CauseCNFCeiling) {
		t.Fatalf("Unknown=%v Cause=%q, want Unknown with %q", ar.Unknown, ar.Cause, CauseCNFCeiling)
	}
	if causes := res.IncompleteCauses(); len(causes) == 0 {
		t.Fatal("CNF ceiling trip not surfaced in IncompleteCauses")
	}
}

// TestVarCeilingDegrades trips the variable ceiling analogously.
func TestVarCeilingDegrades(t *testing.T) {
	res := verify(t, branchyMixed(6), func(o *Options) {
		o.MaxVars = 2
	})
	ar := res.PerAssert[0]
	if !ar.Unknown || !strings.Contains(ar.Cause, CauseCNFCeiling) {
		t.Fatalf("Unknown=%v Cause=%q, want Unknown with %q", ar.Unknown, ar.Cause, CauseCNFCeiling)
	}
}

// TestConflictBudgetUnknown exhausts the SAT conflict budget during
// enumeration: the assertion degrades to Unknown/conflict budget and the
// partial counterexample set is retained — never a silent "no more
// counterexamples".
func TestConflictBudgetUnknown(t *testing.T) {
	res := verify(t, branchyMixed(6), func(o *Options) {
		o.BlockAllBN = true // full-BN blocking forces search conflicts
		o.Solver = sat.Options{MaxConflicts: 1}
	})
	ar := res.PerAssert[0]
	if !ar.Unknown || ar.Cause != CauseConflictBudget {
		t.Fatalf("Unknown=%v Cause=%q, want Unknown/%s", ar.Unknown, ar.Cause, CauseConflictBudget)
	}
	if len(ar.Counterexamples) == 0 {
		t.Fatal("pre-budget counterexamples were dropped")
	}
}

// TestStatementCeilingIncomplete caps the AI size: the truncated model
// must be flagged so no Safe claim is made over the dropped suffix.
func TestStatementCeilingIncomplete(t *testing.T) {
	var b strings.Builder
	b.WriteString("<?php\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "$x%d = 'lit';\n", i)
	}
	b.WriteString("echo htmlspecialchars($_GET['q']);\n")
	res := verify(t, b.String(), func(o *Options) {
		o.Flow.MaxCmds = 10
	})
	if !res.AI.Truncated {
		t.Fatal("AI not marked Truncated at MaxCmds")
	}
	if len(res.IncompleteCauses()) == 0 {
		t.Fatal("truncated model not marked Incomplete")
	}
	found := false
	for _, c := range res.IncompleteCauses() {
		if c == CauseAITruncated {
			found = true
		}
	}
	if !found {
		t.Fatalf("IncompleteCauses = %v, want %q present", res.IncompleteCauses(), CauseAITruncated)
	}
}

// TestUnresolvedIncludeIncomplete fails the loader on a nested include:
// the missing file is a hole in the model, so the result must be
// Incomplete even though every parsed assertion verifies.
func TestUnresolvedIncludeIncomplete(t *testing.T) {
	loader := func(path string) ([]byte, error) {
		if path == "a.php" {
			return []byte(`<?php include 'b.php'; echo htmlspecialchars($_GET['q']);`), nil
		}
		return nil, fmt.Errorf("injected loader failure for %q", path)
	}
	res := verify(t, `<?php include 'a.php';`, func(o *Options) {
		o.Flow.Loader = loader
	})
	if !res.Safe() {
		t.Fatalf("unexpected counterexamples: %v", cexKeys(res))
	}
	if len(res.IncompleteCauses()) == 0 {
		t.Fatal("unresolved nested include not marked Incomplete")
	}
	found := false
	for _, c := range res.IncompleteCauses() {
		if c == CauseMissingIncludes {
			found = true
		}
	}
	if !found {
		t.Fatalf("IncompleteCauses = %v, want %q present", res.IncompleteCauses(), CauseMissingIncludes)
	}
	if len(res.AI.UnresolvedIncludes) != 1 || res.AI.UnresolvedIncludes[0] != "b.php" {
		t.Fatalf("UnresolvedIncludes = %v, want [b.php]", res.AI.UnresolvedIncludes)
	}
}

// TestStageErrorUnwrap checks the structured error chain produced by
// panic recovery at stage boundaries.
func TestStageErrorUnwrap(t *testing.T) {
	err := guard("parse", func() { panic("boom") })
	se, ok := err.(*StageError)
	if !ok {
		t.Fatalf("guard returned %T, want *StageError", err)
	}
	if se.Stage != "parse" || !strings.Contains(se.Error(), "boom") {
		t.Fatalf("StageError = %v", se)
	}
	if se.Unwrap() == nil {
		t.Fatal("StageError.Unwrap() = nil")
	}
	if err := guard("parse", func() {}); err != nil {
		t.Fatalf("guard of clean fn = %v, want nil", err)
	}
}
