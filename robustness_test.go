package webssari_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"webssari"
)

// mixedBranches builds a PHP body whose taintedness genuinely depends on
// n branch decisions, forcing the SAT encoding to materialize clauses
// and the enumeration to search.
func mixedBranches(n int) string {
	var b strings.Builder
	b.WriteString("$x = $_GET['a'];\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "if ($c%d) { $x = htmlspecialchars($x); } else { $x = $x . $_GET['b%d']; }\n", i, i)
	}
	b.WriteString("echo $x;\n")
	return b.String()
}

// writeIncludeChain writes depth files f0.php → f1.php → … where each
// includes the next and the innermost holds body. It returns the path of
// the chain's head.
func writeIncludeChain(t *testing.T, dir string, depth int, body string) string {
	t.Helper()
	for i := 0; i < depth; i++ {
		var src string
		if i == depth-1 {
			src = "<?php\n" + body
		} else {
			src = fmt.Sprintf("<?php include 'f%d.php';\n", i+1)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("f%d.php", i)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "f0.php")
}

// TestAdversarialInputCompletesIncomplete is the PR's acceptance
// scenario: a 30-deep include chain ending in a resource-hungry
// constraint, run under a 1-second deadline with a 1-conflict budget and
// a tiny clause ceiling. The run must complete promptly with an
// Incomplete verdict — no hang, no panic, and above all no Safe claim.
func TestAdversarialInputCompletesIncomplete(t *testing.T) {
	dir := t.TempDir()
	head := writeIncludeChain(t, dir, 30, mixedBranches(8))
	src, err := os.ReadFile(head)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	rep, err := webssari.Verify(src, head,
		webssari.WithDir(dir),
		webssari.WithDeadline(1*time.Second),
		webssari.WithSolverConfig(webssari.SolverConfig{MaxConflicts: 1}),
		webssari.WithResourceLimits(webssari.ResourceLimits{MaxCNFClauses: 16}),
	)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("adversarial input errored instead of degrading: %v", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("took %v; the deadline did not bound the run", elapsed)
	}
	if rep.Safe {
		t.Fatal("Safe claimed over a degraded model")
	}
	if rep.Verdict != webssari.VerdictIncomplete {
		t.Fatalf("Verdict = %q, want %q (limits: %v)", rep.Verdict, webssari.VerdictIncomplete, rep.Limits)
	}
	if !rep.Incomplete || len(rep.Limits) == 0 {
		t.Fatalf("Incomplete=%v Limits=%v; degradation causes not surfaced", rep.Incomplete, rep.Limits)
	}
}

// TestBudgetExhaustionNeverSafe checks the undecided-propagation
// satellite: with a 1-conflict budget, the solver gives up mid-
// enumeration and the report must say so rather than passing the file.
func TestBudgetExhaustionNeverSafe(t *testing.T) {
	src := "<?php\n" + mixedBranches(6)
	rep, err := webssari.Verify([]byte(src), "budget.php",
		webssari.WithPaperEnumeration(), // full-BN blocking forces search
		webssari.WithSolverConfig(webssari.SolverConfig{MaxConflicts: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe {
		t.Fatal("exhausted budget reported Safe")
	}
	if !rep.Incomplete {
		t.Fatal("exhausted budget not reported Incomplete")
	}
	found := false
	for _, l := range rep.Limits {
		if strings.Contains(l, "conflict budget") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Limits = %v, want conflict budget cause", rep.Limits)
	}
}

// TestVerifyContextCanceled verifies the public context plumbing: an
// already-canceled context degrades every assertion rather than
// erroring out or claiming Safe.
func TestVerifyContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := webssari.VerifyContext(ctx, []byte(`<?php echo $_GET['x'];`), "t.php")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != webssari.VerdictIncomplete {
		t.Fatalf("Verdict = %q, want %q", rep.Verdict, webssari.VerdictIncomplete)
	}
	found := false
	for _, l := range rep.Limits {
		if strings.Contains(l, "deadline") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Limits = %v, want deadline cause", rep.Limits)
	}
}

// TestStatementCeilingIncomplete caps the model size via the public
// ResourceLimits option.
func TestStatementCeilingIncomplete(t *testing.T) {
	var b strings.Builder
	b.WriteString("<?php\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "$v%d = 'lit';\n", i)
	}
	b.WriteString("echo htmlspecialchars($_GET['q']);\n")
	rep, err := webssari.Verify([]byte(b.String()), "big.php",
		webssari.WithResourceLimits(webssari.ResourceLimits{MaxStatements: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe {
		t.Fatal("Safe claimed over a truncated model")
	}
	if rep.Verdict != webssari.VerdictIncomplete {
		t.Fatalf("Verdict = %q, want %q (limits %v)", rep.Verdict, webssari.VerdictIncomplete, rep.Limits)
	}
}

// TestUnresolvedIncludeNotSafe fails include loading mid-chain: the
// model has a hole, so the report must be Incomplete.
func TestUnresolvedIncludeNotSafe(t *testing.T) {
	dir := t.TempDir()
	src := `<?php include 'lib.php'; echo htmlspecialchars($_GET['q']);`
	if err := os.WriteFile(filepath.Join(dir, "main.php"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// lib.php exists but includes a file that does not.
	if err := os.WriteFile(filepath.Join(dir, "lib.php"), []byte(`<?php include 'gone.php';`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := webssari.Verify([]byte(src), filepath.Join(dir, "main.php"), webssari.WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe || rep.Verdict != webssari.VerdictIncomplete {
		t.Fatalf("Safe=%v Verdict=%q, want incomplete (limits %v)", rep.Safe, rep.Verdict, rep.Limits)
	}
	found := false
	for _, l := range rep.Limits {
		if strings.Contains(l, "include") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Limits = %v, want unresolved-include cause", rep.Limits)
	}
}

// TestParseErrorsIncomplete: garbage that still half-parses must yield a
// report marked Incomplete (parse errors), never Safe.
func TestParseErrorsIncomplete(t *testing.T) {
	rep, err := webssari.Verify([]byte("<?php $x = ; } } if ("), "garbage.php")
	if err != nil {
		// A fatal failure is also acceptable — but it must be a structured
		// *EngineError, not a panic.
		var ee *webssari.EngineError
		if !asEngineError(err, &ee) {
			t.Fatalf("error is %T, want *webssari.EngineError", err)
		}
		return
	}
	if rep.Safe {
		t.Fatal("Safe claimed over a file with parse errors")
	}
	if rep.Verdict == webssari.VerdictSafe {
		t.Fatalf("Verdict = %q over parse errors", rep.Verdict)
	}
}

func asEngineError(err error, target **webssari.EngineError) bool {
	for err != nil {
		if ee, ok := err.(*webssari.EngineError); ok {
			*target = ee
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestVerifyDirFaultIsolation is the fault-isolation acceptance check: a
// directory holding a clean file, a vulnerable file, a malformed file,
// and an unreadable file must still produce reports for everything that
// can be analyzed, with the casualty recorded in Failures.
func TestVerifyDirFaultIsolation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("clean.php", `<?php echo htmlspecialchars($_GET['q']);`)
	write("vuln.php", `<?php echo $_GET['q'];`)
	write("garbage.php", "<?php $x = ; } } if (")
	// A dangling symlink fails at read time regardless of privileges.
	if err := os.Symlink(filepath.Join(dir, "nonexistent-target"), filepath.Join(dir, "broken.php")); err != nil {
		t.Skipf("symlink unavailable: %v", err)
	}

	pr, err := webssari.VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir must isolate per-file faults, got error: %v", err)
	}
	if len(pr.Failures) != 1 {
		t.Fatalf("Failures = %+v, want exactly the broken symlink", pr.Failures)
	}
	if f := pr.Failures[0]; f.Stage != "read" || !strings.Contains(f.File, "broken.php") {
		t.Fatalf("Failure = %+v, want read failure on broken.php", f)
	}
	if len(pr.Files) != 3 {
		t.Fatalf("Files = %d, want 3 (clean, vuln, garbage all reported)", len(pr.Files))
	}
	if pr.VulnerableFiles != 1 {
		t.Fatalf("VulnerableFiles = %d, want 1", pr.VulnerableFiles)
	}
	if pr.Safe() {
		t.Fatal("project with failures and findings reported Safe")
	}
	if pr.Verdict() != webssari.VerdictUnsafe {
		t.Fatalf("Verdict = %q, want unsafe (a finding outranks degradation)", pr.Verdict())
	}
}

// TestProjectReportSafeSemantics: a project is only Safe when nothing
// was vulnerable, nothing degraded, and nothing failed.
func TestProjectReportSafeSemantics(t *testing.T) {
	cases := []struct {
		name    string
		pr      webssari.ProjectReport
		safe    bool
		verdict string
	}{
		{"empty", webssari.ProjectReport{}, true, webssari.VerdictSafe},
		{"vulnerable", webssari.ProjectReport{VulnerableFiles: 1}, false, webssari.VerdictUnsafe},
		{"incomplete", webssari.ProjectReport{IncompleteFiles: 1}, false, webssari.VerdictIncomplete},
		{"failed", webssari.ProjectReport{Failures: []webssari.FileFailure{{File: "x.php", Stage: "read"}}},
			false, webssari.VerdictIncomplete},
	}
	for _, tc := range cases {
		if got := tc.pr.Safe(); got != tc.safe {
			t.Errorf("%s: Safe() = %v, want %v", tc.name, got, tc.safe)
		}
		if got := tc.pr.Verdict(); got != tc.verdict {
			t.Errorf("%s: Verdict() = %q, want %q", tc.name, got, tc.verdict)
		}
	}
}

// TestVerifyDirContextCanceled: a canceled context stops the project
// walk, recording every unvisited file instead of silently skipping it.
func TestVerifyDirContextCanceled(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, fmt.Sprintf("f%d.php", i))
		if err := os.WriteFile(path, []byte(`<?php echo 'hi';`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pr, err := webssari.VerifyDirContext(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Failures) != 3 {
		t.Fatalf("Failures = %d, want 3 (all files unvisited)", len(pr.Failures))
	}
	for _, f := range pr.Failures {
		if f.Stage != "deadline" {
			t.Fatalf("Failure stage = %q, want deadline", f.Stage)
		}
	}
	if pr.Safe() {
		t.Fatal("canceled project run reported Safe")
	}
}

// TestVerifyDirMissingRootStillFatal: an unwalkable root remains a real
// error — fault isolation applies per file, not to a bogus invocation.
func TestVerifyDirMissingRootStillFatal(t *testing.T) {
	if _, err := webssari.VerifyDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing root did not error")
	}
}

// TestDeadlineOptionValidation rejects nonpositive deadlines.
func TestDeadlineOptionValidation(t *testing.T) {
	if _, err := webssari.Verify([]byte(`<?php`), "t.php", webssari.WithDeadline(0)); err == nil {
		t.Fatal("WithDeadline(0) accepted")
	}
	if _, err := webssari.Verify([]byte(`<?php`), "t.php", webssari.WithDeadline(-time.Second)); err == nil {
		t.Fatal("WithDeadline(-1s) accepted")
	}
}
