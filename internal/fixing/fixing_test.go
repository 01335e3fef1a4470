package fixing_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"webssari/internal/core"
	"webssari/internal/fixing"
	"webssari/internal/flow"
	"webssari/internal/patch"
	"webssari/internal/prelude"
)

// verifySource compiles and solves one PHP source text: core.Compile
// followed by core.Solve. Recoverable parse errors are returned beside
// the result.
func verifySource(name string, src []byte, opts core.Options) (*core.Result, []error) {
	p, _, errs := core.Compile(name, src, opts)
	if p == nil {
		return nil, errs
	}
	return core.Solve(context.Background(), p, opts), errs
}

// setup verifies src (with DoSQL registered as a sink, as Figure 7 needs)
// and returns the analysis.
func setup(t *testing.T, src string) (*core.Result, *fixing.Analysis) {
	t.Helper()
	pre := prelude.Default()
	pre.AddSink("DoSQL", pre.Lattice().Top(), 1)
	opts := core.Options{Flow: flow.Options{Prelude: pre}}
	res, errs := verifySource("test.php", []byte(src), opts)
	for _, err := range errs {
		t.Fatalf("verify: %v", err)
	}
	return res, fixing.Analyze(res)
}

// figure7 extends the paper's PHP Surveyor example to its full 16
// vulnerable locations rooted in the single tainted $sid.
func figure7(sinks int) string {
	var b strings.Builder
	b.WriteString("<?php\n$sid = $_GET['sid'];\nif (!$sid) { $sid = $_POST['sid']; }\n")
	for i := 0; i < sinks; i++ {
		fmt.Fprintf(&b, "$q%d = \"SELECT * FROM t%d WHERE sid=$sid\";\nDoSQL($q%d);\n", i, i, i)
	}
	return b.String()
}

func TestFigure7MinimalFix(t *testing.T) {
	res, a := setup(t, figure7(16))

	// TS-style naive fixing: one patch per vulnerable statement (the paper
	// reports 16 instrumentations for PHP Surveyor).
	naive := a.NaiveFix()
	if len(naive) != 16 {
		t.Fatalf("naive fixing set = %d, want 16", len(naive))
	}

	// The optimal fixing set is {$sid}: 2 patches in our rendering (the
	// two assignments to $sid from $_GET and $_POST — the paper counts the
	// variable once; both introductions must be guarded to be effective).
	greedy := a.GreedyMinimalFix()
	if len(greedy) > 2 {
		t.Fatalf("greedy fixing set = %d, want ≤ 2 (root-cause $sid)\n%s", len(greedy), describe(greedy))
	}
	for _, f := range greedy {
		if f.Set == nil || f.Set.Origin.SrcVar != "sid" {
			t.Fatalf("fix point should sanitize $sid, got %s", f.Describe())
		}
	}

	exact := a.ExactMinimalFix(64)
	if len(exact) > len(greedy) {
		t.Fatalf("exact (%d) worse than greedy (%d)", len(exact), len(greedy))
	}

	// Sanity: symptom count matches the error-trace view.
	if got := len(res.Counterexamples()); got < 16 {
		t.Fatalf("counterexamples = %d, want ≥ 16", got)
	}
}

func TestReplacementSetChain(t *testing.T) {
	_, a := setup(t, `<?php
$sid = $_GET['sid'];
$mid = $sid;
$iq = "SELECT * FROM g WHERE sid=$mid";
DoSQL($iq);`)
	if len(a.Constraints) != 1 {
		t.Fatalf("constraints = %d, want 1", len(a.Constraints))
	}
	con := a.Constraints[0]
	var names []string
	for _, v := range con.Replacement {
		names = append(names, v.String())
	}
	want := "iq@1 mid@1 sid@1"
	if strings.Join(names, " ") != want {
		t.Fatalf("replacement = %v, want %q", names, want)
	}
	if len(con.Options) != 3 {
		t.Fatalf("options = %d, want 3", len(con.Options))
	}
}

func TestReplacementStopsAtMultiVarJoin(t *testing.T) {
	_, a := setup(t, `<?php
$a = $_GET['a'];
$b = $_POST['b'];
$q = $a . $b;
DoSQL($q);`)
	// Two violating variables (a and b feed q... q itself violates; its
	// RHS joins two variables, so the replacement set is just {q}).
	if len(a.Constraints) != 1 {
		t.Fatalf("constraints = %d, want 1", len(a.Constraints))
	}
	repl := a.Constraints[0].Replacement
	if len(repl) != 1 || repl[0].Name != "q" {
		t.Fatalf("replacement = %v, want [q@1]", repl)
	}
}

func TestEffectiveVarAcrossBranches(t *testing.T) {
	// The violating read resolves to the branch-dependent effective
	// definition: on the trace that skips the sanitizing branch, the
	// effective def is the original tainted one.
	res, a := setup(t, `<?php
$x = $_GET['x'];
if ($c) { $x = htmlspecialchars($x); }
echo $x;`)
	cexs := res.Counterexamples()
	if len(cexs) != 1 {
		t.Fatalf("counterexamples = %d, want 1", len(cexs))
	}
	if cexs[0].Branches[0] {
		t.Fatalf("violating trace must skip the sanitizer")
	}
	// x@2 (read at echo) is effective x@1 on this trace.
	if len(a.Constraints) != 1 {
		t.Fatalf("constraints = %d", len(a.Constraints))
	}
	repl := a.Constraints[0].Replacement
	if len(repl) != 1 || repl[0].Idx != 1 {
		t.Fatalf("replacement = %v, want [x@1]", repl)
	}
}

func TestSinkArgFallbackForDirectSuperglobal(t *testing.T) {
	_, a := setup(t, `<?php echo $_GET['msg'];`)
	if len(a.Constraints) != 1 {
		t.Fatalf("constraints = %d", len(a.Constraints))
	}
	con := a.Constraints[0]
	if len(con.Replacement) != 0 {
		t.Fatalf("replacement = %v, want empty (external data)", con.Replacement)
	}
	if len(con.Options) != 1 || con.Options[0].Assert == nil {
		t.Fatalf("want sink-argument fallback, got %+v", con.Options)
	}
}

func TestGreedySharesRootAcrossSinks(t *testing.T) {
	// One root feeding two single-variable chains: fixing the root covers
	// both sinks (naive = 2, minimal = 1).
	_, a := setup(t, `<?php
$a = $_GET['a'];
$q1 = "x $a";
DoSQL($q1);
$q2 = "y $a";
DoSQL($q2);`)
	naive := a.NaiveFix()
	greedy := a.GreedyMinimalFix()
	exact := a.ExactMinimalFix(64)
	if len(naive) != 2 {
		t.Fatalf("naive = %d, want 2", len(naive))
	}
	if len(greedy) != 1 {
		t.Fatalf("greedy = %d, want 1\n%s", len(greedy), describe(greedy))
	}
	if len(exact) != 1 {
		t.Fatalf("exact = %d, want 1", len(exact))
	}
	if greedy[0].Set == nil || greedy[0].Set.Origin.SrcVar != "a" {
		t.Fatalf("fix point should sanitize the root $a, got %s", greedy[0].Describe())
	}
}

func TestMultiVarJoinNeedsItsOwnFix(t *testing.T) {
	// Lemma 1 only admits sole-dependency replacements: $q3 = $a . $b
	// depends on two variables, so sanitizing $a alone cannot replace
	// sanitizing $q3. The minimum fixing set is 3, not 2.
	_, a := setup(t, `<?php
$a = $_GET['a'];
$b = $_POST['b'];
$q1 = "x $a";
DoSQL($q1);
$q2 = "y $b";
DoSQL($q2);
$q3 = $a . $b;
DoSQL($q3);`)
	exact := a.ExactMinimalFix(64)
	if len(exact) != 3 {
		t.Fatalf("exact = %d, want 3\n%s", len(exact), describe(exact))
	}
}

func TestExactBeatsGreedyOnAdversarialInstance(t *testing.T) {
	// Classic set-cover adversarial shape: greedy may pick the "big"
	// shared element first and then need extras; exact finds the optimum.
	// Build: roots r1, r2; sinks s.t. greedy ties are broken by key order.
	// At minimum, exact must never be worse than greedy (checked here on a
	// messy instance).
	_, a := setup(t, `<?php
$r1 = $_GET['a'];
$r2 = $_GET['b'];
$m = $r1 . $r2;
$u1 = $r1;
$u2 = $r2;
DoSQL($m);
DoSQL($u1);
DoSQL($u2);`)
	greedy := a.GreedyMinimalFix()
	exact := a.ExactMinimalFix(64)
	if len(exact) > len(greedy) {
		t.Fatalf("exact (%d) worse than greedy (%d)", len(exact), len(greedy))
	}
	// Constraints: m→{m}, u1→{u1,r1}, u2→{u2,r2}; minimum is 3.
	if len(exact) != 3 {
		t.Fatalf("exact = %d, want 3\n%s", len(exact), describe(exact))
	}
}

func TestGreedyCoversEveryConstraint(t *testing.T) {
	sources := []string{
		figure7(5),
		`<?php $x = $_GET['x']; echo $x; echo $x . $_POST['y'];`,
		`<?php
if ($c) { $v = $_GET['a']; } else { $v = $_COOKIE['b']; }
$w = $v;
echo $w;
mysql_query($w);`,
	}
	for i, src := range sources {
		_, a := setup(t, src)
		fix := a.GreedyMinimalFix()
		chosen := make(map[string]bool)
		for _, f := range fix {
			chosen[f.Key()] = true
		}
		for ci, con := range a.Constraints {
			if len(con.Options) == 0 {
				continue
			}
			hit := false
			for _, f := range con.Options {
				if chosen[f.Key()] {
					hit = true
				}
			}
			if !hit {
				t.Errorf("source %d constraint %d uncovered", i, ci)
			}
		}
	}
}

// TestPatchThenReverifySafe is the end-to-end soundness property: patching
// the minimal fixing set and re-running the bounded model checker yields
// zero counterexamples.
func TestPatchThenReverifySafe(t *testing.T) {
	sources := []string{
		figure7(16),
		`<?php echo $_GET['msg'];`,
		`<?php
$sid = $_GET['sid'];
$mid = $sid;
echo $mid;
mysql_query("SELECT $mid");`,
		`<?php
if ($c) { $x = $_GET['a']; } else { $x = $_POST['b']; }
echo $x;
echo $x;`,
		`<?php
$query = "SELECT tickets_subject FROM t";
$result = @mysql_query($query);
while ($row = @mysql_fetch_array($result)) {
    extract($row);
    echo "$tickets_username<BR>$tickets_subject";
}`,
		`<?php
function render($m) { echo $m; }
render($_GET['c']);
render($_POST['d']);`,
	}
	pre := prelude.Default()
	pre.AddSink("DoSQL", pre.Lattice().Top(), 1)
	opts := core.Options{Flow: flow.Options{Prelude: pre}}

	for i, src := range sources {
		res, errs := verifySource("t.php", []byte(src), opts)
		for _, err := range errs {
			t.Fatalf("source %d: %v", i, err)
		}
		if res.Safe() {
			t.Fatalf("source %d should be vulnerable", i)
		}
		a := fixing.Analyze(res)
		fix := a.GreedyMinimalFix()
		patched, perrs := patch.PatchSourceGuards("t.php", []byte(src), fix, "", func(*fixing.FixPoint) string { return "" })
		for _, err := range perrs {
			t.Fatalf("source %d patch: %v", i, err)
		}

		res2, errs2 := verifySource("t.php", patched, opts)
		for _, err := range errs2 {
			t.Fatalf("source %d reparse: %v\npatched:\n%s", i, err, patched)
		}
		if !res2.Safe() {
			t.Errorf("source %d still unsafe after patching %d fix points:\n%s\nremaining: %d",
				i, len(fix), patched, len(res2.Counterexamples()))
		}
	}
}

func TestPatchCountReduction(t *testing.T) {
	// The Figure 10 headline: BMC-guided patching needs fewer guards than
	// symptom patching. 16 symptoms, ≤2 root patches here.
	_, a := setup(t, figure7(16))
	naive := len(a.NaiveFix())
	minimal := len(a.GreedyMinimalFix())
	if minimal >= naive {
		t.Fatalf("minimal (%d) should beat naive (%d)", minimal, naive)
	}
	reduction := 1 - float64(minimal)/float64(naive)
	if reduction < 0.5 {
		t.Fatalf("reduction = %.1f%%, want large", reduction*100)
	}
}

// describe renders a fix set one fix point a line, for failure messages.
func describe(fix []*fixing.FixPoint) string {
	var b strings.Builder
	for _, f := range fix {
		b.WriteString(f.Describe() + "\n")
	}
	return b.String()
}
