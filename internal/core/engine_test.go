package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"webssari/internal/flow"
	"webssari/internal/prelude"
	"webssari/internal/rename"
)

func verify(t *testing.T, src string, mutate ...func(*Options)) *Result {
	t.Helper()
	opts := Options{Flow: flow.Options{Prelude: prelude.Default()}}
	for _, fn := range mutate {
		fn(&opts)
	}
	p, _, errs := Compile("test.php", []byte(src), opts)
	for _, err := range errs {
		t.Fatalf("verify: %v", err)
	}
	return Solve(opts.context(), p, opts)
}

func cexKeys(res *Result) []string {
	var keys []string
	for _, c := range res.Counterexamples() {
		keys = append(keys, c.Key())
	}
	sort.Strings(keys)
	return keys
}

func oracleKeys(res *Result) []string {
	var keys []string
	for _, v := range res.AI.ExhaustiveViolations() {
		keys = append(keys, v.Key())
	}
	sort.Strings(keys)
	return keys
}

func TestSafeProgramUnsat(t *testing.T) {
	res := verify(t, `<?php $x = 'hello'; echo $x; echo htmlspecialchars($_GET['y']);`)
	if !res.Safe() {
		t.Fatalf("safe program reported unsafe: %+v", cexKeys(res))
	}
	if len(res.PerAssert) != 2 {
		t.Fatalf("asserts = %d, want 2", len(res.PerAssert))
	}
}

func TestDirectViolation(t *testing.T) {
	res := verify(t, `<?php echo $_GET['x'];`)
	cexs := res.Counterexamples()
	if len(cexs) != 1 {
		t.Fatalf("counterexamples = %d, want 1", len(cexs))
	}
	cex := cexs[0]
	if len(cex.Violating) != 1 || cex.Violating[0].Name != "_GET" {
		t.Fatalf("violating vars = %v, want [_GET@0]", cex.Violating)
	}
	if len(cex.Branches) != 0 {
		t.Fatalf("branch-free program should yield empty branch map")
	}
}

func TestTraceStepsRecordFlow(t *testing.T) {
	res := verify(t, `<?php
$sid = $_GET['sid'];
$iq = "SELECT * FROM groups WHERE sid=$sid";
mysql_query($iq);`)
	cexs := res.Counterexamples()
	if len(cexs) != 1 {
		t.Fatalf("counterexamples = %d, want 1", len(cexs))
	}
	cex := cexs[0]
	if len(cex.Steps) != 2 {
		t.Fatalf("steps = %d, want 2 (sid, iq)", len(cex.Steps))
	}
	if cex.Steps[0].Set.V.Name != "sid" || cex.Steps[1].Set.V.Name != "iq" {
		t.Fatalf("step order wrong: %v, %v", cex.Steps[0].Set.V, cex.Steps[1].Set.V)
	}
	for _, s := range cex.Steps {
		if s.Value != res.AI.Lat.Top() {
			t.Errorf("step %v should be tainted", s.Set.V)
		}
	}
	if len(cex.Violating) != 1 || cex.Violating[0] != (rename.SSAVar{Name: "iq", Idx: 1}) {
		t.Fatalf("violating = %v, want [iq@1]", cex.Violating)
	}
}

func TestBranchCounterexamples(t *testing.T) {
	res := verify(t, `<?php
if ($c) { $x = $_GET['a']; } else { $x = $_POST['b']; }
echo $x;`)
	cexs := res.Counterexamples()
	if len(cexs) != 2 {
		t.Fatalf("counterexamples = %d, want 2 (one per branch)", len(cexs))
	}
}

func TestAgainstExhaustiveOracle(t *testing.T) {
	sources := []string{
		`<?php echo $_GET['x'];`,
		`<?php $x = 'safe'; echo $x;`,
		`<?php if ($a) { $x = $_GET['q']; } echo $x;`,
		`<?php if ($a) { $x = $_GET['q']; } else { $x = 'ok'; } echo $x; mysql_query($x);`,
		`<?php
if ($a) { if ($b) { $x = $_GET['q']; } }
echo $x;`,
		`<?php
$x = $_COOKIE['c'];
if ($a) { $x = htmlspecialchars($x); }
echo $x;`,
		`<?php
while ($r = mysql_fetch_array($q)) { echo $r; }
echo 'done';`,
		`<?php
$x = $_GET['a'];
if ($stop) { exit; }
echo $x;`,
		`<?php
switch ($m) { case 1: $v = $_GET['x']; break; case 2: $v = 'ok'; break; default: $v = $_POST['y']; }
mysql_query($v);`,
		`<?php
function f($a) { return $a . '!'; }
echo f($_GET['x']);
echo f('safe');`,
	}
	for i, src := range sources {
		res := verify(t, src, func(o *Options) { o.AssumePriorAsserts = false })
		got := cexKeys(res)
		want := oracleKeys(res)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("source %d:\nBMC:    %v\noracle: %v\nAI:\n%s", i, got, want, res.AI)
		}
	}
}

// randomProgram generates a random branchy taint program for the
// property-style BMC-vs-oracle comparison.
func randomProgram(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("<?php\n")
	vars := []string{"a", "b", "c", "d"}
	sources := []string{"$_GET['x']", "$_POST['y']", "'safe'", "'const'", "$_COOKIE['z']"}
	depth := 0
	stmts := 4 + r.Intn(10)
	for i := 0; i < stmts; i++ {
		switch r.Intn(7) {
		case 0, 1:
			fmt.Fprintf(&b, "$%s = %s;\n", vars[r.Intn(len(vars))], sources[r.Intn(len(sources))])
		case 2:
			fmt.Fprintf(&b, "$%s = $%s . $%s;\n",
				vars[r.Intn(len(vars))], vars[r.Intn(len(vars))], vars[r.Intn(len(vars))])
		case 3:
			fmt.Fprintf(&b, "$%s = htmlspecialchars($%s);\n",
				vars[r.Intn(len(vars))], vars[r.Intn(len(vars))])
		case 4:
			fmt.Fprintf(&b, "echo $%s;\n", vars[r.Intn(len(vars))])
		case 5:
			if depth < 3 {
				fmt.Fprintf(&b, "if ($cond%d) {\n", i)
				depth++
			}
		case 6:
			if depth > 0 {
				b.WriteString("}\n")
				depth--
			}
		}
	}
	for depth > 0 {
		b.WriteString("}\n")
		depth--
	}
	b.WriteString("echo $a;\n")
	return b.String()
}

func TestRandomProgramsAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for i := 0; i < 120; i++ {
		src := randomProgram(r)
		res := verify(t, src, func(o *Options) { o.AssumePriorAsserts = false })
		if res.AI.Branches > 12 {
			continue // keep the oracle cheap
		}
		got := cexKeys(res)
		want := oracleKeys(res)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("iter %d mismatch:\nsrc:\n%s\nBMC:    %v\noracle: %v", i, src, got, want)
		}
	}
}

func TestAssumePriorAssertsSuppressesDownstream(t *testing.T) {
	// Both sinks see the same tainted variable. With the paper's
	// incremental restriction, traces violating assert 0 are excluded when
	// checking assert 1, so assert 1 reports nothing new on those paths.
	src := `<?php
$x = $_GET['q'];
echo $x;
echo $x;`
	with := verify(t, src, func(o *Options) { o.AssumePriorAsserts = true })
	without := verify(t, src, func(o *Options) { o.AssumePriorAsserts = false })
	if n := len(without.Counterexamples()); n != 2 {
		t.Fatalf("without restriction: %d, want 2", n)
	}
	if n := len(with.Counterexamples()); n != 1 {
		t.Fatalf("with restriction: %d, want 1 (duplicate propagation suppressed)", n)
	}
}

func TestBlockAllBNStillTerminatesAndFindsSameTraces(t *testing.T) {
	src := `<?php
if ($irrelevant) { $y = 1; }
if ($a) { $x = $_GET['q']; }
echo $x;`
	def := verify(t, src)
	all := verify(t, src, func(o *Options) { o.BlockAllBN = true })
	gotDef := cexKeys(def)
	gotAll := cexKeys(all)
	if strings.Join(gotDef, "\n") != strings.Join(gotAll, "\n") {
		t.Fatalf("modes disagree on distinct traces:\ndefault: %v\nallBN:   %v", gotDef, gotAll)
	}
}

func TestMaxCounterexamplesTruncates(t *testing.T) {
	// 2^4 = 16 violating traces; cap at 3.
	src := `<?php
if ($a) { $q = 1; }
if ($b) { $q = 1; }
if ($c) { $q = 1; }
if ($d) { $q = 1; }
echo $_GET['x'];`
	res := verify(t, src, func(o *Options) { o.MaxCounterexamples = 3 })
	ar := res.PerAssert[0]
	if len(ar.Counterexamples) != 3 || !ar.Truncated {
		t.Fatalf("got %d (truncated=%v), want 3 truncated", len(ar.Counterexamples), ar.Truncated)
	}
}

func TestEncodingSizesReported(t *testing.T) {
	res := verify(t, `<?php $x = $_GET['a']; if ($c) { $x = 'ok'; } echo $x;`)
	ar := res.PerAssert[0]
	if ar.EncodedVars == 0 || ar.EncodedClauses == 0 {
		t.Fatalf("encoding sizes missing: %+v", ar)
	}
}

func TestFigure6EndToEnd(t *testing.T) {
	res := verify(t, `<?php
if ($Nick) {
    $tmp = $_GET["nick"];
    echo(htmlspecialchars($tmp));
} else {
    $tmp = "You are the " . $GuestCount . " guest";
    echo($tmp);
}`)
	if !res.Safe() {
		t.Fatalf("Figure 6 program is safe; got %v", cexKeys(res))
	}
}

func TestFigure6VulnerableVariant(t *testing.T) {
	// Remove the sanitizer: the then-branch becomes a genuine XSS.
	res := verify(t, `<?php
if ($Nick) {
    $tmp = $_GET["nick"];
    echo($tmp);
} else {
    $tmp = "You are the " . $GuestCount . " guest";
    echo($tmp);
}`)
	cexs := res.Counterexamples()
	if len(cexs) != 1 {
		t.Fatalf("counterexamples = %d, want 1", len(cexs))
	}
	if taken, _ := branchTaken(cexs[0], 0); !taken {
		t.Fatalf("violating trace must take the Nick branch")
	}
}

func TestMultiArgEchoViolatingVariables(t *testing.T) {
	res := verify(t, `<?php
$a = $_GET['a'];
$b = 'safe';
$c = $_POST['c'];
echo $a, $b, $c;`)
	cexs := res.Counterexamples()
	if len(cexs) != 1 {
		t.Fatalf("counterexamples = %d, want 1", len(cexs))
	}
	cex := cexs[0]
	if len(cex.FailingArgs) != 2 {
		t.Fatalf("failing args = %v, want 2", cex.FailingArgs)
	}
	names := map[string]bool{}
	for _, v := range cex.Violating {
		names[v.Name] = true
	}
	if !names["a"] || !names["c"] || names["b"] {
		t.Fatalf("violating = %v, want {a, c}", cex.Violating)
	}
}

func TestJoinOnlyPartBlamed(t *testing.T) {
	// Only the tainted part of a concatenation is a violating variable.
	res := verify(t, `<?php
$bad = $_GET['x'];
$good = 'id=';
mysql_query($good . $bad);`)
	cexs := res.Counterexamples()
	if len(cexs) != 1 {
		t.Fatalf("counterexamples = %d, want 1", len(cexs))
	}
	viol := cexs[0].Violating
	if len(viol) != 1 || viol[0].Name != "bad" {
		t.Fatalf("violating = %v, want [bad@1]", viol)
	}
}

func TestStopMakesDownstreamUnreachable(t *testing.T) {
	res := verify(t, `<?php
$x = $_GET['a'];
exit;
echo $x;`)
	if !res.Safe() {
		t.Fatalf("assertion after unconditional stop must be unreachable")
	}
	if res.PerAssert[0].EncodedVars != 0 && len(res.PerAssert[0].Counterexamples) > 0 {
		t.Fatalf("unexpected counterexamples")
	}
}

func TestConditionalStopGuard(t *testing.T) {
	res := verify(t, `<?php
$x = $_GET['a'];
if ($ok) { exit; }
echo $x;`, func(o *Options) { o.AssumePriorAsserts = false })
	got := cexKeys(res)
	want := oracleKeys(res)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stop-guard mismatch:\nBMC:    %v\noracle: %v", got, want)
	}
	cexs := res.Counterexamples()
	if len(cexs) != 1 {
		t.Fatalf("violating trace must avoid the exit branch: %+v", cexs)
	}
	if taken, _ := branchTaken(cexs[0], 0); taken {
		t.Fatalf("violating trace must avoid the exit branch: %+v", cexs)
	}
}

func TestSolverStatsSurface(t *testing.T) {
	res := verify(t, `<?php
if ($a) { $x = $_GET['1']; } else { $x = $_GET['2']; }
if ($b) { $x = htmlspecialchars($x); }
echo $x;`)
	ar := res.PerAssert[0]
	if len(ar.Counterexamples) == 0 {
		t.Fatalf("expected counterexamples")
	}
}
