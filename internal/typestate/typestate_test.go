package typestate

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"webssari/internal/ai"
	"webssari/internal/core"
	"webssari/internal/flow"
	"webssari/internal/prelude"
)

func buildAI(t *testing.T, src string) *ai.Program {
	t.Helper()
	prog, errs := flow.BuildSource("t.php", []byte(src), flow.Options{Prelude: prelude.Default()})
	for _, err := range errs {
		t.Fatalf("build: %v", err)
	}
	return prog
}

func TestDirectTaint(t *testing.T) {
	p := buildAI(t, `<?php echo $_GET['x'];`)
	reports := Check(p)
	if len(reports) != 1 || reports[0].Assert.Fn != "echo" {
		t.Fatalf("reports = %+v, want one echo", reports)
	}
}

func TestSafeProgram(t *testing.T) {
	p := buildAI(t, `<?php $x = 'safe'; echo $x; echo htmlspecialchars($_GET['y']);`)
	if n := Count(p); n != 0 {
		t.Fatalf("count = %d, want 0", n)
	}
}

func TestJoinAtMerge(t *testing.T) {
	// Taint in one branch taints the merged state.
	p := buildAI(t, `<?php
if ($c) { $x = $_GET['a']; } else { $x = 'safe'; }
echo $x;`)
	if n := Count(p); n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
}

func TestSanitizedBothBranches(t *testing.T) {
	p := buildAI(t, `<?php
if ($c) { $x = htmlspecialchars($_GET['a']); } else { $x = 'safe'; }
echo $x;`)
	if n := Count(p); n != 0 {
		t.Fatalf("count = %d, want 0", n)
	}
}

func TestSymptomPerStatement(t *testing.T) {
	// One root, many sinks: TS reports each sink separately — the
	// inefficiency the paper's BMC grouping removes.
	var b strings.Builder
	b.WriteString("<?php\n$sid = $_GET['sid'];\n")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&b, "mysql_query(\"SELECT %d WHERE sid=$sid\");\n", i)
	}
	p := buildAI(t, b.String())
	if n := Count(p); n != 16 {
		t.Fatalf("count = %d, want 16 symptoms", n)
	}
}

func TestStopKillsPath(t *testing.T) {
	p := buildAI(t, `<?php
$x = $_GET['a'];
exit;
echo $x;`)
	if n := Count(p); n != 0 {
		t.Fatalf("count = %d, want 0 (dead code)", n)
	}
}

func TestStopInOneBranch(t *testing.T) {
	// Only the arm that does not stop reaches the echo, whichever arm it
	// is.
	for _, tc := range []struct {
		src  string
		want int
	}{
		{`<?php
if ($c) { $x = $_GET['a']; exit; } else { $x = 'safe'; }
echo $x;`, 0},
		{`<?php
if ($c) { $x = 'safe'; } else { $x = $_GET['a']; exit; }
echo $x;`, 0},
		{`<?php
if ($c) { $x = $_GET['a']; } else { $x = 'safe'; exit; }
echo $x;`, 1},
	} {
		if n := Count(buildAI(t, tc.src)); n != tc.want {
			t.Errorf("count = %d, want %d for\n%s", n, tc.want, tc.src)
		}
	}
}

func TestBothBranchesStop(t *testing.T) {
	p := buildAI(t, `<?php
if ($c) { exit; } else { exit; }
echo $_GET['x'];`)
	if n := Count(p); n != 0 {
		t.Fatalf("count = %d, want 0 (unreachable)", n)
	}
}

func TestReportOrderIsTextual(t *testing.T) {
	p := buildAI(t, `<?php
echo $_GET['a'];
mysql_query($_POST['b']);
echo $_COOKIE['c'];`)
	reports := Check(p)
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	lines := []int{reports[0].Assert.Site.Pos.Line, reports[1].Assert.Site.Pos.Line, reports[2].Assert.Site.Pos.Line}
	if !sort.IntsAreSorted(lines) {
		t.Fatalf("reports out of order: %v", lines)
	}
}

func TestSummaryRendering(t *testing.T) {
	reports := Check(buildAI(t, `<?php echo $_GET['x'];`))
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	if s := reports[0].String(); !strings.Contains(s, "unsanitized data may reach echo") {
		t.Fatalf("report renders as %q", s)
	}
	if reports := Check(buildAI(t, `<?php echo htmlspecialchars($_GET['x']);`)); len(reports) != 0 {
		t.Fatalf("sanitized echo reported: %v", reports)
	}
}

// TestTSAgreesWithBMCOnViolatedAsserts is the key structural comparison:
// over the two-point taint lattice, TS flags an assertion iff BMC finds at
// least one counterexample for it, and BMC's symptom set never exceeds
// TS's (here they coincide because join-over-paths is exact for chains
// with independent nondeterministic branches).
func TestTSAgreesWithBMCOnViolatedAsserts(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 80; i++ {
		src := randomTaintProgram(r)
		p := buildAI(t, src)
		if p.Branches > 12 {
			continue
		}
		tsSet := make(map[string]bool)
		for _, rep := range Check(p) {
			tsSet[rep.Assert.Site.String()+rep.Assert.Fn] = true
		}
		res, err := core.VerifyAI(p, core.Options{})
		if err != nil {
			t.Fatalf("verify: %v", err)
		}
		bmcSet := make(map[string]bool)
		for _, ar := range res.PerAssert {
			if len(ar.Counterexamples) > 0 {
				bmcSet[ar.Assert.Origin.Site.String()+ar.Assert.Origin.Fn] = true
			}
		}
		if len(tsSet) != len(bmcSet) {
			t.Fatalf("iter %d: TS=%d BMC=%d\nsrc:\n%s", i, len(tsSet), len(bmcSet), src)
		}
		for k := range tsSet {
			if !bmcSet[k] {
				t.Fatalf("iter %d: TS-only violation %s\nsrc:\n%s", i, k, src)
			}
		}
	}
}

func randomTaintProgram(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("<?php\n")
	vars := []string{"a", "b", "c"}
	rhs := []string{"$_GET['x']", "'safe'", "$a", "$b . 'k'", "htmlspecialchars($c)"}
	depth := 0
	for i, n := 0, 5+r.Intn(10); i < n; i++ {
		switch r.Intn(6) {
		case 0, 1:
			fmt.Fprintf(&b, "$%s = %s;\n", vars[r.Intn(len(vars))], rhs[r.Intn(len(rhs))])
		case 2:
			fmt.Fprintf(&b, "echo $%s;\n", vars[r.Intn(len(vars))])
		case 3:
			fmt.Fprintf(&b, "mysql_query($%s);\n", vars[r.Intn(len(vars))])
		case 4:
			if depth < 2 {
				fmt.Fprintf(&b, "if ($k%d) {\n", i)
				depth++
			}
		case 5:
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
	return b.String()
}
