package patch_test

import (
	"context"
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

// defaultGuard wraps every fix point in the patcher's default routine.
func defaultGuard(*fixing.FixPoint) string { return "" }

// analyzeFixes verifies src and returns the minimal fixing set.
func analyzeFixes(t *testing.T, name, src string) []*fixing.FixPoint {
	t.Helper()
	pre := prelude.Default()
	pre.AddSink("DoSQL", pre.Lattice().Top(), 1)
	res, errs := verifySource(name, []byte(src), core.Options{Flow: flow.Options{Prelude: pre}})
	for _, err := range errs {
		t.Fatalf("verify: %v", err)
	}
	return fixing.Analyze(res).GreedyMinimalFix()
}

func TestWrapAssignmentRHS(t *testing.T) {
	src := `<?php
$sid = $_GET['sid'];
echo $sid;
`
	fixes := analyzeFixes(t, "t.php", src)
	out, errs := patch.PatchSourceGuards("t.php", []byte(src), fixes, "", defaultGuard)
	if len(errs) != 0 {
		t.Fatalf("patch: %v", errs)
	}
	want := "$sid = websafe($_GET['sid']);"
	if !strings.Contains(string(out), want) {
		t.Fatalf("patched output missing %q:\n%s", want, out)
	}
}

func TestWrapSinkArgument(t *testing.T) {
	src := `<?php echo $_GET['msg']; ?>`
	fixes := analyzeFixes(t, "t.php", src)
	out, errs := patch.PatchSourceGuards("t.php", []byte(src), fixes, "", defaultGuard)
	if len(errs) != 0 {
		t.Fatalf("patch: %v", errs)
	}
	if !strings.Contains(string(out), "echo websafe($_GET['msg']);") {
		t.Fatalf("sink-argument wrap missing:\n%s", out)
	}
}

func TestFormattingPreserved(t *testing.T) {
	src := "<?php\n// a comment the patcher must not disturb\n$x   =   $_GET['v'];   // trailing\necho $x;\n"
	fixes := analyzeFixes(t, "t.php", src)
	out, errs := patch.PatchSourceGuards("t.php", []byte(src), fixes, "", defaultGuard)
	if len(errs) != 0 {
		t.Fatalf("patch: %v", errs)
	}
	for _, frag := range []string{"// a comment the patcher must not disturb", "// trailing", "$x   =   websafe("} {
		if !strings.Contains(string(out), frag) {
			t.Fatalf("formatting lost, missing %q:\n%s", frag, out)
		}
	}
}

func TestCustomRoutineName(t *testing.T) {
	src := `<?php $v = $_POST['a']; echo $v;`
	fixes := analyzeFixes(t, "t.php", src)
	out, _ := patch.PatchSourceGuards("t.php", []byte(src), fixes, "my_clean", defaultGuard)
	if !strings.Contains(string(out), "my_clean(") || strings.Contains(string(out), "websafe(") {
		t.Fatalf("custom routine not honored:\n%s", out)
	}
}

func TestDedupIdenticalSpans(t *testing.T) {
	// extract() fix points share the extract-argument span: one wrap only.
	src := `<?php
$r = @mysql_fetch_array($q);
extract($r);
echo "$first $second $third";
`
	fixes := analyzeFixes(t, "t.php", src)
	out, errs := patch.PatchSourceGuards("t.php", []byte(src), fixes, "", defaultGuard)
	if len(errs) != 0 {
		t.Fatalf("patch: %v", errs)
	}
	if n := strings.Count(string(out), "websafe("); n != 1 {
		t.Fatalf("guards = %d, want 1 (deduped span):\n%s", n, out)
	}
}

func TestPatcherMultiFile(t *testing.T) {
	// Fix points are scheduled per file: patching a.php leaves other.php,
	// which has none, unchanged.
	src := `<?php echo $_GET['msg']; ?>`
	p := patch.New("")
	for _, f := range analyzeFixes(t, "a.php", src) {
		if err := p.AddGuard(f, ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Apply("other.php", []byte(src)); string(got) != src {
		t.Fatalf("unpatched file modified:\n%s", got)
	}
	if got := p.Apply("a.php", []byte(src)); !strings.Contains(string(got), "echo websafe($_GET['msg']);") {
		t.Fatalf("scheduled file not patched:\n%s", got)
	}
}

func TestAddRejectsSpanlessFixPoint(t *testing.T) {
	p := patch.New("")
	if err := p.AddGuard(&fixing.FixPoint{}, ""); err == nil {
		t.Fatalf("span-less fix point accepted")
	}
}

func TestGuardInWhileCondition(t *testing.T) {
	// The root assignment sits inside a while condition: insertion-style
	// patching would break; expression wrapping must keep it valid.
	src := `<?php
while ($row = mysql_fetch_array($res)) {
    echo $row;
}
`
	fixes := analyzeFixes(t, "t.php", src)
	out, errs := patch.PatchSourceGuards("t.php", []byte(src), fixes, "", defaultGuard)
	if len(errs) != 0 {
		t.Fatalf("patch: %v", errs)
	}
	if !strings.Contains(string(out), "while ($row = websafe(mysql_fetch_array($res)))") {
		t.Fatalf("loop-condition wrap wrong:\n%s", out)
	}
	// The patched file must still parse and verify safe.
	pre := prelude.Default()
	res, errs2 := verifySource("t.php", out, core.Options{Flow: flow.Options{Prelude: pre}})
	if len(errs2) != 0 {
		t.Fatalf("patched reparse: %v", errs2)
	}
	if !res.Safe() {
		t.Fatalf("patched loop still unsafe")
	}
}

func TestNestedWrapsCompose(t *testing.T) {
	// Two guards whose spans nest: the function-argument patch point sits
	// inside the outer assignment RHS of a later fix — splicing must emit
	// balanced parentheses.
	src := `<?php
function f($m) { echo $m; mysql_query($m); }
f($_GET['x'] . $_POST['y']);
`
	fixes := analyzeFixes(t, "t.php", src)
	out, errs := patch.PatchSourceGuards("t.php", []byte(src), fixes, "", defaultGuard)
	if len(errs) != 0 {
		t.Fatalf("patch: %v", errs)
	}
	if strings.Count(string(out), "(") != strings.Count(string(out), ")") {
		t.Fatalf("unbalanced parentheses:\n%s", out)
	}
	pre := prelude.Default()
	res, errs2 := verifySource("t.php", out, core.Options{Flow: flow.Options{Prelude: pre}})
	if len(errs2) != 0 {
		t.Fatalf("patched reparse: %v", errs2)
	}
	if !res.Safe() {
		t.Fatalf("patched nested case still unsafe:\n%s", out)
	}
}
