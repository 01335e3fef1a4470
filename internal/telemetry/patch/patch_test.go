package patch_test

import (
	"context"
	"strings"
	"testing"

	"webssari/internal/core"
	"webssari/internal/fixing"
	"webssari/internal/flow"
	"webssari/internal/prelude"
	"webssari/internal/runtime"
	"webssari/internal/telemetry/patch"
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
	out, errs := patch.PatchSource("t.php", []byte(src), fixes, "")
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
	out, errs := patch.PatchSource("t.php", []byte(src), fixes, "")
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
	out, errs := patch.PatchSource("t.php", []byte(src), fixes, "")
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
	out, _ := patch.PatchSource("t.php", []byte(src), fixes, "my_clean")
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
	out, errs := patch.PatchSource("t.php", []byte(src), fixes, "")
	if len(errs) != 0 {
		t.Fatalf("patch: %v", errs)
	}
	if n := strings.Count(string(out), "websafe("); n != 1 {
		t.Fatalf("guards = %d, want 1 (deduped span):\n%s", n, out)
	}
}

func TestPatcherMultiFile(t *testing.T) {
	p := patch.New("")
	// Simulate two files by separate Apply calls on an empty schedule: the
	// unpatched file passes through unchanged.
	src := []byte("<?php echo 'ok';")
	if got := p.Apply("other.php", src); string(got) != string(src) {
		t.Fatalf("unpatched file modified")
	}
	out := p.ApplyAll(map[string][]byte{"a.php": src})
	if string(out["a.php"]) != string(src) {
		t.Fatalf("ApplyAll modified unscheduled file")
	}
	if p.PatchCount() != 0 || len(p.Files()) != 0 {
		t.Fatalf("empty patcher claims work: %d/%v", p.PatchCount(), p.Files())
	}
}

func TestAddRejectsSpanlessFixPoint(t *testing.T) {
	p := patch.New("")
	if err := p.Add(&fixing.FixPoint{}); err == nil {
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
	out, errs := patch.PatchSource("t.php", []byte(src), fixes, "")
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

func TestRuntimeGuardPHPDefinition(t *testing.T) {
	guard := patch.RuntimeGuardPHP("")
	if !strings.Contains(guard, "function websafe(") {
		t.Fatalf("guard definition wrong:\n%s", guard)
	}
	custom := patch.RuntimeGuardPHP("shield")
	if !strings.Contains(custom, "function shield(") {
		t.Fatalf("custom guard name ignored")
	}
	// The emitted PHP parses and executes: guard escapes its input.
	in := runtime.New()
	src := guard + `<?php echo websafe("<script>" . $x); ?>`
	if err := in.RunSource("guard.php", []byte(src)); err != nil {
		t.Fatalf("run guard definition: %v", err)
	}
	if !strings.Contains(in.Output(), "&lt;script&gt;") {
		t.Fatalf("guard did not escape: %q", in.Output())
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
	out, errs := patch.PatchSource("t.php", []byte(src), fixes, "")
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
