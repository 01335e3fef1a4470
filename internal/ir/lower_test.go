package ir

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// lower parses and lowers a source text, failing the test on a lowering
// error (recoverable parse errors are allowed — lowering is total over
// recovered ASTs).
func lower(t *testing.T, src string) *Unit {
	t.Helper()
	unit, errs := LowerSource("test.php", []byte(src))
	if unit == nil {
		t.Fatalf("LowerSource returned nil unit (errs %v)", errs)
	}
	return unit
}

func TestLowerBasicShape(t *testing.T) {
	unit := lower(t, `<?php
function f($a) { return $a; }
$x = $_GET['q'];
echo f($x);`)
	if unit.File != "test.php" {
		t.Errorf("File = %q", unit.File)
	}
	if len(unit.Funcs) != 1 || unit.Funcs[0].Name != "f" {
		t.Fatalf("funcs = %v, want [f]", unit.Funcs)
	}
	if len(unit.Main) == 0 {
		t.Fatal("empty main block")
	}
	text := unit.String()
	for _, want := range []string{"unit test.php", "func f(", "func <main>", "sink echo("} {
		if !strings.Contains(text, want) {
			t.Errorf("printed unit missing %q:\n%s", want, text)
		}
	}
}

func TestLowerHoistsClosures(t *testing.T) {
	unit := lower(t, `<?php
$f = function ($a) use (&$acc) { return $a; };
$g = function () { return 1; };`)
	var names []string
	for _, fn := range unit.Funcs {
		if !fn.Closure {
			t.Errorf("hoisted %q not marked Closure", fn.Name)
		}
		names = append(names, fn.Name)
	}
	if len(names) != 2 || names[0] != "{closure:0}" || names[1] != "{closure:1}" {
		t.Fatalf("closure names = %v", names)
	}
	if len(unit.Funcs[0].Uses) != 1 || !unit.Funcs[0].Uses[0].ByRef {
		t.Errorf("capture clause = %+v, want one by-ref use", unit.Funcs[0].Uses)
	}
}

func TestLowerForeachByRef(t *testing.T) {
	unit := lower(t, `<?php foreach ($rows as $k => &$v) { echo $v; }`)
	var fe *Foreach
	for _, in := range unit.Main {
		if f, ok := in.(*Foreach); ok {
			fe = f
		}
	}
	if fe == nil {
		t.Fatal("no Foreach instruction in main")
	}
	if !fe.ByRef {
		t.Error("ByRef not set for `as &$v`")
	}
	if fe.Key == nil {
		t.Error("Key lost")
	}
}

// TestLowerRecoveredErrorsTotal asserts lowering is total over ASTs the
// parser recovered from errors: every statement still yields at least
// one instruction and printing works.
func TestLowerRecoveredErrorsTotal(t *testing.T) {
	broken := []string{
		`<?php $x = ; } } if (`,
		`<?php function f( { echo $x;`,
		`<?php foreach ($a as { echo 1; }`,
		"<?php \x00 $x=$_GET[1];echo $x;",
		`<?php class C { function  { } }`,
		`<?php switch ($x) { case : echo 1; }`,
		`no php at all`,
		``,
	}
	for _, src := range broken {
		unit, _ := LowerSource("broken.php", []byte(src))
		if unit == nil {
			t.Fatalf("nil unit for %q", src)
		}
		_ = unit.String()
	}
}

// TestDumpExamplesGolden locks the textual IR of the example corpus — the
// same bytes `xbmc -dump-ir examples/php` prints from the repository
// root, which CI diffs against this golden. Regenerate with
// `go test ./internal/ir -run Golden -update`.
func TestDumpExamplesGolden(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	var sb, errsb strings.Builder
	if err := DumpTree(&sb, &errsb, filepath.Join("examples", "php")); err != nil {
		t.Fatalf("DumpTree: %v", err)
	}
	if errsb.Len() > 0 {
		t.Errorf("unexpected diagnostics:\n%s", errsb.String())
	}

	golden := filepath.Join(wd, "testdata", "examples_php.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if sb.String() != string(want) {
		t.Errorf("IR dump drifted from golden\n--- got ---\n%s\n--- want ---\n%s", sb.String(), want)
	}
}
