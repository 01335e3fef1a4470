// The fuzz harness lives in an external test package so it can use the
// legacy flow builder as a differential oracle without an import cycle
// (flow imports ir).
package ir_test

import (
	"reflect"
	"testing"

	"webssari/internal/flow"
	"webssari/internal/ir"
	"webssari/internal/php/parser"
	"webssari/internal/prelude"
)

// FuzzLower drives the lowering on arbitrary bytes. Invariants: no
// panic; a non-nil unit for every parse result; printing total; lowering
// deterministic (two lowerings of one AST are deeply equal, spans and
// inline HTML text included); and on the legacy subset the IR path's
// abstract interpretation byte-identical to the legacy AST builder's.
// The seed corpus is FuzzVerify's plus the new-subset constructs.
func FuzzLower(f *testing.F) {
	seeds := []string{
		`<?php echo $_GET['x'];`,
		`<?php $x = $_POST['a']; if ($x) { $x = htmlspecialchars($x); } echo $x;`,
		`<?php include 'lib.php'; mysql_query("SELECT $q");`,
		`<?php function f($a) { return $a; } echo f($_GET['x']);`,
		`<?php while ($i < 3) { $i = $i + 1; echo htmlspecialchars($s); }`,
		`<?php $x = ; } } if (`,
		"<?php\x00$x=$_GET[1];echo $x;",
		`no php here at all`,
		`<?php $$v = $_GET['x']; echo $$v;`,
		`<?php eval($_REQUEST['c']); exit;`,
		`<?php $f = function ($a) use (&$acc) { return $a; }; echo $f($_GET['x']);`,
		`<?php foreach ($rows as $k => &$v) { $v = $_GET['x']; } echo $rows;`,
		`<?php class C { function m($v) { return $v; } } $o = new C(); echo $o->m($_POST['y']);`,
		`<?php do { $x = $_POST['b']; } while ($x); echo $x;`,
		`<?php switch($x){case 1: break 2; default: exit;}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	pre := prelude.Default()
	f.Fuzz(func(t *testing.T, src string) {
		res := parser.Parse("fuzz.php", []byte(src))
		unit, err := ir.Lower(res.File)
		if err != nil {
			t.Fatalf("Lower error (must be total): %v", err)
		}
		if unit == nil {
			t.Fatal("nil unit")
		}
		text := unit.String()

		again, err := ir.Lower(res.File)
		if err != nil {
			t.Fatalf("second Lower error: %v", err)
		}
		if !reflect.DeepEqual(unit, again) {
			t.Fatalf("nondeterministic lowering:\n%s\nvs\n%s", text, again.String())
		}

		if usesNewSubset(unit) {
			return // the legacy builder approximates these; no oracle
		}
		opts := flow.Options{Prelude: pre, MaxCmds: 2000}
		legacy, lerr := flow.BuildAST(res.File, opts)
		viaIR, ierr := flow.BuildUnit(unit, opts)
		if (lerr == nil) != (ierr == nil) {
			t.Fatalf("error parity: legacy %v, IR %v", lerr, ierr)
		}
		if lerr != nil {
			return
		}
		if legacy.String() != viaIR.String() {
			t.Fatalf("AI differs on legacy subset\n--- legacy ---\n%s\n--- IR ---\n%s",
				legacy.String(), viaIR.String())
		}
	})
}

// usesNewSubset reports whether the unit uses IR-only constructs
// (closures, foreach by reference) the legacy AST builder approximates
// differently.
func usesNewSubset(u *ir.Unit) bool {
	for _, fn := range u.Funcs {
		if fn.Closure {
			return true
		}
	}
	seen := false
	var walkBlock func(ir.Block)
	walkInstr := func(in ir.Instr) {
		switch in := in.(type) {
		case *ir.Foreach:
			if in.ByRef {
				seen = true
			}
			walkBlock(in.Body)
		case *ir.Branch:
			walkBlock(in.Then)
			walkBlock(in.Else)
		case *ir.Loop:
			walkBlock(in.Body)
		case *ir.Switch:
			for _, c := range in.Cases {
				walkBlock(c.Body)
			}
		}
	}
	walkBlock = func(b ir.Block) {
		for _, in := range b {
			walkInstr(in)
		}
	}
	walkBlock(u.Main)
	for _, fn := range u.Funcs {
		walkBlock(fn.Body)
	}
	return seen
}
