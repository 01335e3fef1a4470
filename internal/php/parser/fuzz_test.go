package parser_test

import (
	"testing"

	"webssari/internal/php/ast"
	"webssari/internal/php/lexer"
	"webssari/internal/php/parser"
)

// parseSeeds is FuzzParse's seed corpus; the front-end golden pins it too.
var parseSeeds = []string{
	"",
	"<?php",
	"<?php $x = 1;",
	"<?php if ($a) { echo $b; } else { echo $c; }",
	`<?php $q = "SELECT $x FROM ${t} {$a['k']}";`,
	"<?php function f(&$a, $b = array(1,2)) { return $a . $b; }",
	"<?php foreach ($m as $k => &$v): echo $v; endforeach;",
	"<?php class C extends D { var $p; function m() {} }",
	"<?php switch($x){case 1: break 2; default: exit;}",
	"<?php $x = <<<EOT\nbody $v\nEOT;",
	"<?php /* unterminated",
	"<?php \"unterminated",
	"<?php $x = ((((((1))))));",
	"<?php ]]][[;;; if while",
	"<?php $$$$x = 1;",
	"text<?= $x ?>more<? echo 1 ?>end",
	"<?php if ($a): elseif ($b): else: endif;",
	"<?php do { } while (1);",
	"<?php list(, $b, , $d) = $arr;",
	"<?php $a{'0'} = $b{1};",
}

// FuzzParse asserts the parser's crash-freedom contract: arbitrary input
// must never panic, and whatever parses must dump and print without
// panicking either. Run with `go test -fuzz=FuzzParse` for a real fuzzing
// session; the seed corpus runs as part of the normal test suite.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res := parser.Parse("fuzz.php", []byte(src))
		if res.File == nil {
			t.Fatalf("nil file for %q", src)
		}
		// The dump and printer must not panic on any parse result.
		_ = ast.DumpStmts(res.File.Stmts)
		printed := ast.PrintFile(res.File)
		// Reparsing printed output must also be panic-free.
		_ = parser.Parse("printed.php", []byte(printed))
	})
}

// FuzzSplitInterp asserts the interpolation splitter never panics and that
// literal text is preserved in order.
func FuzzSplitInterp(f *testing.F) {
	for _, s := range []string{
		"", "plain", `$x`, `a $x b`, `${v}`, `{$a['k']}`, `$a[0]$b[k]$c->p`,
		`\\n\\t\\$x\\x41`, `{$unclosed`, `$`, `${`, `\`, `$a[`, `$a[]`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		segs := lexer.SplitInterp(raw)
		for _, seg := range segs {
			if seg.Kind != lexer.SegText && seg.Kind != lexer.SegExpr {
				t.Fatalf("invalid segment kind %d", seg.Kind)
			}
		}
	})
}
