package parser_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"webssari/internal/corpus"
	"webssari/internal/flow"
	"webssari/internal/php/ast"
	"webssari/internal/php/parser"
	"webssari/internal/policy"
	"webssari/internal/prelude"
	"webssari/internal/typestate"
)

var updateFrontEnd = flag.Bool("update", false, "rewrite testdata/frontend.golden")

const frontEndGolden = "testdata/frontend.golden"

// frontEndEdges are inputs whose diagnostics depend on the order in which
// the lexer and the parser report: more than 200 lexical and syntax errors
// (so the maxParseErrors cap bites, and interpolation errors, which the cap
// does not count, fall among them), and an interpolated expression that
// parses but has a lexical error after it.
func frontEndEdges() [][2]string {
	var mixed, lexHeavy strings.Builder
	mixed.WriteString("<?php\n")
	lexHeavy.WriteString("<?php\n")
	for i := 0; i < 90; i++ {
		fmt.Fprintf(&mixed, "$a%d = \x01 ) ; echo \"{$b[}\" ; ]\n", i)
		fmt.Fprintf(&lexHeavy, "\x02 echo $c%d, \"{$d; 1; 2; \x04}\" <<= \x03 ; ) ;\n", i)
	}
	return [][2]string{
		{"edge/many-errors.php", mixed.String()},
		{"edge/lex-heavy.php", lexHeavy.String()},
		{"edge/interp-lex-tail.php", "<?php echo \"{$a; 1; 2; \x01}\"; echo \"x {$b . $c} \x05\";"},
	}
}

// spanText renders every ast.Span reachable from v, in field order, so the
// golden pins node extents as well as structure (DumpStmts omits them).
func spanText(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			spanText(b, v.Elem())
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			spanText(b, v.Index(i))
		}
	case reflect.Struct:
		if sp, ok := v.Interface().(ast.Span); ok {
			fmt.Fprintf(b, "%d:%d@%d-%d ", sp.Start.Line, sp.Start.Col, sp.Start.Offset, sp.StopOff)
			return
		}
		for i := 0; i < v.NumField(); i++ {
			spanText(b, v.Field(i))
		}
	}
}

// fuzzCorpusSeeds reads the inputs checked in under testdata/fuzz/FuzzParse.
func fuzzCorpusSeeds(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if q, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// frontEndLine parses src and renders what the front end made of it: a
// hash of the AST dump and of every node's span, every diagnostic in
// order, and every typestate report (site, bad arguments, argument types)
// of the program it filters to under opts.
func frontEndLine(b *bytes.Buffer, label, name, src string, opts flow.Options) {
	res := parser.Parse(name, []byte(src))
	var spans strings.Builder
	spanText(&spans, reflect.ValueOf(res.File.Stmts))
	fmt.Fprintf(b, "%s dump=%x spans=%x errs=%d\n", label,
		sha256.Sum256([]byte(ast.DumpStmts(res.File.Stmts))), sha256.Sum256([]byte(spans.String())), len(res.Errs))
	if res.Errs == nil {
		b.WriteString("  errs: nil\n")
	}
	for _, err := range res.Errs {
		fmt.Fprintf(b, "  err %s\n", strconv.Quote(err.Error()))
	}
	prog, err := flow.Build(res.File, opts)
	if err != nil {
		fmt.Fprintf(b, "  build error: %v\n", err)
		return
	}
	for _, r := range typestate.Check(prog) {
		site := r.Assert.Site
		fmt.Fprintf(b, "  ts %s-%d stmt %s-%d %s args=%v types=%v\n",
			site.Pos, site.End, site.StmtPos, site.StmtEnd, r.Assert.Fn, r.Args, r.ArgTypes)
	}
}

// TestFrontEndGolden pins the lexer, parser and typestate output, byte for
// byte, over examples/php under every built-in policy, FullCorpus(0.02)
// at seed 2004, FuzzParse's seeds and the edge inputs above. Regenerate
// with `go test -run TestFrontEndGolden -update ./internal/php/parser`
// only for an intended change.
func TestFrontEndGolden(t *testing.T) {
	var got bytes.Buffer
	dir := "../../../examples/php"
	paths, err := filepath.Glob(filepath.Join(dir, "*.php"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range policy.Names() {
		pol, err := policy.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := flow.Options{Policy: pol, Dir: dir, Loader: os.ReadFile}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("examples/%s policy=%s", filepath.Base(path), name)
			frontEndLine(&got, label, path, string(src), opts)
		}
	}
	bare := flow.Options{Prelude: prelude.Default()}
	for i, prof := range corpus.FullCorpus(0.02) {
		proj := corpus.Generate(prof, 2004)
		for _, name := range proj.FileNames() {
			frontEndLine(&got, fmt.Sprintf("corpus/p%03d/%s", i, name), name, string(proj.Sources[name]), bare)
		}
	}
	for i, src := range slices.Concat(parseSeeds, fuzzCorpusSeeds(t)) {
		frontEndLine(&got, fmt.Sprintf("seed/%02d %s", i, strconv.Quote(src)), "seed.php", src, bare)
	}
	for _, edge := range frontEndEdges() {
		frontEndLine(&got, edge[0], edge[0], edge[1], bare)
	}
	if *updateFrontEnd {
		if err := os.WriteFile(frontEndGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(frontEndGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("front end differs from %s at line %d:\n got: %s\nwant: %s", frontEndGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("front end differs from %s: %d lines, want %d", frontEndGolden, len(gl), len(wl))
	}
}
