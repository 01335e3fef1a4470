package lexer

import (
	"strings"
	"testing"

	"webssari/internal/php/token"
)

// tokenize drains New(file, src).Next() and returns every token up to and
// including EOF, along with the lexical errors.
func tokenize(file string, src []byte) ([]token.Token, []error) {
	l := New(file, src)
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, l.Errors()
		}
	}
}

// kindsOf lexes src and returns the token kinds, excluding EOF.
func kindsOf(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, errs := tokenize("test.php", []byte(src))
	for _, err := range errs {
		t.Errorf("lex error: %v", err)
	}
	var kinds []token.Kind
	for _, tk := range toks {
		if tk.Kind == token.EOF {
			break
		}
		kinds = append(kinds, tk.Kind)
	}
	return kinds
}

func wantKinds(t *testing.T, src string, want ...token.Kind) {
	t.Helper()
	got := kindsOf(t, src)
	if len(got) != len(want) {
		t.Fatalf("src %q: got %v, want %v", src, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("src %q token %d: got %v, want %v", src, i, got[i], want[i])
		}
	}
}

func TestHTMLOnly(t *testing.T) {
	toks, errs := tokenize("t", []byte("<html><body>hello</body></html>"))
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if len(toks) != 2 || toks[0].Kind != token.InlineHTML || toks[1].Kind != token.EOF {
		t.Fatalf("got %v", toks)
	}
	if toks[0].Text != "<html><body>hello</body></html>" {
		t.Fatalf("html text = %q", toks[0].Text)
	}
}

func TestOpenCloseTags(t *testing.T) {
	wantKinds(t, "before<?php $x = 1; ?>after",
		token.InlineHTML, token.OpenTag, token.Variable, token.Assign,
		token.IntLit, token.Semicolon, token.CloseTag, token.InlineHTML)
}

func TestShortEchoTag(t *testing.T) {
	wantKinds(t, "<?= $x ?>", token.OpenEcho, token.Variable, token.CloseTag)
}

func TestShortOpenTag(t *testing.T) {
	wantKinds(t, "<? echo 1; ?>", token.OpenTag, token.KwEcho, token.IntLit,
		token.Semicolon, token.CloseTag)
}

func TestVariablesAndSuperglobals(t *testing.T) {
	toks, _ := tokenize("t", []byte(`<?php $_GET; $_POST; $HTTP_REFERER; $x1_y;`))
	var names []string
	for _, tk := range toks {
		if tk.Kind == token.Variable {
			names = append(names, tk.Text)
		}
	}
	want := []string{"_GET", "_POST", "HTTP_REFERER", "x1_y"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("names = %v, want %v", names, want)
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	wantKinds(t, "<?php IF (1) { } ELSE { } WHILE Echo FUNCTION",
		token.OpenTag, token.KwIf, token.LParen, token.IntLit, token.RParen,
		token.LBrace, token.RBrace, token.KwElse, token.LBrace, token.RBrace,
		token.KwWhile, token.KwEcho, token.KwFunction)
}

func TestNumbers(t *testing.T) {
	toks, _ := tokenize("t", []byte(`<?php 42 3.14 0xFF 1e3 2.5e-2 .5`))
	var got []string
	for _, tk := range toks {
		if tk.Kind == token.IntLit || tk.Kind == token.FloatLit {
			got = append(got, tk.Kind.String()+":"+tk.Text)
		}
	}
	want := []string{"INT:42", "FLOAT:3.14", "INT:0xFF", "FLOAT:1e3", "FLOAT:2.5e-2", "FLOAT:.5"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestSingleQuotedString(t *testing.T) {
	toks, _ := tokenize("t", []byte(`<?php 'it\'s a \\ test $x';`))
	if toks[1].Kind != token.StringLit {
		t.Fatalf("kind = %v", toks[1].Kind)
	}
	if toks[1].Text != `it's a \ test $x` {
		t.Fatalf("text = %q", toks[1].Text)
	}
}

func TestDoubleQuotedKeepsRaw(t *testing.T) {
	toks, _ := tokenize("t", []byte(`<?php "hello $name\n";`))
	if toks[1].Kind != token.InterpString {
		t.Fatalf("kind = %v", toks[1].Kind)
	}
	if toks[1].Text != `hello $name\n` {
		t.Fatalf("raw = %q", toks[1].Text)
	}
}

func TestEscapedQuoteInDouble(t *testing.T) {
	toks, _ := tokenize("t", []byte(`<?php "say \"hi\"";`))
	if toks[1].Text != `say \"hi\"` {
		t.Fatalf("raw = %q", toks[1].Text)
	}
}

func TestHeredoc(t *testing.T) {
	src := "<?php $q = <<<EOT\nline1 $x\nline2\nEOT;\n"
	toks, errs := tokenize("t", []byte(src))
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	var found *token.Token
	for i := range toks {
		if toks[i].Kind == token.HeredocString {
			found = &toks[i]
		}
	}
	if found == nil {
		t.Fatalf("no heredoc token in %v", toks)
	}
	if found.Text != "line1 $x\nline2" {
		t.Fatalf("heredoc body = %q", found.Text)
	}
}

func TestNowdoc(t *testing.T) {
	src := "<?php $q = <<<'EOT'\nno $interp\nEOT;\n"
	toks, _ := tokenize("t", []byte(src))
	var found *token.Token
	for i := range toks {
		if toks[i].Kind == token.StringLit {
			found = &toks[i]
		}
	}
	if found == nil || found.Text != "no $interp" {
		t.Fatalf("nowdoc not lexed as literal: %v", toks)
	}
}

func TestComments(t *testing.T) {
	wantKinds(t, "<?php // line\n# hash\n/* block\nmore */ $x;",
		token.OpenTag, token.Variable, token.Semicolon)
}

func TestCloseTagInsideLineComment(t *testing.T) {
	// PHP ends script mode at ?> even inside a // comment.
	wantKinds(t, "<?php $x; // trailing ?>html",
		token.OpenTag, token.Variable, token.Semicolon, token.CloseTag,
		token.InlineHTML)
}

func TestOperators(t *testing.T) {
	wantKinds(t, `<?php $a .= $b == $c === $d && $e || !$f ? $g : $h->i;`,
		token.OpenTag, token.Variable, token.ConcatAssign, token.Variable,
		token.Eq, token.Variable, token.Identical, token.Variable,
		token.AndAnd, token.Variable, token.OrOr, token.Not, token.Variable,
		token.Question, token.Variable, token.Colon, token.Variable,
		token.Arrow, token.Ident, token.Semicolon)
}

func TestArrowAndDoubleArrow(t *testing.T) {
	wantKinds(t, `<?php array('k' => 1); $o->p;`,
		token.OpenTag, token.KwArray, token.LParen, token.StringLit,
		token.DoubleArrow, token.IntLit, token.RParen, token.Semicolon,
		token.Variable, token.Arrow, token.Ident, token.Semicolon)
}

func TestPositions(t *testing.T) {
	src := "<?php\n$abc = 1;\n"
	toks, _ := tokenize("f.php", []byte(src))
	v := toks[1]
	if v.Kind != token.Variable {
		t.Fatalf("token 1 = %v", v)
	}
	if v.Pos.Line != 2 || v.Pos.Col != 1 {
		t.Fatalf("pos = %v, want 2:1", v.Pos)
	}
	if src[v.Pos.Offset:v.End] != "$abc" {
		t.Fatalf("span = %q", src[v.Pos.Offset:v.End])
	}
	if got := v.Pos.String(); got != "f.php:2:1" {
		t.Fatalf("Pos.String = %q", got)
	}
}

func TestUnterminatedStringReportsError(t *testing.T) {
	_, errs := tokenize("t", []byte(`<?php $x = "oops`))
	if len(errs) == 0 {
		t.Fatalf("want error for unterminated string")
	}
}

func TestUnexpectedCharRecovered(t *testing.T) {
	toks, errs := tokenize("t", []byte("<?php $x \x01 = 1;"))
	if len(errs) == 0 {
		t.Fatalf("want error for unexpected char")
	}
	// Lexing continues after the bad byte.
	var kinds []token.Kind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	found := false
	for _, k := range kinds {
		if k == token.Assign {
			found = true
		}
	}
	if !found {
		t.Fatalf("lexer did not recover: %v", kinds)
	}
}

func TestDollarDollar(t *testing.T) {
	wantKinds(t, `<?php $$x;`, token.OpenTag, token.Dollar, token.Variable, token.Semicolon)
}

func TestSplitInterpSimpleVar(t *testing.T) {
	segs := SplitInterp(`hello $name!`)
	if len(segs) != 3 {
		t.Fatalf("segs = %+v", segs)
	}
	if segs[0].Kind != SegText || segs[0].Text != "hello " {
		t.Fatalf("seg0 = %+v", segs[0])
	}
	if segs[1].Kind != SegExpr || segs[1].Text != "$name" {
		t.Fatalf("seg1 = %+v", segs[1])
	}
	if segs[2].Kind != SegText || segs[2].Text != "!" {
		t.Fatalf("seg2 = %+v", segs[2])
	}
}

func TestSplitInterpArrayIndex(t *testing.T) {
	segs := SplitInterp(`$row[name] and $a[0] and $b[$i]`)
	if segs[0].Text != "$row['name']" {
		t.Fatalf("bare key: %+v", segs[0])
	}
	if segs[2].Text != "$a[0]" {
		t.Fatalf("numeric key: %+v", segs[2])
	}
	if segs[4].Text != "$b[$i]" {
		t.Fatalf("var key: %+v", segs[4])
	}
}

func TestSplitInterpProperty(t *testing.T) {
	segs := SplitInterp(`$obj->field rest`)
	if segs[0].Kind != SegExpr || segs[0].Text != "$obj->field" {
		t.Fatalf("segs = %+v", segs)
	}
}

func TestSplitInterpBraced(t *testing.T) {
	segs := SplitInterp(`x${name}y{$a['k']}z`)
	want := []struct {
		kind SegKind
		text string
	}{
		{SegText, "x"}, {SegExpr, "$name"}, {SegText, "y"},
		{SegExpr, "$a['k']"}, {SegText, "z"},
	}
	if len(segs) != len(want) {
		t.Fatalf("segs = %+v", segs)
	}
	for i, w := range want {
		if segs[i].Kind != w.kind || segs[i].Text != w.text {
			t.Fatalf("seg %d = %+v, want %+v", i, segs[i], w)
		}
	}
}

func TestSplitInterpEscapes(t *testing.T) {
	segs := SplitInterp(`a\n\t\$x\"\\ b\x41`)
	if len(segs) != 1 || segs[0].Kind != SegText || segs[0].Text != "a\n\t$x\"\\ bA" {
		t.Fatalf("segs = %+v", segs)
	}
}

func TestDecodeDoubleQuoted(t *testing.T) {
	// An unknown escape keeps its backslash, as PHP does.
	segs := SplitInterp(`a\nb\q`)
	if len(segs) != 1 || segs[0].Kind != SegText || segs[0].Text != "a\nb\\q" {
		t.Fatalf("segs = %+v", segs)
	}
}

func TestSplitInterpNoInterp(t *testing.T) {
	segs := SplitInterp(`plain text, price $ 5`)
	if len(segs) != 1 || segs[0].Kind != SegText || segs[0].Text != "plain text, price $ 5" {
		t.Fatalf("segs = %+v", segs)
	}
}

func TestSplitInterpUnbalancedBrace(t *testing.T) {
	// With no closing brace the '{' stays literal and the variable still
	// interpolates, as in PHP.
	segs := SplitInterp(`{$oops`)
	if len(segs) != 2 || segs[0].Kind != SegText || segs[0].Text != "{" ||
		segs[1].Kind != SegExpr || segs[1].Text != "$oops" {
		t.Fatalf("segs = %+v", segs)
	}
}

func TestLookupKeyword(t *testing.T) {
	if token.LookupKeyword("Include_Once") != token.KwIncludeOnce {
		t.Fatalf("keywords should be case-insensitive")
	}
	if token.LookupKeyword("myFunc") != token.Ident {
		t.Fatalf("non-keyword should be Ident")
	}
}
