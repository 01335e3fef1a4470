// Package lexer implements a hand-written lexer for the PHP subset. It
// handles the mixed HTML/PHP structure of web scripts: text outside
// <?php ... ?> is emitted as InlineHTML tokens (which the parser turns into
// implicit echo statements — output that flows to a sensitive output
// channel just like an explicit echo).
package lexer

import (
	"fmt"
	"strings"

	"webssari/internal/php/token"
)

// Error is a lexical error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer tokenizes one PHP source file. The zero value is not usable; use New.
type Lexer struct {
	file    string
	src     string
	off     int // current byte offset
	line    int // 1-based
	lineOff int // offset of start of current line
	inPHP   bool
	errs    []error
}

// New returns a lexer over src, reporting positions against the given file
// name. The lexer starts in HTML mode, as PHP does.
func New(file string, src []byte) *Lexer {
	return &Lexer{file: file, src: string(src), line: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.off - l.lineOff + 1, Offset: l.off}
}

func (l *Lexer) errorf(p token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: p, Msg: fmt.Sprintf(format, args...)})
}

// advance consumes n bytes, maintaining line/column bookkeeping.
func (l *Lexer) advance(n int) {
	for i := 0; i < n && l.off < len(l.src); i++ {
		if l.src[l.off] == '\n' {
			l.line++
			l.lineOff = l.off + 1
		}
		l.off++
	}
}

func (l *Lexer) peek() byte {
	if l.off < len(l.src) {
		return l.src[l.off]
	}
	return 0
}

func (l *Lexer) peekAt(k int) byte {
	if l.off+k < len(l.src) {
		return l.src[l.off+k]
	}
	return 0
}

func (l *Lexer) hasPrefix(s string) bool {
	return strings.HasPrefix(l.src[l.off:], s)
}

// Next returns the next token. After EOF it keeps returning EOF.
func (l *Lexer) Next() token.Token {
	if !l.inPHP {
		return l.scanHTML()
	}
	return l.scanPHP()
}

func (l *Lexer) scanHTML() token.Token {
	start := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: start, End: l.off}
	}
	idx := strings.Index(l.src[l.off:], "<?")
	if idx < 0 {
		text := l.src[l.off:]
		l.advance(len(text))
		return token.Token{Kind: token.InlineHTML, Text: text, Pos: start, End: l.off}
	}
	if idx > 0 {
		text := l.src[l.off : l.off+idx]
		l.advance(idx)
		return token.Token{Kind: token.InlineHTML, Text: text, Pos: start, End: l.off}
	}
	// At an open tag.
	l.inPHP = true
	tagPos := l.pos()
	switch {
	case l.hasPrefix("<?php"):
		l.advance(5)
		return token.Token{Kind: token.OpenTag, Text: "<?php", Pos: tagPos, End: l.off}
	case l.hasPrefix("<?="):
		l.advance(3)
		return token.Token{Kind: token.OpenEcho, Text: "<?=", Pos: tagPos, End: l.off}
	default: // short open tag "<?"
		l.advance(2)
		return token.Token{Kind: token.OpenTag, Text: "<?", Pos: tagPos, End: l.off}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '/' && l.peekAt(1) == '/':
			l.skipLineComment()
		case c == '#':
			l.skipLineComment()
		case c == '/' && l.peekAt(1) == '*':
			p := l.pos()
			l.advance(2)
			end := strings.Index(l.src[l.off:], "*/")
			if end < 0 {
				l.errorf(p, "unterminated block comment")
				l.advance(len(l.src) - l.off)
				return
			}
			l.advance(end + 2)
		default:
			return
		}
	}
}

// skipLineComment consumes to end of line, but stops at '?>' which ends
// PHP mode even inside a // or # comment (as real PHP does).
func (l *Lexer) skipLineComment() {
	for l.off < len(l.src) {
		if l.src[l.off] == '\n' {
			return
		}
		if l.hasPrefix("?>") {
			return
		}
		l.advance(1)
	}
}

func (l *Lexer) scanPHP() token.Token {
	l.skipSpaceAndComments()
	start := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: start, End: l.off}
	}

	c := l.src[l.off]

	if l.hasPrefix("?>") {
		l.advance(2)
		// PHP eats a single newline immediately following ?>.
		if l.peek() == '\n' {
			l.advance(1)
		} else if l.peek() == '\r' && l.peekAt(1) == '\n' {
			l.advance(2)
		}
		l.inPHP = false
		return token.Token{Kind: token.CloseTag, Text: "?>", Pos: start, End: l.off}
	}

	switch {
	case c == '$':
		if isIdentStart(l.peekAt(1)) {
			l.advance(1)
			name := l.scanIdentText()
			return token.Token{Kind: token.Variable, Text: name, Pos: start, End: l.off}
		}
		l.advance(1)
		return token.Token{Kind: token.Dollar, Text: "$", Pos: start, End: l.off}

	case isIdentStart(c):
		name := l.scanIdentText()
		kind := token.LookupKeyword(name)
		return token.Token{Kind: kind, Text: name, Pos: start, End: l.off}

	case isDigit(c) || (c == '.' && isDigit(l.peekAt(1))):
		return l.scanNumber(start)

	case c == '\'':
		return l.scanSingleQuoted(start)

	case c == '"':
		return l.scanDoubleQuoted(start)

	case c == '`':
		return l.scanBacktick(start)

	case l.hasPrefix("<<<"):
		return l.scanHeredoc(start)
	}

	return l.scanOperator(start)
}

func (l *Lexer) scanIdentText() string {
	begin := l.off
	for l.off < len(l.src) && isIdentCont(l.src[l.off]) {
		l.advance(1)
	}
	return l.src[begin:l.off]
}

func (l *Lexer) scanNumber(start token.Pos) token.Token {
	begin := l.off
	kind := token.IntLit
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance(2)
		for l.off < len(l.src) && isHexDigit(l.src[l.off]) {
			l.advance(1)
		}
		return token.Token{Kind: token.IntLit, Text: l.src[begin:l.off], Pos: start, End: l.off}
	}
	for l.off < len(l.src) && isDigit(l.src[l.off]) {
		l.advance(1)
	}
	if l.peek() == '.' && isDigit(l.peekAt(1)) {
		kind = token.FloatLit
		l.advance(1)
		for l.off < len(l.src) && isDigit(l.src[l.off]) {
			l.advance(1)
		}
	}
	if e := l.peek(); e == 'e' || e == 'E' {
		k := 1
		if s := l.peekAt(1); s == '+' || s == '-' {
			k = 2
		}
		if isDigit(l.peekAt(k)) {
			kind = token.FloatLit
			l.advance(k)
			for l.off < len(l.src) && isDigit(l.src[l.off]) {
				l.advance(1)
			}
		}
	}
	return token.Token{Kind: kind, Text: l.src[begin:l.off], Pos: start, End: l.off}
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Lexer) scanSingleQuoted(start token.Pos) token.Token {
	l.advance(1) // opening quote
	var b strings.Builder
	for l.off < len(l.src) {
		c := l.src[l.off]
		if c == '\'' {
			l.advance(1)
			return token.Token{Kind: token.StringLit, Text: b.String(), Pos: start, End: l.off}
		}
		if c == '\\' {
			n := l.peekAt(1)
			if n == '\'' || n == '\\' {
				b.WriteByte(n)
				l.advance(2)
				continue
			}
		}
		b.WriteByte(c)
		l.advance(1)
	}
	l.errorf(start, "unterminated single-quoted string")
	return token.Token{Kind: token.StringLit, Text: b.String(), Pos: start, End: l.off}
}

// scanDoubleQuoted keeps the raw body (escapes and interpolation intact);
// decoding and interpolation splitting happen in SplitInterp so the parser
// can turn the pieces into a concatenation expression.
func (l *Lexer) scanDoubleQuoted(start token.Pos) token.Token {
	l.advance(1) // opening quote
	begin := l.off
	for l.off < len(l.src) {
		c := l.src[l.off]
		if c == '"' {
			raw := l.src[begin:l.off]
			l.advance(1)
			return token.Token{Kind: token.InterpString, Text: raw, Pos: start, End: l.off}
		}
		if c == '\\' && l.off+1 < len(l.src) {
			l.advance(2)
			continue
		}
		l.advance(1)
	}
	l.errorf(start, "unterminated double-quoted string")
	return token.Token{Kind: token.InterpString, Text: l.src[begin:l.off], Pos: start, End: l.off}
}

// scanBacktick scans a shell-execution string; like double-quoted strings
// it keeps the raw interpolation-bearing body.
func (l *Lexer) scanBacktick(start token.Pos) token.Token {
	l.advance(1) // opening backtick
	begin := l.off
	for l.off < len(l.src) {
		c := l.src[l.off]
		if c == '`' {
			raw := l.src[begin:l.off]
			l.advance(1)
			return token.Token{Kind: token.BacktickString, Text: raw, Pos: start, End: l.off}
		}
		if c == '\\' && l.off+1 < len(l.src) {
			l.advance(2)
			continue
		}
		l.advance(1)
	}
	l.errorf(start, "unterminated backtick string")
	return token.Token{Kind: token.BacktickString, Text: l.src[begin:l.off], Pos: start, End: l.off}
}

func (l *Lexer) scanHeredoc(start token.Pos) token.Token {
	l.advance(3) // <<<
	// Optional quotes around the label: <<<"EOT" interpolates, <<<'EOT' is
	// a nowdoc (no interpolation). We record nowdocs as StringLit.
	nowdoc := false
	if l.peek() == '\'' {
		nowdoc = true
		l.advance(1)
	} else if l.peek() == '"' {
		l.advance(1)
	}
	label := l.scanIdentText()
	if label == "" {
		l.errorf(start, "heredoc start tag missing label")
	}
	if l.peek() == '\'' || l.peek() == '"' {
		l.advance(1)
	}
	if l.peek() == '\r' {
		l.advance(1)
	}
	if l.peek() == '\n' {
		l.advance(1)
	}
	begin := l.off
	// The closing label must appear at the start of a line.
	for l.off < len(l.src) {
		lineStart := l.off == 0 || l.src[l.off-1] == '\n'
		if lineStart && strings.HasPrefix(l.src[l.off:], label) {
			after := l.off + len(label)
			if after >= len(l.src) || l.src[after] == ';' || l.src[after] == '\n' || l.src[after] == '\r' {
				raw := strings.TrimSuffix(l.src[begin:l.off], "\n")
				raw = strings.TrimSuffix(raw, "\r")
				l.advance(len(label))
				kind := token.HeredocString
				if nowdoc {
					kind = token.StringLit
				}
				return token.Token{Kind: kind, Text: raw, Pos: start, End: l.off}
			}
		}
		l.advance(1)
	}
	l.errorf(start, "unterminated heredoc %q", label)
	return token.Token{Kind: token.HeredocString, Text: l.src[begin:l.off], Pos: start, End: l.off}
}

type operator struct {
	text string
	kind token.Kind
}

// operator table ordered longest-first so maximal munch works.
var operators = []operator{
	{"===", token.Identical},
	{"!==", token.NotIdent},
	{"<<=", token.Invalid}, // unsupported, reported below
	{">>=", token.Invalid},
	{".=", token.ConcatAssign},
	{"+=", token.PlusAssign},
	{"-=", token.MinusAssign},
	{"*=", token.StarAssign},
	{"/=", token.SlashAssign},
	{"%=", token.PercentAssign},
	{"==", token.Eq},
	{"!=", token.NotEq},
	{"<>", token.NotEq},
	{"<=", token.LtEq},
	{">=", token.GtEq},
	{"&&", token.AndAnd},
	{"||", token.OrOr},
	{"<<", token.Shl},
	{">>", token.Shr},
	{"++", token.Inc},
	{"--", token.Dec},
	{"->", token.Arrow},
	{"=>", token.DoubleArrow},
	{"::", token.DoubleColon},
	{"=", token.Assign},
	{"<", token.Lt},
	{">", token.Gt},
	{"+", token.Plus},
	{"-", token.Minus},
	{"*", token.Star},
	{"/", token.Slash},
	{"%", token.Percent},
	{".", token.Dot},
	{"!", token.Not},
	{"&", token.Amp},
	{"|", token.Pipe},
	{"^", token.Caret},
	{"~", token.Tilde},
	{"?", token.Question},
	{":", token.Colon},
	{",", token.Comma},
	{";", token.Semicolon},
	{"(", token.LParen},
	{")", token.RParen},
	{"{", token.LBrace},
	{"}", token.RBrace},
	{"[", token.LBracket},
	{"]", token.RBracket},
	{"@", token.At},
}

// opsByFirst holds the operators by first byte, in the table's
// longest-first order.
var opsByFirst = func() (t [256][]operator) {
	for _, op := range operators {
		t[op.text[0]] = append(t[op.text[0]], op)
	}
	return t
}()

func (l *Lexer) scanOperator(start token.Pos) token.Token {
	for _, op := range opsByFirst[l.src[l.off]] {
		if l.hasPrefix(op.text) {
			l.advance(len(op.text))
			if op.kind == token.Invalid {
				l.errorf(start, "unsupported operator %q", op.text)
				return l.Next()
			}
			return token.Token{Kind: op.kind, Text: op.text, Pos: start, End: l.off}
		}
	}
	l.errorf(start, "unexpected character %q", l.src[l.off])
	l.advance(1)
	return l.Next()
}
