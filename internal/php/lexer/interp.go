package lexer

import (
	"strings"
)

// SegKind distinguishes the parts of a double-quoted (or heredoc) string.
type SegKind int

// Segment kinds.
const (
	// SegText is a run of literal text (escape sequences already decoded).
	SegText SegKind = iota + 1
	// SegExpr is an embedded PHP expression, stored as raw PHP source that
	// the parser re-parses (e.g. `$x`, `$a['k']`, `$o->p`).
	SegExpr
)

// Segment is one piece of an interpolated string.
type Segment struct {
	Kind SegKind
	// Text is the decoded literal for SegText, or raw PHP source for
	// SegExpr.
	Text string
	// Off is the byte offset of the segment within the raw string body.
	Off int
}

// SplitInterp splits the raw body of a double-quoted string or heredoc into
// literal text and embedded expression segments. It supports the PHP
// interpolation forms:
//
//	"$var"            simple variable
//	"$var[key]"       array element; a bare-word key is quoted ($a[k] → $a['k'])
//	"$var->prop"      property access
//	"${var}"          braced simple syntax
//	"{$expr}"         complex syntax: arbitrary expression until matching }
//
// Escape sequences in the literal parts are decoded per double-quoted-string
// rules (\n, \t, \r, \\, \", \$, \0, \xNN).
func SplitInterp(raw string) []Segment {
	var segs []Segment
	var lit strings.Builder
	litOff := 0
	flush := func(nextOff int) {
		if lit.Len() > 0 {
			segs = append(segs, Segment{Kind: SegText, Text: lit.String(), Off: litOff})
			lit.Reset()
		}
		litOff = nextOff
	}

	i := 0
	for i < len(raw) {
		c := raw[i]
		switch {
		case c == '\\' && i+1 < len(raw):
			d, n := decodeEscape(raw[i:])
			lit.WriteString(d)
			i += n

		case c == '$' && i+1 < len(raw) && raw[i+1] == '{':
			// ${var} or ${var[expr]}
			end := matchBrace(raw, i+1)
			if end < 0 {
				lit.WriteByte(c)
				i++
				continue
			}
			flush(i)
			inner := raw[i+2 : end]
			segs = append(segs, Segment{Kind: SegExpr, Text: "$" + inner, Off: i})
			i = end + 1
			litOff = i

		case c == '$' && i+1 < len(raw) && isIdentStart(raw[i+1]):
			start := i
			i++
			j := i
			for j < len(raw) && isIdentCont(raw[j]) {
				j++
			}
			expr := "$" + raw[i:j]
			i = j
			// Optional single [index] or ->prop suffix (simple syntax
			// allows exactly one level).
			if i < len(raw) && raw[i] == '[' {
				k := strings.IndexByte(raw[i:], ']')
				if k > 0 {
					idx := raw[i+1 : i+k]
					expr += "[" + normalizeSimpleIndex(idx) + "]"
					i += k + 1
				}
			} else if i+2 < len(raw) && raw[i] == '-' && raw[i+1] == '>' && isIdentStart(raw[i+2]) {
				k := i + 2
				for k < len(raw) && isIdentCont(raw[k]) {
					k++
				}
				expr += "->" + raw[i+2:k]
				i = k
			}
			flush(start)
			segs = append(segs, Segment{Kind: SegExpr, Text: expr, Off: start})
			litOff = i

		case c == '{' && i+1 < len(raw) && raw[i+1] == '$':
			end := matchBrace(raw, i)
			if end < 0 {
				lit.WriteByte(c)
				i++
				continue
			}
			flush(i)
			segs = append(segs, Segment{Kind: SegExpr, Text: raw[i+1 : end], Off: i})
			i = end + 1
			litOff = i

		default:
			lit.WriteByte(c)
			i++
		}
	}
	flush(len(raw))
	return segs
}

// matchBrace returns the index of the '}' matching the '{' at raw[open],
// or -1 if unbalanced. Nested braces and quoted strings inside are handled.
func matchBrace(raw string, open int) int {
	depth := 0
	i := open
	for i < len(raw) {
		switch raw[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return i
			}
		case '\'', '"':
			q := raw[i]
			i++
			for i < len(raw) && raw[i] != q {
				if raw[i] == '\\' {
					i++
				}
				i++
			}
		}
		i++
	}
	return -1
}

// normalizeSimpleIndex quotes a bare-word array key as PHP's simple
// interpolation syntax does: "$a[key]" means $a['key'], while "$a[0]" and
// "$a[$i]" keep their meaning.
func normalizeSimpleIndex(idx string) string {
	if idx == "" {
		return idx
	}
	if idx[0] == '$' || isDigit(idx[0]) || idx[0] == '\'' || idx[0] == '"' {
		return idx
	}
	return "'" + idx + "'"
}

// decodeEscape decodes a backslash escape at the start of s, returning the
// decoded text and the number of input bytes consumed.
func decodeEscape(s string) (string, int) {
	if len(s) < 2 {
		return s, len(s)
	}
	switch s[1] {
	case 'n':
		return "\n", 2
	case 't':
		return "\t", 2
	case 'r':
		return "\r", 2
	case 'v':
		return "\v", 2
	case 'f':
		return "\f", 2
	case '\\':
		return "\\", 2
	case '"':
		return "\"", 2
	case '$':
		return "$", 2
	case '0':
		return "\x00", 2
	case 'x':
		if len(s) >= 3 && isHexDigit(s[2]) {
			n := hexVal(s[2])
			consumed := 3
			if len(s) >= 4 && isHexDigit(s[3]) {
				n = n*16 + hexVal(s[3])
				consumed = 4
			}
			return string(rune(n)), consumed
		}
		return "\\x", 2
	default:
		// Unknown escapes keep the backslash, as PHP does.
		return s[:2], 2
	}
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}
