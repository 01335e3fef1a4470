// Package token defines the lexical tokens of the PHP subset understood by
// the WebSSARI reproduction, together with source positions. The subset
// targets the PHP 4 idioms found in the paper's corpus: procedural code,
// superglobals, string interpolation, includes, and simple classes.
package token

import (
	"fmt"
	"strconv"
)

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Following the style guide, the enum starts at 1 so the zero
// Kind is invalid and easy to spot in bugs.
const (
	Invalid Kind = iota // zero value: never produced by the lexer

	EOF        // end of input
	InlineHTML // text outside <?php ... ?>
	OpenTag    // <?php or <?
	OpenEcho   // <?=
	CloseTag   // ?>

	Variable     // $name
	Ident        // bare identifier: function names, constants
	IntLit       // 42
	FloatLit     // 4.2
	StringLit    // 'single quoted' (no interpolation), value decoded
	InterpString // "double quoted", raw body kept for interpolation split
	HeredocString
	BacktickString // `shell command`, raw body kept; executes via the shell

	// Operators and punctuation.
	Assign       // =
	ConcatAssign // .=
	PlusAssign   // +=
	MinusAssign  // -=
	StarAssign   // *=
	SlashAssign  // /=
	PercentAssign

	Eq          // ==
	NotEq       // !=
	Identical   // ===
	NotIdent    // !==
	Lt          // <
	Gt          // >
	LtEq        // <=
	GtEq        // >=
	Plus        // +
	Minus       // -
	Star        // *
	Slash       // /
	Percent     // %
	Dot         // .
	Not         // !
	AndAnd      // &&
	OrOr        // ||
	Amp         // &
	Pipe        // |
	Caret       // ^
	Tilde       // ~
	Shl         // <<
	Shr         // >>
	Inc         // ++
	Dec         // --
	Question    // ?
	Colon       // :
	DoubleColon // ::
	Comma       // ,
	Semicolon   // ;
	LParen      // (
	RParen      // )
	LBrace      // {
	RBrace      // }
	LBracket    // [
	RBracket    // ]
	Arrow       // ->
	DoubleArrow // =>
	At          // @
	Dollar      // $ (variable variables: $$x)

	// Keywords.
	KwIf
	KwElseif
	KwElse
	KwEndif
	KwWhile
	KwEndwhile
	KwDo
	KwFor
	KwEndfor
	KwForeach
	KwEndforeach
	KwAs
	KwSwitch
	KwEndswitch
	KwCase
	KwDefault
	KwBreak
	KwContinue
	KwFunction
	KwReturn
	KwEcho
	KwPrint
	KwInclude
	KwIncludeOnce
	KwRequire
	KwRequireOnce
	KwGlobal
	KwStatic
	KwVar
	KwClass
	KwNew
	KwExit
	KwDie
	KwIsset
	KwEmpty
	KwUnset
	KwList
	KwArray
	KwTrue
	KwFalse
	KwNull
	KwAnd // 'and'
	KwOr  // 'or'
	KwXor // 'xor'

	kindCount
)

var kindNames = map[Kind]string{
	Invalid: "INVALID", EOF: "EOF", InlineHTML: "INLINE_HTML",
	OpenTag: "<?php", OpenEcho: "<?=", CloseTag: "?>",
	Variable: "VARIABLE", Ident: "IDENT", IntLit: "INT", FloatLit: "FLOAT",
	StringLit: "STRING", InterpString: "INTERP_STRING", HeredocString: "HEREDOC",
	BacktickString: "BACKTICK",
	Assign:         "=", ConcatAssign: ".=", PlusAssign: "+=", MinusAssign: "-=",
	StarAssign: "*=", SlashAssign: "/=", PercentAssign: "%=",
	Eq: "==", NotEq: "!=", Identical: "===", NotIdent: "!==",
	Lt: "<", Gt: ">", LtEq: "<=", GtEq: ">=",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%", Dot: ".",
	Not: "!", AndAnd: "&&", OrOr: "||", Amp: "&", Pipe: "|", Caret: "^",
	Tilde: "~", Shl: "<<", Shr: ">>", Inc: "++", Dec: "--",
	Question: "?", Colon: ":", DoubleColon: "::", Comma: ",", Semicolon: ";",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBracket: "[", RBracket: "]", Arrow: "->", DoubleArrow: "=>",
	At: "@", Dollar: "$",
	KwIf: "if", KwElseif: "elseif", KwElse: "else", KwEndif: "endif",
	KwWhile: "while", KwEndwhile: "endwhile", KwDo: "do",
	KwFor: "for", KwEndfor: "endfor",
	KwForeach: "foreach", KwEndforeach: "endforeach", KwAs: "as",
	KwSwitch: "switch", KwEndswitch: "endswitch", KwCase: "case", KwDefault: "default",
	KwBreak: "break", KwContinue: "continue",
	KwFunction: "function", KwReturn: "return", KwEcho: "echo", KwPrint: "print",
	KwInclude: "include", KwIncludeOnce: "include_once",
	KwRequire: "require", KwRequireOnce: "require_once",
	KwGlobal: "global", KwStatic: "static", KwVar: "var", KwClass: "class",
	KwNew: "new", KwExit: "exit", KwDie: "die",
	KwIsset: "isset", KwEmpty: "empty", KwUnset: "unset", KwList: "list",
	KwArray: "array", KwTrue: "true", KwFalse: "false", KwNull: "null",
	KwAnd: "and", KwOr: "or", KwXor: "xor",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// keywords maps lower-cased identifier spellings to keyword kinds. PHP
// keywords are case-insensitive.
var keywords = map[string]Kind{
	"if": KwIf, "elseif": KwElseif, "else": KwElse, "endif": KwEndif,
	"while": KwWhile, "endwhile": KwEndwhile, "do": KwDo,
	"for": KwFor, "endfor": KwEndfor,
	"foreach": KwForeach, "endforeach": KwEndforeach, "as": KwAs,
	"switch": KwSwitch, "endswitch": KwEndswitch, "case": KwCase, "default": KwDefault,
	"break": KwBreak, "continue": KwContinue,
	"function": KwFunction, "return": KwReturn, "echo": KwEcho, "print": KwPrint,
	"include": KwInclude, "include_once": KwIncludeOnce,
	"require": KwRequire, "require_once": KwRequireOnce,
	"global": KwGlobal, "static": KwStatic, "var": KwVar, "class": KwClass,
	"new": KwNew, "exit": KwExit, "die": KwDie,
	"isset": KwIsset, "empty": KwEmpty, "unset": KwUnset, "list": KwList,
	"array": KwArray, "true": KwTrue, "false": KwFalse, "null": KwNull,
	"and": KwAnd, "or": KwOr, "xor": KwXor,
}

// LookupKeyword classifies an identifier spelling: it returns the keyword
// kind for reserved words (case-insensitively) and Ident otherwise.
func LookupKeyword(ident string) Kind {
	if k, ok := keywords[lower(ident)]; ok {
		return k
	}
	return Ident
}

// lower is an ASCII-only strings.ToLower, sufficient for PHP keywords and
// cheaper than the Unicode-aware version.
func lower(s string) string {
	hasUpper := false
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			hasUpper = true
			break
		}
	}
	if !hasUpper {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}

// Pos is a source position: file, 1-based line, 1-based column, and 0-based
// byte offset within the file.
type Pos struct {
	File   string
	Line   int
	Col    int
	Offset int
}

// String renders the position as file:line:col, or line:col when File is
// empty.
func (p Pos) String() string {
	var buf [64]byte
	return string(p.Append(buf[:0]))
}

// Append appends the String rendering of the position to b and returns
// the extended buffer. Every identity and report line that embeds a
// position renders it through here, so the formats cannot drift apart.
func (p Pos) Append(b []byte) []byte {
	if p.File != "" {
		b = append(b, p.File...)
		b = append(b, ':')
	}
	b = strconv.AppendInt(b, int64(p.Line), 10)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(p.Col), 10)
}

// IsValid reports whether the position has been set (line numbers are
// 1-based, so the zero Pos is invalid).
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a single lexical token.
type Token struct {
	Kind Kind
	// Text is the decoded payload: the variable name without '$' for
	// Variable, the decoded value for StringLit, the raw (still escaped,
	// interpolation-bearing) body for InterpString/HeredocString, and the
	// literal spelling otherwise.
	Text string
	Pos  Pos
	// End is the byte offset one past the token in the source, used by the
	// instrumentor to splice patches without disturbing formatting.
	End int
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Variable:
		return "$" + t.Text
	case Ident, IntLit, FloatLit:
		return t.Text
	case StringLit:
		return fmt.Sprintf("%q", t.Text)
	default:
		return t.Kind.String()
	}
}
