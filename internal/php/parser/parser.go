// Package parser implements a recursive-descent parser for the PHP subset.
//
// The paper's WebSSARI used a SableCC-generated LALR(1) parser; this
// reproduction uses a hand-written recursive-descent parser over the same
// language surface (see DESIGN.md for the substitution rationale). The
// parser is error-tolerant: it records diagnostics and synchronizes at
// statement boundaries so one malformed statement does not abort analysis
// of a whole file — important when scanning a large corpus.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"webssari/internal/php/ast"
	"webssari/internal/php/lexer"
	"webssari/internal/php/token"
)

// Error is a syntax error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Result bundles the parsed file with any diagnostics produced on the way.
type Result struct {
	File *ast.File
	// Errs holds lexical and syntax errors; the File is still usable (the
	// parser synchronizes at statement boundaries).
	Errs []error
}

// maxParseErrors bounds diagnostic accumulation on pathological inputs.
// The bound counts every lexical error of the file, so the parser records
// its own errors as candidates and applies the bound in finish, once the
// lexer has reached the end.
const maxParseErrors = 200

// Parse parses one PHP source file.
func Parse(name string, src []byte) *Result {
	p := newParser(name, src)
	stmts := p.parseProgram()
	return &Result{
		File: &ast.File{Name: name, Stmts: stmts},
		Errs: p.finish(),
	}
}

// ParseExprString parses a standalone PHP expression (used to re-parse the
// embedded expressions of interpolated strings). Tokens after the
// expression are ignored, but their lexical errors are still reported.
func ParseExprString(name string, src string) (ast.Expr, []error) {
	p := newParser(name, []byte("<?php "+src))
	p.expect(token.OpenTag)
	e := p.parseExpr()
	return e, p.finish()
}

// parser reads the lexer's tokens through a three-token window: the
// grammar looks at most two tokens ahead (castTarget) and, through
// prevEnd, one back.
type parser struct {
	lex *lexer.Lexer
	// tok[0] is the current token, tok[1] and tok[2] the next two.
	tok [3]token.Token
	// prevEnd is the end offset of the last consumed token (0 before any).
	prevEnd int
	// pos counts consumed tokens; recovery loops compare it to make
	// progress.
	pos   int
	diags []diag
}

// diag is a parse or interpolation error. A capped one (a parse error)
// is subject to maxParseErrors; interpolation errors are always kept.
type diag struct {
	err    error
	capped bool
}

func newParser(name string, src []byte) *parser {
	p := &parser{lex: lexer.New(name, src)}
	for i := range p.tok {
		p.tok[i] = p.lex.Next()
	}
	return p
}

// finish reads the lexer to the end and returns the file's diagnostics:
// every lexical error, then the parse and interpolation errors in the
// order they occurred, each capped one kept only while fewer than
// maxParseErrors diagnostics precede it. It returns nil when there are
// none.
func (p *parser) finish() []error {
	for t := p.tok[2]; t.Kind != token.EOF; t = p.lex.Next() {
	}
	errs := p.lex.Errors()
	for _, d := range p.diags {
		if d.capped && len(errs) >= maxParseErrors {
			continue
		}
		errs = append(errs, d.err)
	}
	return errs
}

func (p *parser) cur() token.Token { return p.tok[0] }
func (p *parser) kind() token.Kind { return p.tok[0].Kind }
func (p *parser) peek() token.Kind { return p.tok[1].Kind }

// advance consumes the current token and returns it. At EOF it stays put.
func (p *parser) advance() token.Token {
	t := p.tok[0]
	if t.Kind != token.EOF {
		p.prevEnd = t.End
		p.pos++
		p.tok[0], p.tok[1] = p.tok[1], p.tok[2]
		p.tok[2] = p.lex.Next()
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.kind() == k }

func (p *parser) accept(k token.Kind) (token.Token, bool) {
	if p.at(k) {
		return p.advance(), true
	}
	return token.Token{}, false
}

func (p *parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.advance()
	}
	p.errorf("expected %v, found %v", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos, End: p.cur().Pos.Offset}
}

// errorf records a capped parse error. Once maxParseErrors candidates are
// recorded, finish would drop any later capped one, so it is not kept.
func (p *parser) errorf(format string, args ...any) {
	if len(p.diags) >= maxParseErrors {
		return
	}
	p.diags = append(p.diags, diag{err: &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}, capped: true})
}

func span(start token.Pos, end int) ast.Span {
	return ast.Span{Start: start, StopOff: end}
}

// synchronize skips tokens until a likely statement boundary.
func (p *parser) synchronize() {
	for {
		switch p.kind() {
		case token.EOF:
			return
		case token.Semicolon, token.RBrace, token.CloseTag:
			p.advance()
			return
		case token.KwIf, token.KwWhile, token.KwFor, token.KwForeach,
			token.KwFunction, token.KwReturn, token.KwEcho, token.KwSwitch,
			token.KwClass:
			return
		}
		p.advance()
	}
}

// ------------------------------------------------------------------ program

func (p *parser) parseProgram() []ast.Stmt {
	var stmts []ast.Stmt
	for !p.at(token.EOF) {
		s := p.parseTopLevel()
		if s != nil {
			stmts = append(stmts, s)
		}
	}
	return stmts
}

// parseTopLevel handles the HTML/PHP mode-switching tokens and returns the
// next statement, or nil for pure mode switches.
func (p *parser) parseTopLevel() ast.Stmt {
	switch p.kind() {
	case token.InlineHTML:
		t := p.advance()
		return &ast.InlineHTMLStmt{Span: span(t.Pos, t.End), Text: t.Text}
	case token.OpenTag, token.CloseTag:
		p.advance()
		return nil
	case token.OpenEcho:
		open := p.advance()
		first := p.parseExpr()
		if first == nil {
			p.errorf("expected expression after <?=")
			p.synchronize()
			return nil
		}
		args := []ast.Expr{first}
		for p.at(token.Comma) {
			p.advance()
			if next := p.parseExpr(); next != nil {
				args = append(args, next)
			}
		}
		end := args[len(args)-1].End()
		if _, ok := p.accept(token.Semicolon); ok {
			end = p.prevEnd
		}
		return &ast.EchoStmt{Span: span(open.Pos, end), Args: args}
	default:
		return p.parseStmt()
	}
}

// parseBody parses either a braced block or a single statement and returns
// the statement list. PHP's alternative syntax bodies (": ... endX") are
// parsed by the individual statement parsers.
func (p *parser) parseBody() []ast.Stmt {
	if p.at(token.LBrace) {
		p.advance()
		var body []ast.Stmt
		for !p.at(token.RBrace) && !p.at(token.EOF) {
			if s := p.parseTopLevel(); s != nil {
				body = append(body, s)
			}
		}
		p.expect(token.RBrace)
		return body
	}
	if s := p.parseTopLevel(); s != nil {
		return []ast.Stmt{s}
	}
	return nil
}

// parseAltBody parses statements until one of the terminator keywords is
// reached (alternative syntax: "if (...): ... endif;").
func (p *parser) parseAltBody(terms ...token.Kind) []ast.Stmt {
	var body []ast.Stmt
	for !p.at(token.EOF) {
		for _, t := range terms {
			if p.at(t) {
				return body
			}
		}
		if s := p.parseTopLevel(); s != nil {
			body = append(body, s)
		}
	}
	return body
}

func (p *parser) parseStmt() ast.Stmt {
	start := p.cur().Pos
	switch p.kind() {
	case token.Semicolon:
		t := p.advance()
		return &ast.NopStmt{Span: span(t.Pos, t.End)}
	case token.LBrace:
		body := p.parseBody()
		end := p.prevEnd
		return &ast.BlockStmt{Span: span(start, end), Body: body}
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwDo:
		return p.parseDoWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwForeach:
		return p.parseForeach()
	case token.KwSwitch:
		return p.parseSwitch()
	case token.KwBreak, token.KwContinue:
		return p.parseBreakContinue()
	case token.KwReturn:
		return p.parseReturn()
	case token.KwEcho:
		return p.parseEcho()
	case token.KwGlobal:
		return p.parseGlobal()
	case token.KwStatic:
		// Distinguish "static $x = 1;" from a static method call
		// "Foo::bar()" (which cannot start with the keyword) — the keyword
		// form is always followed by a variable.
		if p.peek() == token.Variable {
			return p.parseStaticVars()
		}
		p.errorf("unexpected 'static'")
		p.synchronize()
		return nil
	case token.KwUnset:
		return p.parseUnset()
	case token.KwFunction:
		// "function name(...)" declares; "function (...)" at statement level
		// is an anonymous function in expression position.
		if p.peek() == token.LParen {
			return p.parseExprStmt()
		}
		return p.parseFunction()
	case token.KwClass:
		return p.parseClass()
	default:
		return p.parseExprStmt()
	}
}

func (p *parser) parseExprStmt() ast.Stmt {
	start := p.cur().Pos
	e := p.parseExpr()
	if e == nil {
		p.errorf("expected statement, found %v", p.cur())
		p.synchronize()
		return nil
	}
	end := e.End()
	if _, ok := p.accept(token.Semicolon); ok {
		end = p.prevEnd
	} else if !p.at(token.CloseTag) && !p.at(token.EOF) && !p.at(token.RBrace) {
		p.errorf("expected ';', found %v", p.cur())
		p.synchronize()
	}
	return &ast.ExprStmt{Span: span(start, end), X: e}
}

func (p *parser) parseIf() ast.Stmt {
	start := p.advance().Pos // if
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)

	node := &ast.IfStmt{Cond: cond}
	if _, alt := p.accept(token.Colon); alt {
		node.Then = p.parseAltBody(token.KwElseif, token.KwElse, token.KwEndif)
		for p.at(token.KwElseif) {
			p.advance()
			p.expect(token.LParen)
			c := p.parseExpr()
			p.expect(token.RParen)
			p.expect(token.Colon)
			body := p.parseAltBody(token.KwElseif, token.KwElse, token.KwEndif)
			node.Elseifs = append(node.Elseifs, ast.ElseifClause{Cond: c, Body: body})
		}
		if _, ok := p.accept(token.KwElse); ok {
			p.expect(token.Colon)
			node.Else = p.parseAltBody(token.KwEndif)
			if node.Else == nil {
				node.Else = []ast.Stmt{}
			}
		}
		p.expect(token.KwEndif)
		p.accept(token.Semicolon)
		node.Span = span(start, p.prevEnd)
		return node
	}

	node.Then = p.parseBody()
	for {
		if p.at(token.KwElseif) {
			p.advance()
			p.expect(token.LParen)
			c := p.parseExpr()
			p.expect(token.RParen)
			body := p.parseBody()
			node.Elseifs = append(node.Elseifs, ast.ElseifClause{Cond: c, Body: body})
			continue
		}
		if p.at(token.KwElse) && p.peek() == token.KwIf {
			// "else if" is sugar for elseif.
			p.advance()
			p.advance()
			p.expect(token.LParen)
			c := p.parseExpr()
			p.expect(token.RParen)
			body := p.parseBody()
			node.Elseifs = append(node.Elseifs, ast.ElseifClause{Cond: c, Body: body})
			continue
		}
		break
	}
	if _, ok := p.accept(token.KwElse); ok {
		node.Else = p.parseBody()
		if node.Else == nil {
			node.Else = []ast.Stmt{}
		}
	}
	node.Span = span(start, p.prevEnd)
	return node
}

func (p *parser) parseWhile() ast.Stmt {
	start := p.advance().Pos
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	var body []ast.Stmt
	if _, alt := p.accept(token.Colon); alt {
		body = p.parseAltBody(token.KwEndwhile)
		p.expect(token.KwEndwhile)
		p.accept(token.Semicolon)
	} else {
		body = p.parseBody()
	}
	return &ast.WhileStmt{Span: span(start, p.prevEnd), Cond: cond, Body: body}
}

func (p *parser) parseDoWhile() ast.Stmt {
	start := p.advance().Pos // do
	body := p.parseBody()
	p.expect(token.KwWhile)
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	p.accept(token.Semicolon)
	return &ast.DoWhileStmt{Span: span(start, p.prevEnd), Body: body, Cond: cond}
}

func (p *parser) parseFor() ast.Stmt {
	start := p.advance().Pos
	p.expect(token.LParen)
	init := p.parseExprListUntil(token.Semicolon)
	p.expect(token.Semicolon)
	cond := p.parseExprListUntil(token.Semicolon)
	p.expect(token.Semicolon)
	post := p.parseExprListUntil(token.RParen)
	p.expect(token.RParen)
	var body []ast.Stmt
	if _, alt := p.accept(token.Colon); alt {
		body = p.parseAltBody(token.KwEndfor)
		p.expect(token.KwEndfor)
		p.accept(token.Semicolon)
	} else {
		body = p.parseBody()
	}
	return &ast.ForStmt{
		Span: span(start, p.prevEnd),
		Init: init, Cond: cond, Post: post, Body: body,
	}
}

func (p *parser) parseExprListUntil(term token.Kind) []ast.Expr {
	var list []ast.Expr
	if p.at(term) {
		return list
	}
	if e := p.parseExpr(); e != nil {
		list = append(list, e)
	}
	for p.at(token.Comma) {
		p.advance()
		if e := p.parseExpr(); e != nil {
			list = append(list, e)
		}
	}
	return list
}

func (p *parser) parseForeach() ast.Stmt {
	start := p.advance().Pos
	p.expect(token.LParen)
	subject := p.parseExpr()
	p.expect(token.KwAs)
	byRef := false
	if _, ok := p.accept(token.Amp); ok {
		byRef = true
	}
	first := p.parseLValue()
	node := &ast.ForeachStmt{Subject: subject, ByRef: byRef, ValVar: first}
	if _, ok := p.accept(token.DoubleArrow); ok {
		node.KeyVar = first
		if _, ok := p.accept(token.Amp); ok {
			node.ByRef = true
		}
		node.ValVar = p.parseLValue()
	}
	p.expect(token.RParen)
	if _, alt := p.accept(token.Colon); alt {
		node.Body = p.parseAltBody(token.KwEndforeach)
		p.expect(token.KwEndforeach)
		p.accept(token.Semicolon)
	} else {
		node.Body = p.parseBody()
	}
	node.Span = span(start, p.prevEnd)
	// A foreach without a subject or a value target cannot be analyzed;
	// drop the statement (the error is already recorded) rather than
	// hand consumers an AST node with nil mandatory children.
	if node.Subject == nil || node.ValVar == nil {
		p.errorf("malformed foreach header")
		return nil
	}
	return node
}

// parseLValue parses a variable-rooted postfix expression (foreach targets,
// assignment LHS contexts that must be lvalues).
func (p *parser) parseLValue() ast.Expr {
	e := p.parsePrimary()
	return p.parsePostfixOps(e)
}

func (p *parser) parseSwitch() ast.Stmt {
	start := p.advance().Pos
	p.expect(token.LParen)
	subject := p.parseExpr()
	p.expect(token.RParen)
	node := &ast.SwitchStmt{Subject: subject}

	alt := false
	if _, ok := p.accept(token.Colon); ok {
		alt = true
	} else {
		p.expect(token.LBrace)
	}
	isEnd := func() bool {
		if alt {
			return p.at(token.KwEndswitch)
		}
		return p.at(token.RBrace)
	}
	for !isEnd() && !p.at(token.EOF) {
		var match ast.Expr
		switch p.kind() {
		case token.KwCase:
			p.advance()
			match = p.parseExpr()
		case token.KwDefault:
			p.advance()
		default:
			p.errorf("expected case/default, found %v", p.cur())
			// Same progress guarantee as the class-body loop: synchronize
			// may stop before a statement keyword without consuming it.
			mark := p.pos
			p.synchronize()
			if p.pos == mark {
				p.advance()
			}
			continue
		}
		if !p.at(token.Colon) && !p.at(token.Semicolon) {
			p.errorf("expected ':' after case, found %v", p.cur())
		} else {
			p.advance()
		}
		var body []ast.Stmt
		for !p.at(token.KwCase) && !p.at(token.KwDefault) && !isEnd() && !p.at(token.EOF) {
			if s := p.parseTopLevel(); s != nil {
				body = append(body, s)
			}
		}
		node.Cases = append(node.Cases, ast.SwitchCase{Match: match, Body: body})
	}
	if alt {
		p.expect(token.KwEndswitch)
		p.accept(token.Semicolon)
	} else {
		p.expect(token.RBrace)
	}
	node.Span = span(start, p.prevEnd)
	return node
}

func (p *parser) parseBreakContinue() ast.Stmt {
	t := p.advance()
	level := 1
	if lt, ok := p.accept(token.IntLit); ok {
		if n, err := strconv.Atoi(lt.Text); err == nil && n > 0 {
			level = n
		}
	}
	p.accept(token.Semicolon)
	sp := span(t.Pos, p.prevEnd)
	if t.Kind == token.KwBreak {
		return &ast.BreakStmt{Span: sp, Level: level}
	}
	return &ast.ContinueStmt{Span: sp, Level: level}
}

func (p *parser) parseReturn() ast.Stmt {
	t := p.advance()
	node := &ast.ReturnStmt{}
	if !p.at(token.Semicolon) && !p.at(token.CloseTag) && !p.at(token.EOF) && !p.at(token.RBrace) {
		node.X = p.parseExpr()
	}
	p.accept(token.Semicolon)
	node.Span = span(t.Pos, p.prevEnd)
	return node
}

func (p *parser) parseEcho() ast.Stmt {
	t := p.advance()
	var args []ast.Expr
	if first := p.parseExpr(); first != nil {
		args = append(args, first)
	} else {
		p.errorf("expected expression after echo")
	}
	for p.at(token.Comma) {
		p.advance()
		if next := p.parseExpr(); next != nil {
			args = append(args, next)
		}
	}
	p.accept(token.Semicolon)
	return &ast.EchoStmt{Span: span(t.Pos, p.prevEnd), Args: args}
}

func (p *parser) parseGlobal() ast.Stmt {
	t := p.advance()
	var names []string
	for {
		v := p.expect(token.Variable)
		names = append(names, v.Text)
		if _, ok := p.accept(token.Comma); !ok {
			break
		}
	}
	p.accept(token.Semicolon)
	return &ast.GlobalStmt{Span: span(t.Pos, p.prevEnd), Names: names}
}

func (p *parser) parseStaticVars() ast.Stmt {
	t := p.advance()
	node := &ast.StaticStmt{}
	for {
		v := p.expect(token.Variable)
		sv := ast.StaticVar{Name: v.Text}
		if _, ok := p.accept(token.Assign); ok {
			sv.Init = p.parseAssignLevel()
		}
		node.Vars = append(node.Vars, sv)
		if _, ok := p.accept(token.Comma); !ok {
			break
		}
	}
	p.accept(token.Semicolon)
	node.Span = span(t.Pos, p.prevEnd)
	return node
}

func (p *parser) parseUnset() ast.Stmt {
	t := p.advance()
	p.expect(token.LParen)
	args := p.parseExprListUntil(token.RParen)
	p.expect(token.RParen)
	p.accept(token.Semicolon)
	return &ast.UnsetStmt{Span: span(t.Pos, p.prevEnd), Args: args}
}

func (p *parser) parseFunction() ast.Stmt {
	t := p.advance() // function
	p.accept(token.Amp)
	name := p.expect(token.Ident)
	params := p.parseParams()
	body := p.parseBody()
	return &ast.FunctionDecl{
		Span:   span(t.Pos, p.prevEnd),
		Name:   name.Text,
		Params: params,
		Body:   body,
	}
}

func (p *parser) parseParams() []ast.Param {
	p.expect(token.LParen)
	var params []ast.Param
	for !p.at(token.RParen) && !p.at(token.EOF) {
		var prm ast.Param
		if _, ok := p.accept(token.Amp); ok {
			prm.ByRef = true
		}
		// Skip a type hint if present (PHP5+, rare in corpus).
		if p.at(token.Ident) && p.peek() == token.Variable {
			p.advance()
		}
		v := p.expect(token.Variable)
		prm.Name = v.Text
		if _, ok := p.accept(token.Assign); ok {
			prm.Default = p.parseAssignLevel()
		}
		params = append(params, prm)
		if _, ok := p.accept(token.Comma); !ok {
			break
		}
	}
	p.expect(token.RParen)
	return params
}

func (p *parser) parseClass() ast.Stmt {
	t := p.advance() // class
	name := p.expect(token.Ident)
	node := &ast.ClassDecl{Name: name.Text}
	if p.at(token.Ident) && strings.EqualFold(p.cur().Text, "extends") {
		p.advance()
		parent := p.expect(token.Ident)
		node.Parent = parent.Text
	}
	p.expect(token.LBrace)
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		switch p.kind() {
		case token.KwVar:
			p.advance()
			for {
				v := p.expect(token.Variable)
				pd := ast.PropDecl{Name: v.Text}
				if _, ok := p.accept(token.Assign); ok {
					pd.Default = p.parseAssignLevel()
				}
				node.Props = append(node.Props, pd)
				if _, ok := p.accept(token.Comma); !ok {
					break
				}
			}
			p.accept(token.Semicolon)
		case token.KwFunction:
			fd, ok := p.parseFunction().(*ast.FunctionDecl)
			if ok {
				node.Methods = append(node.Methods, fd)
			}
		case token.Ident:
			// Visibility modifiers etc.: skip tolerantly.
			p.advance()
		default:
			p.errorf("unexpected %v in class body", p.cur())
			// synchronize stops *before* statement keywords so statement
			// parsers can resume there, but this loop has no statement
			// parser to hand off to — force progress or we spin forever.
			mark := p.pos
			p.synchronize()
			if p.pos == mark {
				p.advance()
			}
		}
	}
	p.expect(token.RBrace)
	node.Span = span(t.Pos, p.prevEnd)
	return node
}
