package parser

import (
	"strconv"
	"strings"

	"webssari/internal/php/ast"
	"webssari/internal/php/lexer"
	"webssari/internal/php/token"
)

// parseExpr parses a full expression, starting from the loosest-binding
// operators (the keyword logicals "or"/"xor"/"and", which bind more loosely
// than assignment in PHP).
func (p *parser) parseExpr() ast.Expr {
	return p.parseKeywordOr()
}

func (p *parser) parseKeywordOr() ast.Expr {
	left := p.parseKeywordXor()
	for p.at(token.KwOr) {
		op := p.advance()
		right := p.parseKeywordXor()
		left = p.binary(op.Kind, left, right)
	}
	return left
}

func (p *parser) parseKeywordXor() ast.Expr {
	left := p.parseKeywordAnd()
	for p.at(token.KwXor) {
		op := p.advance()
		right := p.parseKeywordAnd()
		left = p.binary(op.Kind, left, right)
	}
	return left
}

func (p *parser) parseKeywordAnd() ast.Expr {
	left := p.parseAssignLevel()
	for p.at(token.KwAnd) {
		op := p.advance()
		right := p.parseAssignLevel()
		left = p.binary(op.Kind, left, right)
	}
	return left
}

func isAssignOp(k token.Kind) bool {
	switch k {
	case token.Assign, token.ConcatAssign, token.PlusAssign, token.MinusAssign,
		token.StarAssign, token.SlashAssign, token.PercentAssign:
		return true
	}
	return false
}

// parseAssignLevel parses assignment (right-associative) and everything
// tighter.
func (p *parser) parseAssignLevel() ast.Expr {
	left := p.parseTernary()
	if left == nil || !isAssignOp(p.kind()) {
		return left
	}
	op := p.advance()
	byRef := false
	if op.Kind == token.Assign {
		if _, ok := p.accept(token.Amp); ok {
			byRef = true
		}
	}
	right := p.parseAssignLevel()
	end := p.prevEnd
	if right != nil {
		end = right.End()
	}
	return &ast.Assign{
		Span:  span(left.Pos(), end),
		Op:    op.Kind,
		LHS:   left,
		RHS:   right,
		ByRef: byRef,
	}
}

func (p *parser) parseTernary() ast.Expr {
	cond := p.parseBinary(0)
	if cond == nil || !p.at(token.Question) {
		return cond
	}
	p.advance()
	var then ast.Expr
	if !p.at(token.Colon) {
		then = p.parseExprNoAssignKw()
	}
	p.expect(token.Colon)
	els := p.parseExprNoAssignKw()
	end := p.prevEnd
	if els != nil {
		end = els.End()
	}
	return &ast.Ternary{Span: span(cond.Pos(), end), Cond: cond, Then: then, Else: els}
}

// parseExprNoAssignKw parses the expression level below keyword logicals
// (for ternary arms, where "or"/"and" would not bind inside).
func (p *parser) parseExprNoAssignKw() ast.Expr {
	return p.parseAssignLevel()
}

// binLevels defines binary operator precedence from loosest to tightest.
var binLevels = [][]token.Kind{
	{token.OrOr},
	{token.AndAnd},
	{token.Pipe},
	{token.Caret},
	{token.Amp},
	{token.Eq, token.NotEq, token.Identical, token.NotIdent},
	{token.Lt, token.Gt, token.LtEq, token.GtEq},
	{token.Shl, token.Shr},
	{token.Plus, token.Minus, token.Dot},
	{token.Star, token.Slash, token.Percent},
}

func (p *parser) parseBinary(level int) ast.Expr {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	left := p.parseBinary(level + 1)
	for {
		matched := false
		for _, k := range binLevels[level] {
			if p.at(k) {
				op := p.advance()
				right := p.parseBinary(level + 1)
				left = p.binary(op.Kind, left, right)
				matched = true
				break
			}
		}
		if !matched {
			return left
		}
	}
}

func (p *parser) binary(op token.Kind, l, r ast.Expr) ast.Expr {
	start := p.cur().Pos
	end := p.prevEnd
	if l != nil {
		start = l.Pos()
	}
	if r != nil {
		end = r.End()
	}
	return &ast.Binary{Span: span(start, end), Op: op, L: l, R: r}
}

func (p *parser) parseUnary() ast.Expr {
	start := p.cur().Pos
	switch p.kind() {
	case token.Not, token.Minus, token.Plus, token.Tilde, token.At:
		op := p.advance()
		x := p.parseUnary()
		end := p.prevEnd
		if x != nil {
			end = x.End()
		}
		return &ast.Unary{Span: span(start, end), Op: op.Kind, X: x}
	case token.Inc, token.Dec:
		op := p.advance()
		x := p.parseUnary()
		end := p.prevEnd
		if x != nil {
			end = x.End()
		}
		return &ast.Unary{Span: span(start, end), Op: op.Kind, X: x}
	case token.KwNew:
		p.advance()
		cls := p.expect(token.Ident)
		var args []ast.Expr
		if p.at(token.LParen) {
			p.advance()
			args = p.parseExprListUntil(token.RParen)
			p.expect(token.RParen)
		}
		return &ast.New{Span: span(start, p.prevEnd), Class: cls.Text, Args: args}
	case token.KwPrint:
		p.advance()
		arg := p.parseAssignLevel()
		if arg == nil {
			p.errorf("expected expression after print")
			return nil
		}
		return &ast.Call{
			Span: span(start, arg.End()),
			Func: &ast.ConstFetch{Span: span(start, start.Offset+len("print")), Name: "print"},
			Args: []ast.Expr{arg},
		}
	case token.KwInclude, token.KwIncludeOnce, token.KwRequire, token.KwRequireOnce:
		kw := p.advance()
		// Parenthesized form include('f') or bare include 'f'.
		path := p.parseAssignLevel()
		if path == nil {
			p.errorf("expected path after %s", kw.Kind)
			return nil
		}
		return &ast.IncludeExpr{Span: span(start, path.End()), Kind: kw.Kind, Path: path}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() ast.Expr {
	e := p.parsePrimary()
	e = p.parsePostfixOps(e)
	if e == nil {
		return nil
	}
	// Postfix increment/decrement.
	for p.at(token.Inc) || p.at(token.Dec) {
		op := p.advance()
		e = &ast.Unary{Span: span(e.Pos(), op.End), Op: op.Kind, X: e, Postfix: true}
	}
	return e
}

// parsePostfixOps applies chains of [index], ->prop, ->method(), and call
// suffixes to a primary expression.
func (p *parser) parsePostfixOps(e ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	for {
		switch p.kind() {
		case token.LBracket:
			p.advance()
			var key ast.Expr
			if !p.at(token.RBracket) {
				key = p.parseExpr()
			}
			rb := p.expect(token.RBracket)
			e = &ast.Index{Span: span(e.Pos(), rb.End), Arr: e, Key: key}
		case token.LBrace:
			// String offset syntax $s{0}: only valid directly after a
			// variable-rooted expression; treat like an index. Skip unless
			// the brace is immediately followed by an expression and a
			// matching '}' — otherwise it is a block.
			if !isVarRooted(e) {
				return e
			}
			p.advance()
			key := p.parseExpr()
			rb := p.expect(token.RBrace)
			e = &ast.Index{Span: span(e.Pos(), rb.End), Arr: e, Key: key}
		case token.Arrow:
			p.advance()
			name := p.expect(token.Ident)
			if p.at(token.LParen) {
				p.advance()
				args := p.parseExprListUntil(token.RParen)
				rp := p.expect(token.RParen)
				e = &ast.MethodCall{Span: span(e.Pos(), rp.End), Obj: e, Name: name.Text, Args: args}
			} else {
				e = &ast.Prop{Span: span(e.Pos(), name.End), Obj: e, Name: name.Text}
			}
		case token.LParen:
			// Call on a variable function ($f()) or on a ConstFetch (f()).
			switch e.(type) {
			case *ast.Var, *ast.ConstFetch, *ast.Index, *ast.Prop:
				p.advance()
				args := p.parseExprListUntil(token.RParen)
				rp := p.expect(token.RParen)
				e = &ast.Call{Span: span(e.Pos(), rp.End), Func: e, Args: args}
			default:
				return e
			}
		default:
			return e
		}
	}
}

func isVarRooted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Var, *ast.VarVar:
		return true
	case *ast.Index:
		return isVarRooted(e.Arr)
	case *ast.Prop:
		return isVarRooted(e.Obj)
	default:
		return false
	}
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.Variable:
		p.advance()
		return &ast.Var{Span: span(t.Pos, t.End), Name: t.Text}

	case token.Dollar:
		p.advance()
		if p.at(token.LBrace) {
			p.advance()
			inner := p.parseExpr()
			rb := p.expect(token.RBrace)
			return &ast.VarVar{Span: span(t.Pos, rb.End), Inner: inner}
		}
		inner := p.parsePrimary()
		end := p.prevEnd
		if inner != nil {
			end = inner.End()
		}
		return &ast.VarVar{Span: span(t.Pos, end), Inner: inner}

	case token.IntLit:
		p.advance()
		v, _ := strconv.ParseInt(t.Text, 0, 64)
		return &ast.IntLit{Span: span(t.Pos, t.End), Raw: t.Text, Value: v}

	case token.FloatLit:
		p.advance()
		v, _ := strconv.ParseFloat(t.Text, 64)
		return &ast.FloatLit{Span: span(t.Pos, t.End), Raw: t.Text, Value: v}

	case token.StringLit:
		p.advance()
		return &ast.StringLit{Span: span(t.Pos, t.End), Value: t.Text}

	case token.InterpString, token.HeredocString:
		p.advance()
		return p.buildInterp(t)

	case token.BacktickString:
		// `cmd $arg` executes through the shell: desugar to
		// shell_exec("cmd $arg") so the SOC precondition applies.
		p.advance()
		arg := p.buildInterp(t)
		return &ast.Call{
			Span: span(t.Pos, t.End),
			Func: &ast.ConstFetch{Span: span(t.Pos, t.End), Name: "shell_exec"},
			Args: []ast.Expr{arg},
		}

	case token.KwTrue:
		p.advance()
		return &ast.BoolLit{Span: span(t.Pos, t.End), Value: true}
	case token.KwFalse:
		p.advance()
		return &ast.BoolLit{Span: span(t.Pos, t.End), Value: false}
	case token.KwNull:
		p.advance()
		return &ast.NullLit{Span: span(t.Pos, t.End)}

	case token.KwArray:
		p.advance()
		p.expect(token.LParen)
		node := &ast.ArrayLit{}
		for !p.at(token.RParen) && !p.at(token.EOF) {
			item := ast.ArrayItem{Val: p.parseAssignLevel()}
			if _, ok := p.accept(token.DoubleArrow); ok {
				item.Key = item.Val
				p.accept(token.Amp)
				item.Val = p.parseAssignLevel()
			}
			node.Items = append(node.Items, item)
			if _, ok := p.accept(token.Comma); !ok {
				break
			}
		}
		rp := p.expect(token.RParen)
		node.Span = span(t.Pos, rp.End)
		return node

	case token.KwList:
		p.advance()
		p.expect(token.LParen)
		node := &ast.ListExpr{}
		for !p.at(token.RParen) && !p.at(token.EOF) {
			if p.at(token.Comma) {
				node.Targets = append(node.Targets, nil)
				p.advance()
				continue
			}
			node.Targets = append(node.Targets, p.parseLValue())
			if _, ok := p.accept(token.Comma); !ok {
				break
			}
		}
		rp := p.expect(token.RParen)
		node.Span = span(t.Pos, rp.End)
		return node

	case token.KwIsset:
		p.advance()
		p.expect(token.LParen)
		args := p.parseExprListUntil(token.RParen)
		rp := p.expect(token.RParen)
		return &ast.IssetExpr{Span: span(t.Pos, rp.End), Args: args}

	case token.KwEmpty:
		p.advance()
		p.expect(token.LParen)
		arg := p.parseExpr()
		rp := p.expect(token.RParen)
		return &ast.EmptyExpr{Span: span(t.Pos, rp.End), Arg: arg}

	case token.KwFunction:
		return p.parseClosure()

	case token.KwExit, token.KwDie:
		p.advance()
		node := &ast.ExitExpr{}
		if p.at(token.LParen) {
			p.advance()
			if !p.at(token.RParen) {
				node.Arg = p.parseExpr()
			}
			p.expect(token.RParen)
		}
		node.Span = span(t.Pos, p.prevEnd)
		return node

	case token.LParen:
		// Distinguish a cast "(int)$x" from a parenthesized expression.
		if castTo, ok := castTarget(p); ok {
			p.advance() // (
			ident := p.advance()
			p.expect(token.RParen)
			x := p.parseUnary()
			end := p.prevEnd
			if x != nil {
				end = x.End()
			}
			_ = ident
			return &ast.Cast{Span: span(t.Pos, end), To: castTo, X: x}
		}
		p.advance()
		e := p.parseExpr()
		p.expect(token.RParen)
		return e

	case token.Ident:
		p.advance()
		if p.at(token.DoubleColon) {
			p.advance()
			name := p.expect(token.Ident)
			p.expect(token.LParen)
			args := p.parseExprListUntil(token.RParen)
			rp := p.expect(token.RParen)
			return &ast.StaticCall{
				Span:  span(t.Pos, rp.End),
				Class: t.Text, Name: name.Text, Args: args,
			}
		}
		return &ast.ConstFetch{Span: span(t.Pos, t.End), Name: t.Text}

	default:
		p.errorf("unexpected %v in expression", t)
		// Do not consume statement terminators: leaving them in place lets
		// the statement parser resynchronize without losing the next
		// statement.
		switch t.Kind {
		case token.Semicolon, token.RBrace, token.RParen, token.RBracket,
			token.CloseTag, token.EOF:
		default:
			p.advance()
		}
		return nil
	}
}

// parseClosure parses an anonymous function expression:
// function (params) [use ($a, &$b)] { body }. The optional leading '&'
// (by-reference return) is accepted and ignored, as in parseFunction.
func (p *parser) parseClosure() ast.Expr {
	t := p.advance() // function
	p.accept(token.Amp)
	params := p.parseParams()
	node := &ast.Closure{Params: params}
	if p.at(token.Ident) && strings.EqualFold(p.cur().Text, "use") {
		p.advance()
		p.expect(token.LParen)
		for !p.at(token.RParen) && !p.at(token.EOF) {
			var u ast.ClosureUse
			if _, ok := p.accept(token.Amp); ok {
				u.ByRef = true
			}
			v := p.expect(token.Variable)
			u.Name = v.Text
			node.Uses = append(node.Uses, u)
			if _, ok := p.accept(token.Comma); !ok {
				break
			}
		}
		p.expect(token.RParen)
	}
	node.Body = p.parseBody()
	node.Span = span(t.Pos, p.prevEnd)
	return node
}

// castTarget reports whether the parser sits on a cast "(<type>)" and
// returns the lower-cased cast target.
func castTarget(p *parser) (string, bool) {
	if p.kind() != token.LParen {
		return "", false
	}
	mid := p.tok[1]
	if p.tok[2].Kind != token.RParen {
		return "", false
	}
	var name string
	switch mid.Kind {
	case token.Ident:
		name = ast.LowerName(mid.Text)
	case token.KwArray:
		name = "array"
	default:
		return "", false
	}
	switch name {
	case "int", "integer", "float", "double", "real", "bool", "boolean",
		"string", "array", "object", "unset":
		return name, true
	default:
		return "", false
	}
}

// buildInterp converts a raw interpolated string token into an Interp node
// (or a plain StringLit when there is nothing to interpolate). Embedded
// expressions are re-parsed; their spans are approximated by the span of
// the whole string token, which is sufficient for reporting.
func (p *parser) buildInterp(t token.Token) ast.Expr {
	segs := lexer.SplitInterp(t.Text)
	sp := span(t.Pos, t.End)
	if len(segs) == 0 {
		return &ast.StringLit{Span: sp, Value: ""}
	}
	if len(segs) == 1 && segs[0].Kind == lexer.SegText {
		return &ast.StringLit{Span: sp, Value: segs[0].Text}
	}
	node := &ast.Interp{Span: sp}
	for _, seg := range segs {
		if seg.Kind == lexer.SegText {
			node.Parts = append(node.Parts, &ast.StringLit{Span: sp, Value: seg.Text})
			continue
		}
		e, errs := ParseExprString(t.Pos.File, seg.Text)
		if len(errs) > 0 || e == nil {
			p.diags = append(p.diags, diag{err: &Error{
				Pos: t.Pos,
				Msg: "cannot parse interpolated expression " + strconv.Quote(seg.Text),
			}})
			node.Parts = append(node.Parts, &ast.StringLit{Span: sp, Value: seg.Text})
			continue
		}
		retarget(e, sp)
		node.Parts = append(node.Parts, e)
	}
	return node
}

// retarget rewrites the spans of a re-parsed embedded expression tree to
// point at the enclosing string token, so positions always refer to real
// source locations.
func retarget(e ast.Expr, sp ast.Span) {
	switch e := e.(type) {
	case *ast.Var:
		e.Span = sp
	case *ast.VarVar:
		e.Span = sp
		retarget(e.Inner, sp)
	case *ast.Index:
		e.Span = sp
		retarget(e.Arr, sp)
		if e.Key != nil {
			retarget(e.Key, sp)
		}
	case *ast.Prop:
		e.Span = sp
		retarget(e.Obj, sp)
	case *ast.StringLit:
		e.Span = sp
	case *ast.IntLit:
		e.Span = sp
	case *ast.Binary:
		e.Span = sp
		retarget(e.L, sp)
		retarget(e.R, sp)
	case *ast.Call:
		e.Span = sp
		retarget(e.Func, sp)
		for _, a := range e.Args {
			retarget(a, sp)
		}
	case *ast.MethodCall:
		e.Span = sp
		retarget(e.Obj, sp)
		for _, a := range e.Args {
			retarget(a, sp)
		}
	}
}
