package ast

import (
	"fmt"
	"strings"

	"webssari/internal/php/token"
)

// PrintFile renders a parsed file back to PHP source. The output is
// normalized (canonical spacing, braces everywhere) rather than
// byte-identical to the input; reparsing the output yields a structurally
// identical AST, a property TestPrintParseFixpoint and FuzzParse check.
func PrintFile(f *File) string {
	p := &printer{}
	p.stmts(f.Stmts, 0)
	p.closePHP()
	return p.b.String()
}

// PrintExpr renders a single expression as PHP source, for
// TestPrintExprForms.
func PrintExpr(e Expr) string {
	p := &printer{inPHP: true}
	p.expr(e, precLowest)
	return p.b.String()
}

// PrintStmt renders a single statement as PHP source, for
// TestPrintAllStatements.
func PrintStmt(s Stmt) string {
	p := &printer{inPHP: true}
	p.stmt(s, 0)
	return strings.TrimRight(p.b.String(), "\n")
}

type printer struct {
	b     strings.Builder
	inPHP bool
}

func (p *printer) openPHP() {
	if !p.inPHP {
		p.b.WriteString("<?php\n")
		p.inPHP = true
	}
}

func (p *printer) closePHP() {
	if p.inPHP {
		p.b.WriteString("?>")
		p.inPHP = false
	}
}

func (p *printer) indent(depth int) {
	for i := 0; i < depth; i++ {
		p.b.WriteString("    ")
	}
}

func (p *printer) stmts(list []Stmt, depth int) {
	for _, s := range list {
		p.stmt(s, depth)
	}
}

func (p *printer) stmt(s Stmt, depth int) {
	if _, ok := s.(*InlineHTMLStmt); !ok {
		p.openPHP()
	}
	switch s := s.(type) {
	case *ExprStmt:
		p.indent(depth)
		p.expr(s.X, precLowest)
		p.b.WriteString(";\n")
	case *EchoStmt:
		p.indent(depth)
		p.b.WriteString("echo ")
		p.exprList(s.Args)
		p.b.WriteString(";\n")
	case *InlineHTMLStmt:
		p.closePHP()
		p.b.WriteString(s.Text)
	case *IfStmt:
		p.indent(depth)
		p.b.WriteString("if (")
		p.expr(s.Cond, precLowest)
		p.b.WriteString(") {\n")
		p.stmts(s.Then, depth+1)
		p.indent(depth)
		p.b.WriteString("}")
		for _, ei := range s.Elseifs {
			p.b.WriteString(" elseif (")
			p.expr(ei.Cond, precLowest)
			p.b.WriteString(") {\n")
			p.stmts(ei.Body, depth+1)
			p.indent(depth)
			p.b.WriteString("}")
		}
		if s.Else != nil {
			p.b.WriteString(" else {\n")
			p.stmts(s.Else, depth+1)
			p.indent(depth)
			p.b.WriteString("}")
		}
		p.b.WriteString("\n")
	case *WhileStmt:
		p.indent(depth)
		p.b.WriteString("while (")
		p.expr(s.Cond, precLowest)
		p.b.WriteString(") {\n")
		p.stmts(s.Body, depth+1)
		p.indent(depth)
		p.b.WriteString("}\n")
	case *DoWhileStmt:
		p.indent(depth)
		p.b.WriteString("do {\n")
		p.stmts(s.Body, depth+1)
		p.indent(depth)
		p.b.WriteString("} while (")
		p.expr(s.Cond, precLowest)
		p.b.WriteString(");\n")
	case *ForStmt:
		p.indent(depth)
		p.b.WriteString("for (")
		p.exprList(s.Init)
		p.b.WriteString("; ")
		p.exprList(s.Cond)
		p.b.WriteString("; ")
		p.exprList(s.Post)
		p.b.WriteString(") {\n")
		p.stmts(s.Body, depth+1)
		p.indent(depth)
		p.b.WriteString("}\n")
	case *ForeachStmt:
		p.indent(depth)
		p.b.WriteString("foreach (")
		p.expr(s.Subject, precLowest)
		p.b.WriteString(" as ")
		if s.KeyVar != nil {
			p.expr(s.KeyVar, precLowest)
			p.b.WriteString(" => ")
		}
		if s.ByRef {
			p.b.WriteByte('&')
		}
		p.expr(s.ValVar, precLowest)
		p.b.WriteString(") {\n")
		p.stmts(s.Body, depth+1)
		p.indent(depth)
		p.b.WriteString("}\n")
	case *SwitchStmt:
		p.indent(depth)
		p.b.WriteString("switch (")
		p.expr(s.Subject, precLowest)
		p.b.WriteString(") {\n")
		for _, c := range s.Cases {
			p.indent(depth + 1)
			if c.Match == nil {
				p.b.WriteString("default:\n")
			} else {
				p.b.WriteString("case ")
				p.expr(c.Match, precLowest)
				p.b.WriteString(":\n")
			}
			p.stmts(c.Body, depth+2)
		}
		p.indent(depth)
		p.b.WriteString("}\n")
	case *BreakStmt:
		p.indent(depth)
		if s.Level > 1 {
			fmt.Fprintf(&p.b, "break %d;\n", s.Level)
		} else {
			p.b.WriteString("break;\n")
		}
	case *ContinueStmt:
		p.indent(depth)
		if s.Level > 1 {
			fmt.Fprintf(&p.b, "continue %d;\n", s.Level)
		} else {
			p.b.WriteString("continue;\n")
		}
	case *ReturnStmt:
		p.indent(depth)
		p.b.WriteString("return")
		if s.X != nil {
			p.b.WriteByte(' ')
			p.expr(s.X, precLowest)
		}
		p.b.WriteString(";\n")
	case *GlobalStmt:
		p.indent(depth)
		p.b.WriteString("global ")
		for i, n := range s.Names {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.b.WriteString("$" + n)
		}
		p.b.WriteString(";\n")
	case *StaticStmt:
		p.indent(depth)
		p.b.WriteString("static ")
		for i, v := range s.Vars {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.b.WriteString("$" + v.Name)
			if v.Init != nil {
				p.b.WriteString(" = ")
				p.expr(v.Init, precAssign)
			}
		}
		p.b.WriteString(";\n")
	case *UnsetStmt:
		p.indent(depth)
		p.b.WriteString("unset(")
		p.exprList(s.Args)
		p.b.WriteString(");\n")
	case *FunctionDecl:
		p.indent(depth)
		fmt.Fprintf(&p.b, "function %s(", s.Name)
		p.params(s.Params)
		p.b.WriteString(") {\n")
		p.stmts(s.Body, depth+1)
		p.indent(depth)
		p.b.WriteString("}\n")
	case *ClassDecl:
		p.indent(depth)
		fmt.Fprintf(&p.b, "class %s", s.Name)
		if s.Parent != "" {
			fmt.Fprintf(&p.b, " extends %s", s.Parent)
		}
		p.b.WriteString(" {\n")
		for _, pr := range s.Props {
			p.indent(depth + 1)
			fmt.Fprintf(&p.b, "var $%s", pr.Name)
			if pr.Default != nil {
				p.b.WriteString(" = ")
				p.expr(pr.Default, precAssign)
			}
			p.b.WriteString(";\n")
		}
		for _, m := range s.Methods {
			p.stmt(m, depth+1)
		}
		p.indent(depth)
		p.b.WriteString("}\n")
	case *BlockStmt:
		p.indent(depth)
		p.b.WriteString("{\n")
		p.stmts(s.Body, depth+1)
		p.indent(depth)
		p.b.WriteString("}\n")
	case *NopStmt:
		p.indent(depth)
		p.b.WriteString(";\n")
	default:
		fmt.Fprintf(&p.b, "/* unprintable %T */\n", s)
	}
}

func (p *printer) params(params []Param) {
	for i, pr := range params {
		if i > 0 {
			p.b.WriteString(", ")
		}
		if pr.ByRef {
			p.b.WriteByte('&')
		}
		p.b.WriteString("$" + pr.Name)
		if pr.Default != nil {
			p.b.WriteString(" = ")
			p.expr(pr.Default, precAssign)
		}
	}
}

func (p *printer) exprList(list []Expr) {
	for i, e := range list {
		if i > 0 {
			p.b.WriteString(", ")
		}
		p.expr(e, precAssign)
	}
}

// Operator precedence levels for parenthesization, loosest to tightest.
const (
	precLowest     = iota
	precLogicalOr2 // or
	precLogicalXor // xor
	precLogicalAnd2
	precAssign
	precTernary
	precOrOr
	precAndAnd
	precBitOr
	precBitXor
	precBitAnd
	precEquality
	precRelational
	precShift
	precAdditive
	precMultiplicative
	precUnary
	precPostfix
)

func binaryPrec(op token.Kind) int {
	switch op {
	case token.KwOr:
		return precLogicalOr2
	case token.KwXor:
		return precLogicalXor
	case token.KwAnd:
		return precLogicalAnd2
	case token.OrOr:
		return precOrOr
	case token.AndAnd:
		return precAndAnd
	case token.Pipe:
		return precBitOr
	case token.Caret:
		return precBitXor
	case token.Amp:
		return precBitAnd
	case token.Eq, token.NotEq, token.Identical, token.NotIdent:
		return precEquality
	case token.Lt, token.Gt, token.LtEq, token.GtEq:
		return precRelational
	case token.Shl, token.Shr:
		return precShift
	case token.Plus, token.Minus, token.Dot:
		return precAdditive
	case token.Star, token.Slash, token.Percent:
		return precMultiplicative
	default:
		return precLowest
	}
}

func (p *printer) expr(e Expr, outer int) {
	switch e := e.(type) {
	case nil:
		// Nothing: used for absent optional children.
	case *IntLit:
		p.b.WriteString(e.Raw)
	case *FloatLit:
		p.b.WriteString(e.Raw)
	case *StringLit:
		p.b.WriteString(quoteSingle(e.Value))
	case *BoolLit:
		if e.Value {
			p.b.WriteString("true")
		} else {
			p.b.WriteString("false")
		}
	case *NullLit:
		p.b.WriteString("null")
	case *Interp:
		// Re-render as an explicit concatenation: exact and unambiguous.
		p.paren(outer > precAdditive, func() {
			for i, part := range e.Parts {
				if i > 0 {
					p.b.WriteString(" . ")
				}
				p.expr(part, precMultiplicative)
			}
		})
	case *ArrayLit:
		p.b.WriteString("array(")
		for i, it := range e.Items {
			if i > 0 {
				p.b.WriteString(", ")
			}
			if it.Key != nil {
				p.expr(it.Key, precAssign)
				p.b.WriteString(" => ")
			}
			p.expr(it.Val, precAssign)
		}
		p.b.WriteByte(')')
	case *ConstFetch:
		p.b.WriteString(e.Name)
	case *Var:
		p.b.WriteString("$" + e.Name)
	case *VarVar:
		p.b.WriteString("$")
		if v, ok := e.Inner.(*Var); ok {
			p.b.WriteString("$" + v.Name)
		} else {
			p.b.WriteByte('{')
			p.expr(e.Inner, precLowest)
			p.b.WriteByte('}')
		}
	case *Index:
		p.expr(e.Arr, precPostfix)
		p.b.WriteByte('[')
		if e.Key != nil {
			p.expr(e.Key, precLowest)
		}
		p.b.WriteByte(']')
	case *Prop:
		p.expr(e.Obj, precPostfix)
		p.b.WriteString("->" + e.Name)
	case *Cast:
		p.paren(outer > precUnary, func() {
			p.b.WriteString("(" + e.To + ")")
			p.expr(e.X, precUnary)
		})
	case *Unary:
		if e.Postfix {
			p.paren(outer > precPostfix, func() {
				p.expr(e.X, precPostfix)
				p.b.WriteString(e.Op.String())
			})
			return
		}
		p.paren(outer > precUnary, func() {
			p.b.WriteString(e.Op.String())
			p.expr(e.X, precUnary)
		})
	case *Binary:
		prec := binaryPrec(e.Op)
		p.paren(outer > prec, func() {
			p.expr(e.L, prec)
			p.b.WriteString(" " + e.Op.String() + " ")
			p.expr(e.R, prec+1)
		})
	case *Assign:
		p.paren(outer > precAssign, func() {
			p.expr(e.LHS, precPostfix)
			if e.ByRef {
				p.b.WriteString(" = &")
			} else {
				p.b.WriteString(" " + e.Op.String() + " ")
			}
			p.expr(e.RHS, precAssign)
		})
	case *Ternary:
		p.paren(outer > precTernary, func() {
			p.expr(e.Cond, precTernary+1)
			if e.Then == nil {
				p.b.WriteString(" ?: ")
			} else {
				p.b.WriteString(" ? ")
				p.expr(e.Then, precTernary+1)
				p.b.WriteString(" : ")
			}
			p.expr(e.Else, precTernary)
		})
	case *Call:
		p.expr(e.Func, precPostfix)
		p.b.WriteByte('(')
		p.exprList(e.Args)
		p.b.WriteByte(')')
	case *MethodCall:
		p.expr(e.Obj, precPostfix)
		p.b.WriteString("->" + e.Name + "(")
		p.exprList(e.Args)
		p.b.WriteByte(')')
	case *StaticCall:
		p.b.WriteString(e.Class + "::" + e.Name + "(")
		p.exprList(e.Args)
		p.b.WriteByte(')')
	case *New:
		p.paren(outer > precUnary, func() {
			p.b.WriteString("new " + e.Class + "(")
			p.exprList(e.Args)
			p.b.WriteByte(')')
		})
	case *IncludeExpr:
		p.paren(outer > precLowest, func() {
			p.b.WriteString(e.Kind.String() + " ")
			p.expr(e.Path, precAssign)
		})
	case *IssetExpr:
		p.b.WriteString("isset(")
		p.exprList(e.Args)
		p.b.WriteByte(')')
	case *EmptyExpr:
		p.b.WriteString("empty(")
		p.expr(e.Arg, precLowest)
		p.b.WriteByte(')')
	case *ListExpr:
		p.b.WriteString("list(")
		for i, t := range e.Targets {
			if i > 0 {
				p.b.WriteString(", ")
			}
			if t != nil {
				p.expr(t, precAssign)
			}
		}
		p.b.WriteByte(')')
	case *ExitExpr:
		p.b.WriteString("exit")
		if e.Arg != nil {
			p.b.WriteByte('(')
			p.expr(e.Arg, precLowest)
			p.b.WriteByte(')')
		}
	default:
		fmt.Fprintf(&p.b, "/* unprintable %T */", e)
	}
}

func (p *printer) paren(need bool, body func()) {
	if need {
		p.b.WriteByte('(')
	}
	body()
	if need {
		p.b.WriteByte(')')
	}
}

// quoteSingle renders a string as a PHP single-quoted literal.
func quoteSingle(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('\'')
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'', '\\':
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('\'')
	return b.String()
}
