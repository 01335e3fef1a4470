package ast

import (
	"fmt"
	"strconv"
	"strings"
)

// Dump renders a node as a compact s-expression, independent of source
// formatting. It is the canonical structural form used by parser tests
// (two parses are structurally equal iff their dumps are equal), such as
// TestParseExprString and TestDumpAllNodes.
func Dump(n Node) string {
	var b strings.Builder
	dumpNode(&b, n)
	return b.String()
}

// DumpStmts dumps a statement list, for TestFigure1Parses and FuzzParse.
func DumpStmts(stmts []Stmt) string {
	var b strings.Builder
	dumpStmtList(&b, stmts)
	return b.String()
}

func dumpStmtList(b *strings.Builder, stmts []Stmt) {
	b.WriteByte('[')
	for i, s := range stmts {
		if i > 0 {
			b.WriteByte(' ')
		}
		dumpNode(b, s)
	}
	b.WriteByte(']')
}

func dumpExprList(b *strings.Builder, exprs []Expr) {
	for i, e := range exprs {
		if i > 0 {
			b.WriteByte(' ')
		}
		dumpNode(b, e)
	}
}

func dumpNode(b *strings.Builder, n Node) {
	switch n := n.(type) {
	case nil:
		b.WriteString("nil")

	case *IntLit:
		fmt.Fprintf(b, "(int %s)", n.Raw)
	case *FloatLit:
		fmt.Fprintf(b, "(float %s)", n.Raw)
	case *StringLit:
		fmt.Fprintf(b, "(str %s)", strconv.Quote(n.Value))
	case *BoolLit:
		fmt.Fprintf(b, "(bool %v)", n.Value)
	case *NullLit:
		b.WriteString("(null)")
	case *Interp:
		// Interpolation is semantically a left-associated concatenation of
		// its parts; dumping it in that shape makes the dump agree with the
		// printer's normalized output ("a $b" prints as 'a ' . $b).
		if len(n.Parts) == 0 {
			b.WriteString(`(str "")`)
			return
		}
		for i := 1; i < len(n.Parts); i++ {
			b.WriteString(`("." `)
		}
		dumpNode(b, n.Parts[0])
		for i := 1; i < len(n.Parts); i++ {
			b.WriteByte(' ')
			dumpNode(b, n.Parts[i])
			b.WriteByte(')')
		}
	case *ArrayLit:
		b.WriteString("(array")
		for _, it := range n.Items {
			b.WriteByte(' ')
			if it.Key != nil {
				b.WriteByte('(')
				dumpNode(b, it.Key)
				b.WriteString(" => ")
				dumpNode(b, it.Val)
				b.WriteByte(')')
			} else {
				dumpNode(b, it.Val)
			}
		}
		b.WriteByte(')')
	case *ConstFetch:
		fmt.Fprintf(b, "(const %s)", n.Name)
	case *Var:
		fmt.Fprintf(b, "$%s", n.Name)
	case *VarVar:
		b.WriteString("(varvar ")
		dumpNode(b, n.Inner)
		b.WriteByte(')')
	case *Index:
		b.WriteString("(index ")
		dumpNode(b, n.Arr)
		b.WriteByte(' ')
		dumpNode(b, n.Key)
		b.WriteByte(')')
	case *Prop:
		b.WriteString("(prop ")
		dumpNode(b, n.Obj)
		fmt.Fprintf(b, " %s)", n.Name)
	case *Cast:
		fmt.Fprintf(b, "(cast %s ", n.To)
		dumpNode(b, n.X)
		b.WriteByte(')')
	case *Unary:
		mode := "pre"
		if n.Postfix {
			mode = "post"
		}
		fmt.Fprintf(b, "(%s%q ", mode, n.Op.String())
		dumpNode(b, n.X)
		b.WriteByte(')')
	case *Binary:
		fmt.Fprintf(b, "(%q ", n.Op.String())
		dumpNode(b, n.L)
		b.WriteByte(' ')
		dumpNode(b, n.R)
		b.WriteByte(')')
	case *Assign:
		op := n.Op.String()
		if n.ByRef {
			op = "=&"
		}
		fmt.Fprintf(b, "(%q ", op)
		dumpNode(b, n.LHS)
		b.WriteByte(' ')
		dumpNode(b, n.RHS)
		b.WriteByte(')')
	case *Ternary:
		b.WriteString("(?: ")
		dumpNode(b, n.Cond)
		b.WriteByte(' ')
		dumpNode(b, n.Then)
		b.WriteByte(' ')
		dumpNode(b, n.Else)
		b.WriteByte(')')
	case *Call:
		b.WriteString("(call ")
		dumpNode(b, n.Func)
		if len(n.Args) > 0 {
			b.WriteByte(' ')
			dumpExprList(b, n.Args)
		}
		b.WriteByte(')')
	case *MethodCall:
		fmt.Fprintf(b, "(method ")
		dumpNode(b, n.Obj)
		fmt.Fprintf(b, " %s", n.Name)
		if len(n.Args) > 0 {
			b.WriteByte(' ')
			dumpExprList(b, n.Args)
		}
		b.WriteByte(')')
	case *StaticCall:
		fmt.Fprintf(b, "(static %s::%s", n.Class, n.Name)
		if len(n.Args) > 0 {
			b.WriteByte(' ')
			dumpExprList(b, n.Args)
		}
		b.WriteByte(')')
	case *New:
		fmt.Fprintf(b, "(new %s", n.Class)
		if len(n.Args) > 0 {
			b.WriteByte(' ')
			dumpExprList(b, n.Args)
		}
		b.WriteByte(')')
	case *IncludeExpr:
		fmt.Fprintf(b, "(%s ", n.Kind)
		dumpNode(b, n.Path)
		b.WriteByte(')')
	case *IssetExpr:
		b.WriteString("(isset ")
		dumpExprList(b, n.Args)
		b.WriteByte(')')
	case *EmptyExpr:
		b.WriteString("(empty ")
		dumpNode(b, n.Arg)
		b.WriteByte(')')
	case *ListExpr:
		b.WriteString("(list ")
		dumpExprList(b, n.Targets)
		b.WriteByte(')')
	case *ExitExpr:
		b.WriteString("(exit")
		if n.Arg != nil {
			b.WriteByte(' ')
			dumpNode(b, n.Arg)
		}
		b.WriteByte(')')

	case *ExprStmt:
		b.WriteString("(expr ")
		dumpNode(b, n.X)
		b.WriteByte(')')
	case *EchoStmt:
		b.WriteString("(echo ")
		dumpExprList(b, n.Args)
		b.WriteByte(')')
	case *InlineHTMLStmt:
		fmt.Fprintf(b, "(html %s)", strconv.Quote(n.Text))
	case *IfStmt:
		b.WriteString("(if ")
		dumpNode(b, n.Cond)
		b.WriteByte(' ')
		dumpStmtList(b, n.Then)
		for _, ei := range n.Elseifs {
			b.WriteString(" (elseif ")
			dumpNode(b, ei.Cond)
			b.WriteByte(' ')
			dumpStmtList(b, ei.Body)
			b.WriteByte(')')
		}
		if n.Else != nil {
			b.WriteString(" (else ")
			dumpStmtList(b, n.Else)
			b.WriteByte(')')
		}
		b.WriteByte(')')
	case *WhileStmt:
		b.WriteString("(while ")
		dumpNode(b, n.Cond)
		b.WriteByte(' ')
		dumpStmtList(b, n.Body)
		b.WriteByte(')')
	case *DoWhileStmt:
		b.WriteString("(do ")
		dumpStmtList(b, n.Body)
		b.WriteByte(' ')
		dumpNode(b, n.Cond)
		b.WriteByte(')')
	case *ForStmt:
		b.WriteString("(for (")
		dumpExprList(b, n.Init)
		b.WriteString(") (")
		dumpExprList(b, n.Cond)
		b.WriteString(") (")
		dumpExprList(b, n.Post)
		b.WriteString(") ")
		dumpStmtList(b, n.Body)
		b.WriteByte(')')
	case *ForeachStmt:
		b.WriteString("(foreach ")
		dumpNode(b, n.Subject)
		b.WriteString(" as ")
		if n.KeyVar != nil {
			dumpNode(b, n.KeyVar)
			b.WriteString(" => ")
		}
		if n.ByRef {
			b.WriteByte('&')
		}
		dumpNode(b, n.ValVar)
		b.WriteByte(' ')
		dumpStmtList(b, n.Body)
		b.WriteByte(')')
	case *SwitchStmt:
		b.WriteString("(switch ")
		dumpNode(b, n.Subject)
		for _, c := range n.Cases {
			if c.Match == nil {
				b.WriteString(" (default ")
			} else {
				b.WriteString(" (case ")
				dumpNode(b, c.Match)
				b.WriteByte(' ')
			}
			dumpStmtList(b, c.Body)
			b.WriteByte(')')
		}
		b.WriteByte(')')
	case *BreakStmt:
		fmt.Fprintf(b, "(break %d)", n.Level)
	case *ContinueStmt:
		fmt.Fprintf(b, "(continue %d)", n.Level)
	case *ReturnStmt:
		b.WriteString("(return")
		if n.X != nil {
			b.WriteByte(' ')
			dumpNode(b, n.X)
		}
		b.WriteByte(')')
	case *GlobalStmt:
		fmt.Fprintf(b, "(global %s)", strings.Join(n.Names, " "))
	case *StaticStmt:
		b.WriteString("(staticvar")
		for _, v := range n.Vars {
			fmt.Fprintf(b, " $%s", v.Name)
			if v.Init != nil {
				b.WriteByte('=')
				dumpNode(b, v.Init)
			}
		}
		b.WriteByte(')')
	case *UnsetStmt:
		b.WriteString("(unset ")
		dumpExprList(b, n.Args)
		b.WriteByte(')')
	case *FunctionDecl:
		fmt.Fprintf(b, "(function %s (", n.Name)
		for i, p := range n.Params {
			if i > 0 {
				b.WriteByte(' ')
			}
			if p.ByRef {
				b.WriteByte('&')
			}
			fmt.Fprintf(b, "$%s", p.Name)
			if p.Default != nil {
				b.WriteByte('=')
				dumpNode(b, p.Default)
			}
		}
		b.WriteString(") ")
		dumpStmtList(b, n.Body)
		b.WriteByte(')')
	case *ClassDecl:
		fmt.Fprintf(b, "(class %s", n.Name)
		if n.Parent != "" {
			fmt.Fprintf(b, " extends %s", n.Parent)
		}
		for _, p := range n.Props {
			fmt.Fprintf(b, " (var $%s", p.Name)
			if p.Default != nil {
				b.WriteByte('=')
				dumpNode(b, p.Default)
			}
			b.WriteByte(')')
		}
		for _, m := range n.Methods {
			b.WriteByte(' ')
			dumpNode(b, m)
		}
		b.WriteByte(')')
	case *BlockStmt:
		b.WriteString("(block ")
		dumpStmtList(b, n.Body)
		b.WriteByte(')')
	case *NopStmt:
		b.WriteString("(nop)")

	default:
		fmt.Fprintf(b, "(UNKNOWN %T)", n)
	}
}
