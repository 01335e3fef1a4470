package ir

import (
	"fmt"
	"strings"
)

// MainKey is the name the textual form gives the top-level statement
// stream.
const MainKey = "<main>"

// String renders the unit's deterministic textual form, the shape pinned
// by -dump-ir golden tests: one line per instruction, each suffixed with
// its source line:col site; nested blocks indent.
func (u *Unit) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "unit %s\n", u.File)
	fmt.Fprintf(&sb, "func %s {\n", MainKey)
	printBlock(&sb, u.Main, 1)
	sb.WriteString("}\n")
	for _, f := range u.Funcs {
		sb.WriteString(f.header())
		sb.WriteString(" {\n")
		printBlock(&sb, f.Body, 1)
		sb.WriteString("}\n")
	}
	return sb.String()
}

func (f *Func) header() string {
	var sb strings.Builder
	sb.WriteString("func ")
	if f.Class != "" {
		sb.WriteString(f.Class)
		sb.WriteString("::")
	}
	sb.WriteString(f.Name)
	sb.WriteByte('(')
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		if p.ByRef {
			sb.WriteByte('&')
		}
		sb.WriteByte('$')
		sb.WriteString(p.Name)
		if p.Default != nil {
			sb.WriteString(" = ")
			sb.WriteString(exprString(p.Default))
		}
	}
	sb.WriteByte(')')
	if len(f.Uses) > 0 {
		sb.WriteString(" use (")
		for i, u := range f.Uses {
			if i > 0 {
				sb.WriteString(", ")
			}
			if u.ByRef {
				sb.WriteByte('&')
			}
			sb.WriteByte('$')
			sb.WriteString(u.Name)
		}
		sb.WriteByte(')')
	}
	if f.Nested {
		sb.WriteString(" nested")
	}
	return sb.String()
}

func printBlock(sb *strings.Builder, b Block, depth int) {
	for _, in := range b {
		printInstr(sb, in, depth)
	}
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

// siteSuffix renders the instruction's source site.
func siteSuffix(in Instr) string {
	p := in.Pos()
	return fmt.Sprintf("  @%d:%d", p.Line, p.Col)
}

func printInstr(sb *strings.Builder, in Instr, depth int) {
	if in == nil {
		return
	}
	indent(sb, depth)
	switch in := in.(type) {
	case *Eval:
		fmt.Fprintf(sb, "eval %s%s\n", exprString(in.X), siteSuffix(in))
	case *Echo:
		fmt.Fprintf(sb, "sink echo(%s)%s\n", exprListString(in.Args), siteSuffix(in))
	case *Nop:
		fmt.Fprintf(sb, "nop %s%s\n", in.Kind, siteSuffix(in))
	case *Branch:
		kw := "branch"
		if in.Elseif {
			kw = "branch*" // elseif-derived: keeps the outer statement site
		}
		fmt.Fprintf(sb, "%s %s {%s\n", kw, exprString(in.Cond), siteSuffix(in))
		printBlock(sb, in.Then, depth+1)
		if len(in.Else) > 0 {
			indent(sb, depth)
			sb.WriteString("} else {\n")
			printBlock(sb, in.Else, depth+1)
		}
		indent(sb, depth)
		sb.WriteString("}\n")
	case *Loop:
		fmt.Fprintf(sb, "loop %s", in.Kind)
		if in.Kind == LoopFor {
			fmt.Fprintf(sb, " (%s; %s; %s)",
				exprListString(in.Init), exprListString(in.Cond), exprListString(in.Post))
		} else if len(in.Cond) > 0 {
			fmt.Fprintf(sb, " (%s)", exprString(in.Cond[0]))
		}
		fmt.Fprintf(sb, " {%s\n", siteSuffix(in))
		printBlock(sb, in.Body, depth+1)
		indent(sb, depth)
		sb.WriteString("}\n")
	case *Foreach:
		fmt.Fprintf(sb, "foreach (%s as ", exprString(in.Subject))
		if in.Key != nil {
			fmt.Fprintf(sb, "%s => ", exprString(in.Key))
		}
		if in.ByRef {
			sb.WriteByte('&')
		}
		fmt.Fprintf(sb, "%s) {%s\n", exprString(in.Val), siteSuffix(in))
		printBlock(sb, in.Body, depth+1)
		indent(sb, depth)
		sb.WriteString("}\n")
	case *Switch:
		fmt.Fprintf(sb, "switch (%s) {%s\n", exprString(in.Subject), siteSuffix(in))
		for _, c := range in.Cases {
			indent(sb, depth+1)
			if c.Match != nil {
				fmt.Fprintf(sb, "case %s:\n", exprString(c.Match))
			} else {
				sb.WriteString("default:\n")
			}
			printBlock(sb, c.Body, depth+2)
		}
		indent(sb, depth)
		sb.WriteString("}\n")
	case *Return:
		if in.X != nil {
			fmt.Fprintf(sb, "return %s%s\n", exprString(in.X), siteSuffix(in))
		} else {
			fmt.Fprintf(sb, "return%s\n", siteSuffix(in))
		}
	case *Global:
		fmt.Fprintf(sb, "global $%s%s\n", strings.Join(in.Names, ", $"), siteSuffix(in))
	case *StaticDecl:
		var parts []string
		for _, v := range in.Vars {
			if v.Init != nil {
				parts = append(parts, fmt.Sprintf("$%s = %s", v.Name, exprString(v.Init)))
			} else {
				parts = append(parts, "$"+v.Name)
			}
		}
		fmt.Fprintf(sb, "static %s%s\n", strings.Join(parts, ", "), siteSuffix(in))
	case *Unset:
		fmt.Fprintf(sb, "unset(%s)%s\n", exprListString(in.Args), siteSuffix(in))
	default:
		fmt.Fprintf(sb, "?%T\n", in)
	}
}

func exprListString(list []Expr) string {
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = exprString(e)
	}
	return strings.Join(parts, ", ")
}

// exprString renders an expression tree on one line.
func exprString(e Expr) string {
	switch e := e.(type) {
	case nil:
		return "<nil>"
	case *Lit:
		return fmt.Sprintf("%s:%s", e.Kind, e.Text)
	case *Str:
		return fmt.Sprintf("%q", e.Value)
	case *Interp:
		return fmt.Sprintf("interp(%s)", exprListString(e.Parts))
	case *Array:
		parts := make([]string, len(e.Items))
		for i, it := range e.Items {
			if it.Key != nil {
				parts[i] = exprString(it.Key) + " => " + exprString(it.Val)
			} else {
				parts[i] = exprString(it.Val)
			}
		}
		return fmt.Sprintf("array(%s)", strings.Join(parts, ", "))
	case *Var:
		return "$" + e.Name
	case *VarVar:
		return fmt.Sprintf("${%s}", exprString(e.Inner))
	case *Index:
		if e.Key == nil {
			return exprString(e.Arr) + "[]"
		}
		return fmt.Sprintf("%s[%s]", exprString(e.Arr), exprString(e.Key))
	case *Prop:
		return fmt.Sprintf("%s->%s", exprString(e.Obj), e.Name)
	case *Cast:
		kw := "cast"
		if e.Sanitizing() {
			kw = "sanitize"
		}
		return fmt.Sprintf("%s<%s>(%s)", kw, e.To, exprString(e.X))
	case *Unary:
		if e.Postfix {
			return fmt.Sprintf("(%s %s·)", exprString(e.X), e.Op)
		}
		return fmt.Sprintf("(%s %s)", e.Op, exprString(e.X))
	case *Concat:
		return fmt.Sprintf("concat(%s, %s)", exprString(e.L), exprString(e.R))
	case *Bin:
		return fmt.Sprintf("(%s %s %s)", exprString(e.L), e.Op, exprString(e.R))
	case *Assign:
		op := e.Op
		if e.ByRef {
			op += "&"
		}
		return fmt.Sprintf("(%s %s %s)", exprString(e.LHS), op, exprString(e.RHS))
	case *Ternary:
		if e.Then == nil {
			return fmt.Sprintf("(%s ?: %s)", exprString(e.Cond), exprString(e.Else))
		}
		return fmt.Sprintf("(%s ? %s : %s)", exprString(e.Cond), exprString(e.Then), exprString(e.Else))
	case *Call:
		if e.Name == "" {
			return fmt.Sprintf("call(%s)(%s)", exprString(e.Func), exprListString(e.Args))
		}
		return fmt.Sprintf("call %s(%s)", e.Name, exprListString(e.Args))
	case *MethodCall:
		return fmt.Sprintf("call %s->%s(%s)", exprString(e.Obj), e.Name, exprListString(e.Args))
	case *StaticCall:
		return fmt.Sprintf("call %s::%s(%s)", e.Class, e.Name, exprListString(e.Args))
	case *New:
		return fmt.Sprintf("new %s(%s)", e.Class, exprListString(e.Args))
	case *Include:
		return fmt.Sprintf("include<%s>(%s)", e.Kind, exprString(e.Path))
	case *Isset:
		return fmt.Sprintf("isset(%s)", exprListString(e.Args))
	case *Empty:
		return fmt.Sprintf("empty(%s)", exprString(e.Arg))
	case *List:
		parts := make([]string, len(e.Targets))
		for i, t := range e.Targets {
			if t == nil {
				parts[i] = "_"
			} else {
				parts[i] = exprString(t)
			}
		}
		return fmt.Sprintf("list(%s)", strings.Join(parts, ", "))
	case *Exit:
		if e.Arg == nil {
			return "exit()"
		}
		return fmt.Sprintf("exit(%s)", exprString(e.Arg))
	case *Closure:
		return fmt.Sprintf("closure %s", e.Fn.Name)
	case *Opaque:
		return fmt.Sprintf("opaque<%s>", e.LegacyType)
	default:
		return fmt.Sprintf("?%T", e)
	}
}
