// Package ai defines the abstract interpretation AI(F(p)) of the paper
// (§3.2, Figure 4): a loop-free imperative program over safety types. An AI
// consists only of
//
//   - type assignments  t_x = e        (Set)
//   - assertions        assert(X, τr)  (Assert)
//   - nondeterministic branches        (If)
//   - stop                              (Stop)
//
// where type expressions e are built from constants (the types of literals
// and of data retrieved through untrusted input channels), variables, and
// the least-upper-bound operator ⊔ of the safety lattice. Because every
// loop of the source program has been deconstructed into a selection by the
// filter, an AI's control-flow graph is a DAG, its diameter is fixed, and
// bounded model checking of it is sound and complete.
package ai

import (
	"fmt"
	"strings"

	"webssari/internal/lattice"
	"webssari/internal/php/token"
)

// Site records where an AI command came from in the PHP source: the exact
// construct (Pos–End) and the enclosing statement (StmtPos–StmtEnd), which
// is where the instrumentor splices runtime guards.
type Site struct {
	Pos     token.Pos
	End     int
	StmtPos token.Pos
	StmtEnd int
}

// String renders the site's primary position.
func (s Site) String() string { return s.Pos.String() }

// Expr is a safety-type expression.
type Expr interface {
	aiExpr()
	// String renders the expression; lattice constants print by name.
	String() string
}

// Const is a type constant: the safety level of a literal (⊥), of data
// from an untrusted input channel, or of a sanitizer's result.
type Const struct {
	Type lattice.Elem
	// Label optionally names where the constant came from ("$_GET",
	// "htmlspecialchars") for readable dumps.
	Label string
	// Lat gives the lattice, needed to print the element name.
	Lat *lattice.Lattice
}

// Var is a reference to the current safety type of a variable.
type Var struct {
	Name string
}

// Join is the least upper bound of its parts: the type of a compound
// expression e1 ~ e2 in Denning's model.
type Join struct {
	Parts []Expr
}

func (Const) aiExpr() {}
func (Var) aiExpr()   {}
func (Join) aiExpr()  {}

// String implements Expr.
func (c Const) String() string {
	name := fmt.Sprintf("#%d", c.Type)
	if c.Lat != nil {
		name = c.Lat.Name(c.Type)
	}
	if c.Label != "" {
		return fmt.Sprintf("%s<%s>", name, c.Label)
	}
	return name
}

// String implements Expr.
func (v Var) String() string { return "t($" + v.Name + ")" }

// String implements Expr.
func (j Join) String() string {
	parts := make([]string, len(j.Parts))
	for i, p := range j.Parts {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " ⊔ ") + ")"
}

// NewJoin builds the least-upper-bound expression of parts, flattening
// nested joins and simplifying the degenerate cases.
func NewJoin(parts ...Expr) Expr {
	var flat []Expr
	for _, p := range parts {
		if p == nil {
			continue
		}
		if j, ok := p.(Join); ok {
			flat = append(flat, j.Parts...)
			continue
		}
		flat = append(flat, p)
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	default:
		return Join{Parts: flat}
	}
}

// Cmd is one AI command.
type Cmd interface {
	aiCmd()
}

// Set is the type assignment t_x = e.
type Set struct {
	Var  string
	RHS  Expr
	Site Site
	// SrcVar is the variable's name as written in the PHP source (without
	// scope prefixes); empty for synthetic assignments.
	SrcVar string
	// RHSPos/RHSEnd delimit the source expression assigned from, the span
	// the instrumentor wraps in a sanitization routine. Invalid when the
	// assignment is synthetic (parameter binding, return plumbing).
	RHSPos token.Pos
	RHSEnd int
	// Synthetic marks assignments introduced by the filter itself (call
	// unfolding, copy-back) rather than by a source statement.
	Synthetic bool
}

// Patchable reports whether the assignment has a source expression that a
// runtime guard can wrap.
func (s *Set) Patchable() bool { return s.RHSPos.IsValid() && s.RHSEnd > s.RHSPos.Offset }

// Arg is one checked argument of an assertion.
type Arg struct {
	// Expr is the argument's type expression.
	Expr Expr
	// ArgPos is the argument's 1-based position in the original call.
	ArgPos int
	// Pos/End delimit the argument expression in the source, so a runtime
	// guard can be wrapped around it when no earlier patch point exists.
	Pos token.Pos
	End int
}

// Assert is the SOC precondition assert(X, τr): every checked argument's
// type must be strictly lower than Bound.
type Assert struct {
	// Fn is the sensitive output channel's name (echo, mysql_query, …).
	Fn    string
	Args  []Arg
	Bound lattice.Elem
	Site  Site
	// Class is the vulnerability class the active policy assigns this
	// sink; empty means the classic by-sink-name classification applies.
	Class string
	// Context names the HTML output context ("html", "attr", "js") a
	// contextual sink's dynamic argument lands in; empty for
	// non-contextual sinks. It selects the report wording and the
	// patcher's context-correct guard.
	Context string
}

// If is a nondeterministic branch; ID indexes the branch's boolean in the
// model checker's BN set.
type If struct {
	ID   int
	Then []Cmd
	Else []Cmd
	Site Site
}

// Stop terminates execution.
type Stop struct {
	Site Site
}

func (*Set) aiCmd()    {}
func (*Assert) aiCmd() {}
func (*If) aiCmd()     {}
func (*Stop) aiCmd()   {}

// Program is a complete abstract interpretation of one verification unit
// (a PHP entry file plus everything it statically includes).
type Program struct {
	// File is the entry file name.
	File string
	// Policy names the security policy the program was filtered under
	// ("" when the run used the bare prelude with no policy selected).
	Policy string
	// Cmds is the command sequence.
	Cmds []Cmd
	// Branches is the number of nondeterministic branches (the size of BN).
	Branches int
	// Lat is the safety-type lattice.
	Lat *lattice.Lattice
	// InitialTypes gives the safety type each variable has before the
	// first command (⊥ for unlisted variables).
	InitialTypes map[string]lattice.Elem
	// Warnings lists constructs the filter had to approximate (dynamic
	// includes, variable variables, recursion cutoffs).
	Warnings []string
	// Truncated is set when the filter hit its statement ceiling
	// (flow.Options.MaxCmds) and dropped commands: the model is then a
	// prefix of the real program, so a Safe verdict over it proves
	// nothing about the dropped suffix and must degrade to Unknown.
	Truncated bool
	// UnresolvedIncludes lists static include paths the loader failed to
	// read: the included code is missing from the model, so — like
	// Truncated — a Safe verdict must degrade to Unknown.
	UnresolvedIncludes []string
	// Includes snapshots the include resolution this model was built
	// under; a model is reused only while it is Current.
	Includes Includes
}

// InitialType returns the initial type of a variable (⊥ when unlisted).
func (p *Program) InitialType(name string) lattice.Elem {
	if t, ok := p.InitialTypes[name]; ok {
		return t
	}
	return p.Lat.Bottom()
}

// Asserts returns all assertions in command order.
func (p *Program) Asserts() []*Assert {
	var out []*Assert
	Walk(p.Cmds, func(c Cmd) {
		if a, ok := c.(*Assert); ok {
			out = append(out, a)
		}
	})
	return out
}

// Vars returns the set of variable names mentioned anywhere in the program
// (assigned or read), in first-appearance order.
func (p *Program) Vars() []string {
	var order []string
	seen := make(map[string]bool)
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			order = append(order, name)
		}
	}
	var addExpr func(e Expr)
	addExpr = func(e Expr) {
		switch e := e.(type) {
		case Var:
			add(e.Name)
		case Join:
			for _, part := range e.Parts {
				addExpr(part)
			}
		}
	}
	Walk(p.Cmds, func(c Cmd) {
		switch c := c.(type) {
		case *Set:
			add(c.Var)
			addExpr(c.RHS)
		case *Assert:
			for _, a := range c.Args {
				addExpr(a.Expr)
			}
		}
	})
	return order
}

// Size returns the total number of commands, counting both branch arms.
func (p *Program) Size() int {
	n := 0
	Walk(p.Cmds, func(Cmd) { n++ })
	return n
}

// Diameter returns the length of the longest execution path through the
// program — the bound k that makes BMC complete (§3.3.1). It is finite
// because the AI is loop-free.
func (p *Program) Diameter() int {
	return pathLen(p.Cmds)
}

func pathLen(cmds []Cmd) int {
	n := 0
	for _, c := range cmds {
		switch c := c.(type) {
		case *If:
			thenLen := pathLen(c.Then)
			elseLen := pathLen(c.Else)
			if elseLen > thenLen {
				thenLen = elseLen
			}
			n += 1 + thenLen
		default:
			n++
		}
	}
	return n
}

// Walk applies fn to every command in preorder, descending into branches.
func Walk(cmds []Cmd, fn func(Cmd)) {
	for _, c := range cmds {
		fn(c)
		if ifc, ok := c.(*If); ok {
			Walk(ifc.Then, fn)
			Walk(ifc.Else, fn)
		}
	}
}

// String renders the program in the AI notation of the paper's Figure 6.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AI(%s) over %s\n", p.File, p.Lat)
	printCmds(&b, p.Cmds, p.Lat, 0)
	return b.String()
}

func printCmds(b *strings.Builder, cmds []Cmd, lat *lattice.Lattice, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, c := range cmds {
		switch c := c.(type) {
		case *Set:
			fmt.Fprintf(b, "%st($%s) = %s;\n", ind, c.Var, c.RHS)
		case *Assert:
			args := make([]string, len(c.Args))
			for i, a := range c.Args {
				args[i] = a.Expr.String()
			}
			ctx := ""
			if c.Context != "" {
				ctx = " [" + c.Context + "]"
			}
			fmt.Fprintf(b, "%sassert(%s < %s);  // %s%s at %s\n",
				ind, strings.Join(args, ", "), lat.Name(c.Bound), c.Fn, ctx, c.Site)
		case *If:
			fmt.Fprintf(b, "%sif b%d then\n", ind, c.ID)
			printCmds(b, c.Then, lat, depth+1)
			if len(c.Else) > 0 {
				fmt.Fprintf(b, "%selse\n", ind)
				printCmds(b, c.Else, lat, depth+1)
			}
			fmt.Fprintf(b, "%sendif\n", ind)
		case *Stop:
			fmt.Fprintf(b, "%sstop;\n", ind)
		}
	}
}
