// Package rename implements the variable renaming procedure ρ of §3.3.2:
// the CBMC-style single-assignment transformation (Clarke, Kroening, Yorav)
// that the paper's xBMC1.0 adopted after the location-variable encoding of
// xBMC0.1 proved too expensive.
//
// Let α be the number of assignments made to variable v prior to program
// location i; the occurrence of v at location i is renamed to vα. After ρ,
// every renamed variable is assigned at most once, so an assignment is
// encoded with 2 variables instead of 2·|X|. No φ-nodes are needed: the
// guarded ITE constraints of Figure 5 (package constraint) account for
// branching.
//
// Because the AI is a straight-line sequence with nested nondeterministic
// branches, the renaming threads one global counter per variable through
// the commands in textual order; a read inside an else-arm may therefore
// refer to an index assigned in the then-arm — harmlessly, since that
// assignment's guard makes it an identity when the else-arm runs.
package rename

import (
	"fmt"
	"strings"

	"webssari/internal/ai"
	"webssari/internal/lattice"
)

// SSAVar is a renamed variable vα.
type SSAVar struct {
	Name string
	// Idx is α: 0 refers to the variable's initial value; assignment i
	// (1-based) defines index i.
	Idx int
}

// String renders the renamed variable as name#idx.
func (v SSAVar) String() string { return fmt.Sprintf("%s@%d", v.Name, v.Idx) }

// Expr is a renamed type expression.
type Expr interface {
	renExpr()
	String() string
}

// Const is a type constant (unchanged by renaming).
type Const struct {
	Type  lattice.Elem
	Label string
	Lat   *lattice.Lattice
}

// Ref reads a renamed variable.
type Ref struct {
	V SSAVar
}

// Join is the least upper bound of its parts.
type Join struct {
	Parts []Expr
}

func (Const) renExpr() {}
func (Ref) renExpr()   {}
func (Join) renExpr()  {}

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
func (r Ref) String() string { return "t(" + r.V.String() + ")" }

// String implements Expr.
func (j Join) String() string {
	parts := make([]string, len(j.Parts))
	for i, p := range j.Parts {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " ⊔ ") + ")"
}

// Cmd is a renamed command.
type Cmd interface {
	renCmd()
}

// Set is the single assignment t(vα) = e.
type Set struct {
	V      SSAVar
	RHS    Expr
	Origin *ai.Set
}

// Arg is one checked assertion argument.
type Arg struct {
	Expr   Expr
	ArgPos int
}

// Assert is a renamed assertion; ID numbers assertions in textual order.
type Assert struct {
	ID     int
	Args   []Arg
	Bound  lattice.Elem
	Origin *ai.Assert
}

// If is a nondeterministic branch (IDs carried over from the AI).
type If struct {
	ID     int
	Then   []Cmd
	Else   []Cmd
	Origin *ai.If
}

// Stop terminates execution.
type Stop struct {
	Origin *ai.Stop
}

func (*Set) renCmd()    {}
func (*Assert) renCmd() {}
func (*If) renCmd()     {}
func (*Stop) renCmd()   {}

// Program is the single-assignment form of an AI program.
type Program struct {
	AI   *ai.Program
	Cmds []Cmd
	// Counts is the final assignment count per variable name.
	Counts map[string]int
	// Defs maps each assigned SSA variable to its defining Set — the
	// ingredient of the counterexample analyzer's replacement sets.
	Defs map[SSAVar]*Set
	// Asserts lists the assertions in textual order, indexed by ID.
	Asserts []*Assert
}

// Rename applies ρ to an AI program.
func Rename(p *ai.Program) *Program {
	r := &renamer{
		prog: &Program{
			AI:     p,
			Counts: make(map[string]int),
			Defs:   make(map[SSAVar]*Set),
		},
	}
	r.prog.Cmds = r.cmds(p.Cmds)
	return r.prog
}

type renamer struct {
	prog *Program
}

func (r *renamer) cur(name string) SSAVar {
	return SSAVar{Name: name, Idx: r.prog.Counts[name]}
}

func (r *renamer) expr(e ai.Expr) Expr {
	switch e := e.(type) {
	case nil:
		return Const{Type: r.prog.AI.Lat.Bottom(), Lat: r.prog.AI.Lat}
	case ai.Const:
		return Const{Type: e.Type, Label: e.Label, Lat: e.Lat}
	case ai.Var:
		return Ref{V: r.cur(e.Name)}
	case ai.Join:
		parts := make([]Expr, len(e.Parts))
		for i, p := range e.Parts {
			parts[i] = r.expr(p)
		}
		return Join{Parts: parts}
	default:
		return Const{Type: r.prog.AI.Lat.Top(), Lat: r.prog.AI.Lat}
	}
}

func (r *renamer) cmds(cmds []ai.Cmd) []Cmd {
	out := make([]Cmd, 0, len(cmds))
	for _, c := range cmds {
		switch c := c.(type) {
		case *ai.Set:
			rhs := r.expr(c.RHS) // reads use the index before this write
			r.prog.Counts[c.Var]++
			set := &Set{V: r.cur(c.Var), RHS: rhs, Origin: c}
			r.prog.Defs[set.V] = set
			out = append(out, set)
		case *ai.Assert:
			a := &Assert{
				ID:     len(r.prog.Asserts),
				Bound:  c.Bound,
				Origin: c,
			}
			for _, arg := range c.Args {
				a.Args = append(a.Args, Arg{Expr: r.expr(arg.Expr), ArgPos: arg.ArgPos})
			}
			r.prog.Asserts = append(r.prog.Asserts, a)
			out = append(out, a)
		case *ai.If:
			out = append(out, &If{
				ID:     c.ID,
				Then:   r.cmds(c.Then),
				Else:   r.cmds(c.Else),
				Origin: c,
			})
		case *ai.Stop:
			out = append(out, &Stop{Origin: c})
		}
	}
	return out
}

// ExprRefs returns the SSA variables read by an expression.
func ExprRefs(e Expr) []SSAVar {
	var out []SSAVar
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case Ref:
			out = append(out, e.V)
		case Join:
			for _, p := range e.Parts {
				walk(p)
			}
		}
	}
	walk(e)
	return out
}

// String renders the renamed program (Figure 6, fourth column).
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ρ(AI(%s))\n", p.AI.File)
	p.print(&b, p.Cmds, 0)
	return b.String()
}

func (p *Program) print(b *strings.Builder, cmds []Cmd, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, c := range cmds {
		switch c := c.(type) {
		case *Set:
			fmt.Fprintf(b, "%st(%s) = %s;\n", ind, c.V, c.RHS)
		case *Assert:
			args := make([]string, len(c.Args))
			for i, a := range c.Args {
				args[i] = a.Expr.String()
			}
			fmt.Fprintf(b, "%sassert_%d(%s < %s);\n", ind, c.ID,
				strings.Join(args, ", "), p.AI.Lat.Name(c.Bound))
		case *If:
			fmt.Fprintf(b, "%sif b%d then\n", ind, c.ID)
			p.print(b, c.Then, depth+1)
			if len(c.Else) > 0 {
				fmt.Fprintf(b, "%selse\n", ind)
				p.print(b, c.Else, depth+1)
			}
			fmt.Fprintf(b, "%sendif\n", ind)
		case *Stop:
			fmt.Fprintf(b, "%sstop;\n", ind)
		}
	}
}
