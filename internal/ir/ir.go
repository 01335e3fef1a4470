// Package ir defines the typed flow intermediate representation that sits
// between the PHP front end and the verifier's abstract-interpretation
// pipeline. A parsed file lowers (Lower) to a Unit: a <main> instruction
// block plus one Func per declared function, method, and anonymous
// function, all hoisted out of the statement stream.
//
// The IR preserves exactly the information the filter F(p) consumes —
// assignments, concatenations, calls, sinks, sanitizing casts, branches,
// loop structures, includes, and returns — as explicit instructions over
// expression trees, each carrying its source Site (span). Everything
// downstream (flow.BuildUnit,
// the typestate ablation, and the -dump-ir CLI mode) consumes this form
// instead of the AST.
//
// Units are immutable after Lower returns: builders may share them freely
// across goroutines.
package ir

import (
	"webssari/internal/php/token"
)

// Span is the source extent shared by all IR nodes, mirroring ast.Span.
type Span struct {
	Start   token.Pos
	StopOff int
}

// Pos returns the position of the first character of the node.
func (s Span) Pos() token.Pos { return s.Start }

// End returns the byte offset one past the last character of the node.
func (s Span) End() int { return s.StopOff }

// Node is implemented by all IR nodes.
type Node interface {
	Pos() token.Pos
	End() int
}

// Expr is implemented by all IR expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Instr is implemented by all IR instructions.
type Instr interface {
	Node
	instrNode()
}

// Block is a sequence of instructions. Structured instructions (Branch,
// Loop, Foreach, Switch) nest child blocks; the loop-back edges implied by
// Loop/Foreach are deconstructed into selections by the flow builder.
type Block []Instr

// ------------------------------------------------------------- expressions

// LitKind distinguishes scalar literal classes.
type LitKind int

// Literal kinds.
const (
	LitInt LitKind = iota + 1
	LitFloat
	LitBool
	LitNull
	LitConst // bare identifier used as a constant
)

func (k LitKind) String() string {
	switch k {
	case LitInt:
		return "int"
	case LitFloat:
		return "float"
	case LitBool:
		return "bool"
	case LitNull:
		return "null"
	case LitConst:
		return "const"
	}
	return "lit"
}

// Lit is a scalar literal or bare constant; Text keeps the source spelling
// (or constant name).
type Lit struct {
	Span
	Kind LitKind
	Text string
}

// Str is a string constant with no interpolation.
type Str struct {
	Span
	Value string
}

// Interp is an interpolated string; evaluation concatenates Parts.
type Interp struct {
	Span
	Parts []Expr
}

// ArrayItem is one element of an Array literal.
type ArrayItem struct {
	Key Expr // nil when no explicit key
	Val Expr
}

// Array is an array(...) literal.
type Array struct {
	Span
	Items []ArrayItem
}

// Var is a simple variable $name (Name excludes the dollar sign).
type Var struct {
	Span
	Name string
}

// VarVar is a variable variable $$x or ${expr}.
type VarVar struct {
	Span
	Inner Expr
}

// Index is an array access; Key is nil for the append form $a[].
type Index struct {
	Span
	Arr Expr
	Key Expr
}

// Prop is a property access obj->name.
type Prop struct {
	Span
	Obj  Expr
	Name string
}

// Cast is a type cast; To is the lower-cased target type.
type Cast struct {
	Span
	To string
	X  Expr
}

// Sanitizing reports whether the cast's result type cannot carry string
// payloads — the explicit "sanitize" instruction of the IR.
func (c *Cast) Sanitizing() bool {
	switch c.To {
	case "int", "integer", "float", "double", "real", "bool", "boolean":
		return true
	default:
		return false
	}
}

// Unary is a prefix or postfix unary operation.
type Unary struct {
	Span
	Op      string
	X       Expr
	Postfix bool
}

// Concat is string concatenation (the "." binary) — the explicit concat
// operation of the IR; static include-path evaluation folds over it.
type Concat struct {
	Span
	L Expr
	R Expr
}

// Bin is any non-concat binary operation.
type Bin struct {
	Span
	Op string
	L  Expr
	R  Expr
}

// Assign is an assignment expression; Op distinguishes "=" ".=" "+=" etc.
type Assign struct {
	Span
	Op    string
	LHS   Expr
	RHS   Expr
	ByRef bool
}

// Ternary is cond ? then : else; Then is nil for the short form.
type Ternary struct {
	Span
	Cond Expr
	Then Expr
	Else Expr
}

// Call is a function call. Name is the lower-cased static callee name, or
// "" for dynamic calls, in which case Func holds the callee expression.
type Call struct {
	Span
	Name string
	Func Expr // nil when Name != ""
	Args []Expr
}

// MethodCall is obj->name(args).
type MethodCall struct {
	Span
	Obj  Expr
	Name string
	Args []Expr
}

// StaticCall is Class::name(args).
type StaticCall struct {
	Span
	Class string
	Name  string
	Args  []Expr
}

// New is object construction.
type New struct {
	Span
	Class string
	Args  []Expr
}

// Include is include/require/include_once/require_once — the explicit
// include instruction of the IR (in PHP it is an expression). Kind is the
// keyword spelling.
type Include struct {
	Span
	Kind string
	Path Expr
}

// Isset is isset(args).
type Isset struct {
	Span
	Args []Expr
}

// Empty is empty(arg).
type Empty struct {
	Span
	Arg Expr
}

// List is list($a, $b) as an assignment target; nil entries stand for
// skipped positions.
type List struct {
	Span
	Targets []Expr
}

// Exit is exit(arg)/die(arg); Arg may be nil. In statement position the
// flow builder additionally emits a stop.
type Exit struct {
	Span
	Arg Expr
}

// Closure is an anonymous function expression. Fn points at the hoisted
// function (Fn.Closure is true); the capture clause lives on Fn.Uses.
type Closure struct {
	Span
	Fn *Func
}

// Opaque stands for a source expression the lowering does not model;
// LegacyType names the originating AST node type so downstream warnings
// match the pre-IR engine byte for byte.
type Opaque struct {
	Span
	LegacyType string
}

// ------------------------------------------------------------ instructions

// Eval evaluates an expression for its effects (assignments, calls, …).
type Eval struct {
	Span
	X Expr
}

// Echo is the echo/print-statement sink instruction.
type Echo struct {
	Span
	Args []Expr
}

// Nop is a statement with no information flow of its own (inline HTML,
// empty statement, break/continue, or a hoisted declaration's statement
// position). It exists so statement-site bookkeeping matches the source
// statement stream exactly.
type Nop struct {
	Span
	Kind string // "html", "nop", "break", "continue", "fndecl", "classdecl", "block", "stmt"
	// Text carries the literal output of an inline-HTML chunk (Kind
	// "html"): context-sensitive policies drive the HTML output-context
	// state machine over it. Empty for every other Kind.
	Text string
}

// Branch is a nondeterministic two-way branch lowered from if/elseif/else.
// An elseif clause lowers to a nested Branch (Elseif true) as the sole
// instruction of the outer Else block; such a branch keeps the outer
// statement's span and does not open a new statement site.
type Branch struct {
	Span
	Cond   Expr
	Then   Block
	Else   Block
	Elseif bool
}

// LoopKind distinguishes loop statement forms.
type LoopKind int

// Loop kinds.
const (
	LoopWhile LoopKind = iota + 1
	LoopDoWhile
	LoopFor
)

func (k LoopKind) String() string {
	switch k {
	case LoopWhile:
		return "while"
	case LoopDoWhile:
		return "dowhile"
	case LoopFor:
		return "for"
	}
	return "loop"
}

// Loop is a loop with an implicit back edge; the flow builder deconstructs
// it into nested selections (unrolling). While/DoWhile use Cond[0]; For
// carries the full header.
type Loop struct {
	Span
	Kind LoopKind
	Init []Expr
	Cond []Expr
	Post []Expr
	Body Block
}

// Foreach iterates an array; Key may be nil. ByRef marks "as &$v", which
// flows element writes back into the subject.
type Foreach struct {
	Span
	Subject Expr
	Key     Expr
	Val     Expr
	ByRef   bool
	Body    Block
}

// SwitchCase is one case (Match nil for default) of a Switch.
type SwitchCase struct {
	Match Expr
	Body  Block
}

// Switch is a switch statement.
type Switch struct {
	Span
	Subject Expr
	Cases   []SwitchCase
}

// Return is return [expr].
type Return struct {
	Span
	X Expr // nil for bare return
}

// Global is global $a, $b.
type Global struct {
	Span
	Names []string
}

// StaticVar is one declaration of a StaticDecl.
type StaticVar struct {
	Name string
	Init Expr // nil when uninitialized
}

// StaticDecl is static $a = 0, $b.
type StaticDecl struct {
	Span
	Vars []StaticVar
}

// Unset is unset($a, $b).
type Unset struct {
	Span
	Args []Expr
}

// ------------------------------------------------------------------- units

// Param is a function parameter.
type Param struct {
	Name    string
	ByRef   bool
	Default Expr // nil when required
}

// ClosureUse is one captured variable of a closure.
type ClosureUse struct {
	Name  string
	ByRef bool
}

// Func is one lowered function body: a plain function, a class method
// (Method set; Class holds the class name), or an anonymous function
// (Closure set). Method is a separate flag rather than `Class != ""`
// because error recovery can yield a class whose name is empty — its
// methods must still resolve as methods, never as plain functions.
// Nested marks declarations inside another function body, which PHP
// registers only at runtime and the pre-IR engine therefore never
// resolved — the flow builder skips them during call resolution,
// preserving that behaviour.
type Func struct {
	Span
	Name    string
	Class   string
	Method  bool
	Nested  bool
	Closure bool
	Params  []Param
	Uses    []ClosureUse
	Body    Block
}

// Unit is one lowered source file.
type Unit struct {
	// File is the source file name.
	File string
	// Main holds the top-level statement stream.
	Main Block
	// Funcs lists every hoisted function in declaration-collection order
	// (the same pre-order the pre-IR engine's declaration pass used).
	Funcs []*Func
}

// marker methods

func (*Lit) exprNode()        {}
func (*Str) exprNode()        {}
func (*Interp) exprNode()     {}
func (*Array) exprNode()      {}
func (*Var) exprNode()        {}
func (*VarVar) exprNode()     {}
func (*Index) exprNode()      {}
func (*Prop) exprNode()       {}
func (*Cast) exprNode()       {}
func (*Unary) exprNode()      {}
func (*Concat) exprNode()     {}
func (*Bin) exprNode()        {}
func (*Assign) exprNode()     {}
func (*Ternary) exprNode()    {}
func (*Call) exprNode()       {}
func (*MethodCall) exprNode() {}
func (*StaticCall) exprNode() {}
func (*New) exprNode()        {}
func (*Include) exprNode()    {}
func (*Isset) exprNode()      {}
func (*Empty) exprNode()      {}
func (*List) exprNode()       {}
func (*Exit) exprNode()       {}
func (*Closure) exprNode()    {}
func (*Opaque) exprNode()     {}

func (*Eval) instrNode()       {}
func (*Echo) instrNode()       {}
func (*Nop) instrNode()        {}
func (*Branch) instrNode()     {}
func (*Loop) instrNode()       {}
func (*Foreach) instrNode()    {}
func (*Switch) instrNode()     {}
func (*Return) instrNode()     {}
func (*Global) instrNode()     {}
func (*StaticDecl) instrNode() {}
func (*Unset) instrNode()      {}
