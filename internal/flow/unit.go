package flow

import (
	"fmt"
	"sort"
	"strings"

	"webssari/internal/ai"
	"webssari/internal/ir"
	"webssari/internal/lattice"
	"webssari/internal/php/ast"
	"webssari/internal/php/token"
	"webssari/internal/policy"
	"webssari/internal/prelude"
)

// BuildUnit filters one lowered IR unit (plus its static includes, which
// are parsed and lowered on resolution) into an AI program. It is the
// production F(p) path; BuildAST remains as the pre-IR reference whose
// output this path reproduces byte for byte on the legacy subset, while
// additionally supporting closures and foreach-by-reference.
func BuildUnit(unit *ir.Unit, opts Options) (*ai.Program, error) {
	opts, err := normalizeOptions(opts)
	if err != nil {
		return nil, err
	}

	b := &ubuilder{
		opts:        opts,
		pre:         opts.Prelude,
		lat:         opts.Prelude.Lattice(),
		policy:      opts.Policy,
		funcs:       make(map[string]*ir.Func),
		classFuncs:  make(map[string]*ir.Func),
		methodCount: make(map[string]int),
		inlineDepth: make(map[string]int),
		included:    make(map[string]bool),
		closureBind: make(map[string]*ir.Func),
		scope:       &scope{globals: make(map[string]bool)},
	}
	if opts.Policy != nil && opts.Policy.HasContexts() {
		b.htmlctx = policy.NewHTMLContext()
	}
	b.registerDecls(unit)
	b.collectVarUsage(unit)

	cmds := b.buildBlock(unit.Main)

	initial := make(map[string]lattice.Elem)
	for _, name := range b.pre.Vars() {
		initial[name] = b.pre.VarType(name)
	}
	prog := &ai.Program{
		File:         unit.File,
		Cmds:         cmds,
		Branches:     b.branchID,
		Lat:          b.lat,
		InitialTypes: initial,
		Warnings:     b.warnings,
		Truncated:    b.truncated,

		UnresolvedIncludes: b.unresolvedIncludes,
		Includes:           b.includes,
	}
	if opts.Policy != nil {
		prog.Policy = opts.Policy.Name()
	}
	return prog, nil
}

// ubuilder is the IR-consuming twin of builder: a mechanical port of the
// AST walker onto ir nodes, preserving its emission order, statement-site
// bookkeeping, branch-ID allocation, and warning text exactly.
type ubuilder struct {
	opts Options
	pre  *prelude.Prelude
	lat  *lattice.Lattice

	// policy is the active security policy (nil for bare-prelude runs);
	// htmlctx is its HTML output-context machine, non-nil only when the
	// policy declares contexts. The machine advances over inline-HTML
	// chunks and the literal parts of contextual sink arguments, in
	// source order.
	policy  *policy.Compiled
	htmlctx *policy.HTMLContext

	funcs       map[string]*ir.Func // lower name → func
	classFuncs  map[string]*ir.Func // "class::method" (lower)
	methodCount map[string]int      // lower method name → #classes defining it

	cmds        []ai.Cmd
	cmdCount    int
	branchID    int
	instID      int
	inlineDepth map[string]int

	scope        *scope
	curStmtPos   token.Pos
	curStmtEnd   int
	warnings     []string
	includeStack []string
	included     map[string]bool
	truncated    bool

	unresolvedIncludes []string
	includes           ai.Includes
	preVars            map[string]bool

	extractTargets []string

	// closureBind tracks variables directly bound to an anonymous function
	// by straight-line assignment ($f = function (...) {...}), so later
	// $f(...) calls unfold the closure body. Any other write to the
	// variable drops the binding (conservative).
	closureBind map[string]*ir.Func
}

func (b *ubuilder) warnf(pos token.Pos, format string, args ...any) {
	b.warnings = append(b.warnings, fmt.Sprintf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (b *ubuilder) emit(c ai.Cmd) {
	if set, ok := c.(*ai.Set); ok {
		// Any write to a variable drops the closure binding it may have
		// held; trAssign re-binds immediately after on a direct closure
		// assignment.
		delete(b.closureBind, set.Var)
	}
	if b.cmdCount >= b.opts.MaxCmds {
		if !b.truncated {
			b.truncated = true
			b.warnings = append(b.warnings,
				fmt.Sprintf("AI truncated at %d commands (MaxCmds)", b.opts.MaxCmds))
		}
		return
	}
	b.cmdCount++
	b.cmds = append(b.cmds, c)
}

// collect runs fn with a fresh command buffer and returns what it emitted.
func (b *ubuilder) collect(fn func()) []ai.Cmd {
	saved := b.cmds
	b.cmds = nil
	fn()
	out := b.cmds
	b.cmds = saved
	return out
}

func (b *ubuilder) site(n ir.Node) ai.Site {
	return ai.Site{
		Pos:     n.Pos(),
		End:     n.End(),
		StmtPos: b.curStmtPos,
		StmtEnd: b.curStmtEnd,
	}
}

func (b *ubuilder) resolveVar(name string) string {
	if b.scope.prefix == "" || superglobals[name] || b.scope.globals[name] {
		return name
	}
	if b.preHasVar(name) {
		return name
	}
	return b.scope.prefix + name
}

func (b *ubuilder) preHasVar(name string) bool {
	if b.preVars == nil {
		b.preVars = make(map[string]bool)
		for _, v := range b.pre.Vars() {
			b.preVars[v] = true
		}
	}
	return b.preVars[name]
}

// ------------------------------------------------------------ declarations

// registerDecls registers the unit's hoisted functions for call
// resolution. Unit.Funcs is in the declaration pre-pass's walk order, so
// first-wins duplicate handling matches the AST path; nested declarations
// and closures stay invisible, as they were to the pre-IR engine.
func (b *ubuilder) registerDecls(u *ir.Unit) {
	for _, f := range u.Funcs {
		if f.Nested || f.Closure {
			continue
		}
		key := ast.LowerName(f.Name)
		if f.Method {
			b.classFuncs[ast.LowerName(f.Class)+"::"+key] = f
			b.methodCount[key]++
		} else if _, dup := b.funcs[key]; !dup {
			b.funcs[key] = f
		}
	}
}

// lookupMethod resolves a method body: exactly by class when known, or by
// unique method name across all classes.
func (b *ubuilder) lookupMethod(class, name string) (*ir.Func, bool) {
	key := ast.LowerName(name)
	if class != "" {
		fd, ok := b.classFuncs[ast.LowerName(class)+"::"+key]
		return fd, ok
	}
	if b.methodCount[key] != 1 {
		return nil, false
	}
	for k, fd := range b.classFuncs {
		if strings.HasSuffix(k, "::"+key) {
			return fd, true
		}
	}
	return nil, false
}

// collectVarUsage computes the extract() candidate set over the unit:
// names read somewhere but never assigned anywhere.
func (b *ubuilder) collectVarUsage(u *ir.Unit) {
	read := make(map[string]bool)
	written := make(map[string]bool)
	var walkExpr func(e ir.Expr, isWrite bool)
	walkExpr = func(e ir.Expr, isWrite bool) {
		switch e := e.(type) {
		case nil:
		case *ir.Var:
			if isWrite {
				written[e.Name] = true
			} else {
				read[e.Name] = true
			}
		case *ir.VarVar:
			walkExpr(e.Inner, false)
		case *ir.Index:
			walkExpr(e.Arr, isWrite)
			walkExpr(e.Key, false)
		case *ir.Prop:
			walkExpr(e.Obj, isWrite)
		case *ir.Interp:
			for _, p := range e.Parts {
				walkExpr(p, false)
			}
		case *ir.Array:
			for _, it := range e.Items {
				walkExpr(it.Key, false)
				walkExpr(it.Val, false)
			}
		case *ir.Cast:
			walkExpr(e.X, false)
		case *ir.Unary:
			walkExpr(e.X, false)
		case *ir.Concat:
			walkExpr(e.L, false)
			walkExpr(e.R, false)
		case *ir.Bin:
			walkExpr(e.L, false)
			walkExpr(e.R, false)
		case *ir.Assign:
			walkExpr(e.LHS, true)
			walkExpr(e.RHS, false)
		case *ir.Ternary:
			walkExpr(e.Cond, false)
			walkExpr(e.Then, false)
			walkExpr(e.Else, false)
		case *ir.Call:
			walkExpr(e.Func, false)
			for _, a := range e.Args {
				walkExpr(a, false)
			}
		case *ir.MethodCall:
			walkExpr(e.Obj, false)
			for _, a := range e.Args {
				walkExpr(a, false)
			}
		case *ir.StaticCall:
			for _, a := range e.Args {
				walkExpr(a, false)
			}
		case *ir.New:
			for _, a := range e.Args {
				walkExpr(a, false)
			}
		case *ir.Include:
			walkExpr(e.Path, false)
		case *ir.Isset:
			for _, a := range e.Args {
				walkExpr(a, false)
			}
		case *ir.Empty:
			walkExpr(e.Arg, false)
		case *ir.List:
			for _, tgt := range e.Targets {
				walkExpr(tgt, true)
			}
		case *ir.Exit:
			walkExpr(e.Arg, false)
			// Closures are hoisted Funcs; their bodies are walked below.
		}
	}
	var walkBlock func(bl ir.Block)
	walkInstr := func(in ir.Instr) {
		switch in := in.(type) {
		case *ir.Eval:
			walkExpr(in.X, false)
		case *ir.Echo:
			for _, a := range in.Args {
				walkExpr(a, false)
			}
		case *ir.Branch:
			walkExpr(in.Cond, false)
			walkBlock(in.Then)
			walkBlock(in.Else)
		case *ir.Loop:
			for _, e := range in.Init {
				walkExpr(e, false)
			}
			for _, e := range in.Cond {
				walkExpr(e, false)
			}
			for _, e := range in.Post {
				walkExpr(e, false)
			}
			walkBlock(in.Body)
		case *ir.Foreach:
			walkExpr(in.Subject, false)
			if in.Key != nil {
				walkExpr(in.Key, true)
			}
			walkExpr(in.Val, true)
			walkBlock(in.Body)
		case *ir.Switch:
			walkExpr(in.Subject, false)
			for _, c := range in.Cases {
				walkExpr(c.Match, false)
				walkBlock(c.Body)
			}
		case *ir.Return:
			walkExpr(in.X, false)
		case *ir.StaticDecl:
			for _, v := range in.Vars {
				written[v.Name] = true
				walkExpr(v.Init, false)
			}
		case *ir.Unset:
			for _, a := range in.Args {
				walkExpr(a, false)
			}
		}
	}
	walkBlock = func(bl ir.Block) {
		for _, in := range bl {
			walkInstr(in)
		}
	}
	walkBlock(u.Main)
	// Every hoisted function — plain, method, nested, or closure — has its
	// parameters written and body walked, matching the AST walker's visit
	// of declarations wherever they appear in the statement tree.
	for _, f := range u.Funcs {
		for _, p := range f.Params {
			written[p.Name] = true
		}
		for _, use := range f.Uses {
			read[use.Name] = true
			if use.ByRef {
				written[use.Name] = true
			}
		}
		walkBlock(f.Body)
	}

	var batch []string
	for name := range read {
		if !written[name] && !superglobals[name] && !b.preHasVar(name) {
			batch = append(batch, name)
		}
	}
	sort.Strings(batch)
	b.extractTargets = append(b.extractTargets, batch...)
}

// legacyTypeName maps an IR expression to the AST type name the pre-IR
// engine printed in %T-style warnings, keeping warning text byte-identical
// across the two paths.
func legacyTypeName(e ir.Expr) string {
	switch e := e.(type) {
	case nil:
		return "<nil>"
	case *ir.Lit:
		switch e.Kind {
		case ir.LitInt:
			return "*ast.IntLit"
		case ir.LitFloat:
			return "*ast.FloatLit"
		case ir.LitBool:
			return "*ast.BoolLit"
		case ir.LitNull:
			return "*ast.NullLit"
		default:
			return "*ast.ConstFetch"
		}
	case *ir.Str:
		return "*ast.StringLit"
	case *ir.Interp:
		return "*ast.Interp"
	case *ir.Array:
		return "*ast.ArrayLit"
	case *ir.Var:
		return "*ast.Var"
	case *ir.VarVar:
		return "*ast.VarVar"
	case *ir.Index:
		return "*ast.Index"
	case *ir.Prop:
		return "*ast.Prop"
	case *ir.Cast:
		return "*ast.Cast"
	case *ir.Unary:
		return "*ast.Unary"
	case *ir.Concat, *ir.Bin:
		return "*ast.Binary"
	case *ir.Assign:
		return "*ast.Assign"
	case *ir.Ternary:
		return "*ast.Ternary"
	case *ir.Call:
		return "*ast.Call"
	case *ir.MethodCall:
		return "*ast.MethodCall"
	case *ir.StaticCall:
		return "*ast.StaticCall"
	case *ir.New:
		return "*ast.New"
	case *ir.Include:
		return "*ast.IncludeExpr"
	case *ir.Isset:
		return "*ast.IssetExpr"
	case *ir.Empty:
		return "*ast.EmptyExpr"
	case *ir.List:
		return "*ast.ListExpr"
	case *ir.Exit:
		return "*ast.ExitExpr"
	case *ir.Closure:
		return "*ast.Closure"
	case *ir.Opaque:
		return e.LegacyType
	default:
		return fmt.Sprintf("%T", e)
	}
}
