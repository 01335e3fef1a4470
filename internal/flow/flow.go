// Package flow implements the paper's filter F(p) and abstract
// interpretation procedure AI(F(p)) (§3.2, Figure 4): it reduces a parsed
// PHP program to the loop-free command language of package ai, preserving
// exactly the information-flow structure.
//
// The reduction follows the paper:
//
//   - only assignments, function calls, and conditional structures are
//     preserved; all other constructs are discarded;
//   - function calls are unfolded (inlined) up to a recursion cutoff;
//   - loop structures are deconstructed into selection structures (a
//     configurable unroll factor generalizes the paper's single pass);
//   - branch conditions become nondeterministic booleans;
//   - untrusted input channels, sensitive output channels, and sanitizers
//     are resolved against the prelude: UIC results become type constants,
//     SOC calls become assertions, sanitizer results become ⊥-level (or
//     prelude-specified) constants.
//
// Static file inclusions are resolved and spliced in, as WebSSARI's code
// walker did, so one entry file verifies together with everything it
// includes.
package flow

import (
	"fmt"
	"sort"
	"strings"

	"webssari/internal/ai"
	"webssari/internal/ir"
	"webssari/internal/lattice"
	"webssari/internal/php/ast"
	"webssari/internal/php/parser"
	"webssari/internal/php/token"
	"webssari/internal/policy"
	"webssari/internal/prelude"
)

// Options configures the filter.
type Options struct {
	// Prelude supplies the trust environment. Required unless Policy is
	// set, in which case it defaults to the policy's compiled prelude.
	Prelude *prelude.Prelude
	// Policy is the active security policy. Optional: when set, it adds
	// sink classes, per-context sink bounds (via the HTML output-context
	// machine), and constant-argument sanitizer variants on top of the
	// prelude lookups. The IR path (Build/BuildUnit) honors it; the
	// legacy BuildAST reference path ignores everything but its prelude.
	Policy *policy.Compiled
	// Loader reads included files by path; nil disables include resolution
	// (includes then produce a warning).
	Loader func(path string) ([]byte, error)
	// Dir is the directory against which relative include paths resolve
	// when they are not found relative to the including file.
	Dir string
	// MaxInlineDepth bounds recursive call unfolding per function name.
	// Zero means DefaultMaxInlineDepth.
	MaxInlineDepth int
	// LoopUnroll is the number of selection copies a loop deconstructs
	// into. Zero means 1, the paper's single pass; higher values trade AI
	// size for loop-carried-flow precision (an ablation in bench_test.go).
	LoopUnroll int
	// MaxCmds caps the AI size to keep pathological unfoldings bounded;
	// hitting the cap marks the Program Truncated so downstream stages
	// degrade to an Unknown verdict instead of claiming Safe over a
	// partial model. Zero means DefaultMaxCmds.
	MaxCmds int
}

// Defaults for Options fields left zero.
const (
	DefaultMaxInlineDepth = 2
	DefaultMaxCmds        = 500000
)

// superglobals are variables that refer to the global scope from any
// function body without a 'global' declaration.
var superglobals = map[string]bool{
	"_GET": true, "_POST": true, "_COOKIE": true, "_REQUEST": true,
	"_SERVER": true, "_SESSION": true, "_FILES": true, "_ENV": true,
	"GLOBALS": true,
}

// normalizeOptions validates Options and fills zero fields with defaults.
func normalizeOptions(opts Options) (Options, error) {
	if opts.Prelude == nil && opts.Policy != nil {
		opts.Prelude = opts.Policy.Prelude()
	}
	if opts.Prelude == nil {
		return opts, fmt.Errorf("flow: Options.Prelude is required")
	}
	if opts.MaxInlineDepth == 0 {
		opts.MaxInlineDepth = DefaultMaxInlineDepth
	}
	if opts.LoopUnroll <= 0 {
		opts.LoopUnroll = 1
	}
	if opts.MaxCmds == 0 {
		opts.MaxCmds = DefaultMaxCmds
	}
	return opts, nil
}

// Build filters one parsed file (plus its static includes) into an AI
// program. Since the IR refactor it is a thin composition of ir.Lower and
// BuildUnit: parse → lower → F(p)/AI.
func Build(file *ast.File, opts Options) (*ai.Program, error) {
	unit, err := ir.Lower(file)
	if err != nil {
		return nil, err
	}
	return BuildUnit(unit, opts)
}

// BuildAST is the pre-IR reference path: it filters the AST directly,
// without lowering. It is kept behind this seam solely so differential
// tests (TestDifferentialASTvsIR) can assert that the IR path produces
// byte-identical programs; new
// subset features (closures, foreach-by-reference) are deliberately NOT
// supported here.
func BuildAST(file *ast.File, opts Options) (*ai.Program, error) {
	opts, err := normalizeOptions(opts)
	if err != nil {
		return nil, err
	}

	b := &builder{
		opts:        opts,
		pre:         opts.Prelude,
		lat:         opts.Prelude.Lattice(),
		funcs:       make(map[string]*ast.FunctionDecl),
		classFuncs:  make(map[string]*ast.FunctionDecl),
		methodCount: make(map[string]int),
		inlineDepth: make(map[string]int),
		included:    make(map[string]bool),
		scope:       &scope{globals: make(map[string]bool)},
	}
	b.collectDecls(file.Stmts, "")
	b.collectVarUsage(file.Stmts)

	cmds := b.buildStmts(file.Stmts)

	initial := make(map[string]lattice.Elem)
	for _, name := range b.pre.Vars() {
		initial[name] = b.pre.VarType(name)
	}
	prog := &ai.Program{
		File:         file.Name,
		Cmds:         cmds,
		Branches:     b.branchID,
		Lat:          b.lat,
		InitialTypes: initial,
		Warnings:     b.warnings,
		Truncated:    b.truncated,

		UnresolvedIncludes: b.unresolvedIncludes,
		Includes:           b.includes,
	}
	return prog, nil
}

// BuildSource parses and filters PHP source text in one step.
func BuildSource(name string, src []byte, opts Options) (*ai.Program, []error) {
	res := parser.Parse(name, src)
	prog, err := Build(res.File, opts)
	errs := res.Errs
	if err != nil {
		errs = append(errs, err)
	}
	return prog, errs
}

// scope tracks variable-name resolution inside an unfolded function body.
type scope struct {
	// prefix is prepended to local variable names ("" at global scope).
	prefix string
	// globals lists names pulled in with a 'global' declaration.
	globals map[string]bool
	// retVar receives the function's return value ("" at global scope).
	retVar string
}

type builder struct {
	opts Options
	pre  *prelude.Prelude
	lat  *lattice.Lattice

	funcs       map[string]*ast.FunctionDecl // lower name → decl
	classFuncs  map[string]*ast.FunctionDecl // "class::method" (lower)
	methodCount map[string]int               // lower method name → #classes defining it

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

	// unresolvedIncludes records static include paths the loader could
	// not read (surfaced on ai.Program.UnresolvedIncludes).
	unresolvedIncludes []string
	// includes snapshots include resolution (ai.Program.Includes).
	includes ai.Includes
	preVars  map[string]bool

	// extractTargets are variable names that are read somewhere in the
	// program but never assigned: the candidates an extract() call may
	// define (see handleExtract).
	extractTargets []string
}

func (b *builder) warnf(pos token.Pos, format string, args ...any) {
	b.warnings = append(b.warnings, fmt.Sprintf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (b *builder) emit(c ai.Cmd) {
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
func (b *builder) collect(fn func()) []ai.Cmd {
	saved := b.cmds
	b.cmds = nil
	fn()
	out := b.cmds
	b.cmds = saved
	return out
}

func (b *builder) site(n ast.Node) ai.Site {
	return ai.Site{
		Pos:     n.Pos(),
		End:     n.End(),
		StmtPos: b.curStmtPos,
		StmtEnd: b.curStmtEnd,
	}
}

// resolveVar maps a source-level variable name to its AI name under the
// current scope.
func (b *builder) resolveVar(name string) string {
	if b.scope.prefix == "" || superglobals[name] || b.scope.globals[name] {
		return name
	}
	// Variables with explicit prelude types (legacy globals such as
	// $HTTP_REFERER) are treated as global everywhere, matching PHP4's
	// register-globals-era behaviour the corpus relies on.
	if b.preHasVar(name) {
		return name
	}
	return b.scope.prefix + name
}

func (b *builder) preHasVar(name string) bool {
	if b.preVars == nil {
		b.preVars = make(map[string]bool)
		for _, v := range b.pre.Vars() {
			b.preVars[v] = true
		}
	}
	return b.preVars[name]
}

// ------------------------------------------------------------ declarations

// collectDecls gathers function and class declarations, recursing into
// nested statement bodies (PHP permits conditional declarations).
func (b *builder) collectDecls(stmts []ast.Stmt, class string) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.FunctionDecl:
			key := ast.LowerName(s.Name)
			if class != "" {
				b.classFuncs[ast.LowerName(class)+"::"+key] = s
				b.methodCount[key]++
			} else if _, dup := b.funcs[key]; !dup {
				b.funcs[key] = s
			}
		case *ast.ClassDecl:
			for _, m := range s.Methods {
				key := ast.LowerName(m.Name)
				b.classFuncs[ast.LowerName(s.Name)+"::"+key] = m
				b.methodCount[key]++
			}
		case *ast.IfStmt:
			b.collectDecls(s.Then, class)
			for _, ei := range s.Elseifs {
				b.collectDecls(ei.Body, class)
			}
			b.collectDecls(s.Else, class)
		case *ast.WhileStmt:
			b.collectDecls(s.Body, class)
		case *ast.DoWhileStmt:
			b.collectDecls(s.Body, class)
		case *ast.ForStmt:
			b.collectDecls(s.Body, class)
		case *ast.ForeachStmt:
			b.collectDecls(s.Body, class)
		case *ast.BlockStmt:
			b.collectDecls(s.Body, class)
		case *ast.SwitchStmt:
			for _, c := range s.Cases {
				b.collectDecls(c.Body, class)
			}
		}
	}
}

// lookupMethod resolves a method body: exactly by class when known, or by
// unique method name across all classes.
func (b *builder) lookupMethod(class, name string) (*ast.FunctionDecl, bool) {
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

// collectVarUsage computes the extract() candidate set: names read
// somewhere but never assigned anywhere in the unit.
func (b *builder) collectVarUsage(stmts []ast.Stmt) {
	read := make(map[string]bool)
	written := make(map[string]bool)
	var walkExpr func(e ast.Expr, isWrite bool)
	walkExpr = func(e ast.Expr, isWrite bool) {
		switch e := e.(type) {
		case nil:
		case *ast.Var:
			if isWrite {
				written[e.Name] = true
			} else {
				read[e.Name] = true
			}
		case *ast.VarVar:
			walkExpr(e.Inner, false)
		case *ast.Index:
			walkExpr(e.Arr, isWrite)
			walkExpr(e.Key, false)
		case *ast.Prop:
			walkExpr(e.Obj, isWrite)
		case *ast.Interp:
			for _, p := range e.Parts {
				walkExpr(p, false)
			}
		case *ast.ArrayLit:
			for _, it := range e.Items {
				walkExpr(it.Key, false)
				walkExpr(it.Val, false)
			}
		case *ast.Cast:
			walkExpr(e.X, false)
		case *ast.Unary:
			walkExpr(e.X, false)
		case *ast.Binary:
			walkExpr(e.L, false)
			walkExpr(e.R, false)
		case *ast.Assign:
			walkExpr(e.LHS, true)
			walkExpr(e.RHS, false)
		case *ast.Ternary:
			walkExpr(e.Cond, false)
			walkExpr(e.Then, false)
			walkExpr(e.Else, false)
		case *ast.Call:
			walkExpr(e.Func, false)
			for _, a := range e.Args {
				walkExpr(a, false)
			}
		case *ast.MethodCall:
			walkExpr(e.Obj, false)
			for _, a := range e.Args {
				walkExpr(a, false)
			}
		case *ast.StaticCall:
			for _, a := range e.Args {
				walkExpr(a, false)
			}
		case *ast.New:
			for _, a := range e.Args {
				walkExpr(a, false)
			}
		case *ast.IncludeExpr:
			walkExpr(e.Path, false)
		case *ast.IssetExpr:
			for _, a := range e.Args {
				walkExpr(a, false)
			}
		case *ast.EmptyExpr:
			walkExpr(e.Arg, false)
		case *ast.ListExpr:
			for _, tgt := range e.Targets {
				walkExpr(tgt, true)
			}
		case *ast.ExitExpr:
			walkExpr(e.Arg, false)
		}
	}
	var walkStmts func(list []ast.Stmt)
	walkStmt := func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.ExprStmt:
			walkExpr(s.X, false)
		case *ast.EchoStmt:
			for _, a := range s.Args {
				walkExpr(a, false)
			}
		case *ast.IfStmt:
			walkExpr(s.Cond, false)
			walkStmts(s.Then)
			for _, ei := range s.Elseifs {
				walkExpr(ei.Cond, false)
				walkStmts(ei.Body)
			}
			walkStmts(s.Else)
		case *ast.WhileStmt:
			walkExpr(s.Cond, false)
			walkStmts(s.Body)
		case *ast.DoWhileStmt:
			walkStmts(s.Body)
			walkExpr(s.Cond, false)
		case *ast.ForStmt:
			for _, e := range s.Init {
				walkExpr(e, false)
			}
			for _, e := range s.Cond {
				walkExpr(e, false)
			}
			for _, e := range s.Post {
				walkExpr(e, false)
			}
			walkStmts(s.Body)
		case *ast.ForeachStmt:
			walkExpr(s.Subject, false)
			walkExpr(s.KeyVar, true)
			walkExpr(s.ValVar, true)
			walkStmts(s.Body)
		case *ast.SwitchStmt:
			walkExpr(s.Subject, false)
			for _, c := range s.Cases {
				walkExpr(c.Match, false)
				walkStmts(c.Body)
			}
		case *ast.ReturnStmt:
			walkExpr(s.X, false)
		case *ast.StaticStmt:
			for _, v := range s.Vars {
				written[v.Name] = true
				walkExpr(v.Init, false)
			}
		case *ast.UnsetStmt:
			for _, a := range s.Args {
				walkExpr(a, false)
			}
		case *ast.FunctionDecl:
			for _, p := range s.Params {
				written[p.Name] = true
			}
			walkStmts(s.Body)
		case *ast.ClassDecl:
			for _, m := range s.Methods {
				for _, p := range m.Params {
					written[p.Name] = true
				}
				walkStmts(m.Body)
			}
		case *ast.BlockStmt:
			walkStmts(s.Body)
		}
	}
	walkStmts = func(list []ast.Stmt) {
		for _, s := range list {
			walkStmt(s)
		}
	}
	walkStmts(stmts)

	var batch []string
	for name := range read {
		if !written[name] && !superglobals[name] && !b.preHasVar(name) {
			batch = append(batch, name)
		}
	}
	// Sorted for determinism (map iteration order would otherwise leak into
	// the emitted extract() assignments); the IR path sorts identically.
	sort.Strings(batch)
	b.extractTargets = append(b.extractTargets, batch...)
}
