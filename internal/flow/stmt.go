package flow

import (
	"path"
	"strings"

	"webssari/internal/ai"
	"webssari/internal/php/ast"
	"webssari/internal/php/parser"
)

func (b *builder) buildStmts(stmts []ast.Stmt) []ai.Cmd {
	return b.collect(func() {
		for _, s := range stmts {
			b.buildStmt(s)
		}
	})
}

func (b *builder) buildStmt(s ast.Stmt) {
	if s == nil {
		return
	}
	// Only reset the statement site at the outermost statement nesting
	// level of the current build; nested expressions keep it.
	b.curStmtPos = s.Pos()
	b.curStmtEnd = s.End()

	switch s := s.(type) {
	case *ast.ExprStmt:
		if ex, ok := s.X.(*ast.ExitExpr); ok {
			b.trExitExpr(ex)
			b.emit(&ai.Stop{Site: b.site(s)})
			return
		}
		b.trExpr(s.X)

	case *ast.EchoStmt:
		b.emitSinkCall("echo", s.Args, s)

	case *ast.InlineHTMLStmt, *ast.NopStmt, *ast.BreakStmt, *ast.ContinueStmt:
		// No information flow: constant output, or control transfer that the
		// nondeterministic-branch model already over-approximates.

	case *ast.IfStmt:
		b.buildIfChain(s.Cond, s.Then, s.Elseifs, s.Else, s)

	case *ast.WhileStmt:
		// while e do c  ⇒  if e then c, repeated LoopUnroll times (§3.2:
		// "loop structures can be deconstructed into selection structures").
		// The condition is evaluated before each unfolding so that its side
		// effects (e.g. "while ($row = mysql_fetch_array(...))") are kept.
		b.trExpr(s.Cond)
		b.buildLoop(func() { b.trExpr(s.Cond) }, s.Body, nil, s)

	case *ast.DoWhileStmt:
		// The body executes at least once; remaining iterations become
		// selections.
		for _, st := range s.Body {
			b.buildStmt(st)
		}
		b.curStmtPos, b.curStmtEnd = s.Pos(), s.End()
		b.trExpr(s.Cond)
		if b.opts.LoopUnroll > 1 {
			saved := b.opts.LoopUnroll
			b.opts.LoopUnroll = saved - 1
			b.buildLoop(func() { b.trExpr(s.Cond) }, s.Body, nil, s)
			b.opts.LoopUnroll = saved
		}

	case *ast.ForStmt:
		for _, e := range s.Init {
			b.trExpr(e)
		}
		for _, e := range s.Cond {
			b.trExpr(e)
		}
		post := func() {
			for _, e := range s.Post {
				b.trExpr(e)
			}
			for _, e := range s.Cond {
				b.trExpr(e)
			}
		}
		b.buildLoop(nil, s.Body, post, s)

	case *ast.ForeachStmt:
		subj := b.trExpr(s.Subject)
		body := func() {
			// Key and value receive (an element of) the subject; element
			// types are dominated by the array's type in our array model.
			if s.KeyVar != nil {
				b.assignTo(s.KeyVar, subj, s.Subject, s)
			}
			b.assignTo(s.ValVar, subj, s.Subject, s)
			for _, st := range s.Body {
				b.buildStmt(st)
			}
		}
		b.emitSelection(body, nil, s)

	case *ast.SwitchStmt:
		b.trExpr(s.Subject)
		for _, c := range s.Cases {
			if c.Match != nil {
				b.trExpr(c.Match)
			}
		}
		b.buildSwitchCases(s.Cases, s)

	case *ast.ReturnStmt:
		if b.scope.retVar == "" {
			// Top-level return ends the page like stop.
			if s.X != nil {
				b.trExpr(s.X)
			}
			b.emit(&ai.Stop{Site: b.site(s)})
			return
		}
		rhs := ai.Expr(ai.Const{Type: b.lat.Bottom(), Lat: b.lat})
		if s.X != nil {
			rhs = b.trExpr(s.X)
		}
		// Join with previous returns: flow-insensitive over multiple return
		// statements, precise across branches (each arm assigns its own).
		set := &ai.Set{
			Var:       b.scope.retVar,
			RHS:       ai.NewJoin(ai.Var{Name: b.scope.retVar}, rhs),
			Site:      b.site(s),
			Synthetic: true,
		}
		if s.X != nil {
			// The returned expression is a real patch point.
			set.RHSPos = s.X.Pos()
			set.RHSEnd = s.X.End()
			set.Synthetic = false
		}
		b.emit(set)

	case *ast.GlobalStmt:
		for _, name := range s.Names {
			b.scope.globals[name] = true
		}

	case *ast.StaticStmt:
		for _, v := range s.Vars {
			set := &ai.Set{Var: b.resolveVar(v.Name), Site: b.site(s), SrcVar: v.Name, Synthetic: true}
			set.RHS = ai.Expr(ai.Const{Type: b.lat.Bottom(), Lat: b.lat})
			if v.Init != nil {
				set.RHS = b.trExpr(v.Init)
				set.RHSPos = v.Init.Pos()
				set.RHSEnd = v.Init.End()
				set.Synthetic = false
			}
			b.emit(set)
		}

	case *ast.UnsetStmt:
		for _, a := range s.Args {
			// Only unsetting a whole variable clears its type; unsetting
			// one array element leaves the rest of the array's taint.
			if v, ok := a.(*ast.Var); ok {
				b.emit(&ai.Set{
					Var:       b.resolveVar(v.Name),
					RHS:       ai.Const{Type: b.lat.Bottom(), Lat: b.lat, Label: "unset"},
					Site:      b.site(s),
					SrcVar:    v.Name,
					Synthetic: true,
				})
			}
		}

	case *ast.FunctionDecl, *ast.ClassDecl:
		// Collected in the declaration pre-pass; unfolded at call sites.

	case *ast.BlockStmt:
		for _, st := range s.Body {
			b.buildStmt(st)
		}
	}
}

// buildIfChain lowers if/elseif/else to nested nondeterministic branches.
// Branch conditions are evaluated for their side effects only; their truth
// value is nondeterministic in the AI.
func (b *builder) buildIfChain(cond ast.Expr, then []ast.Stmt, elseifs []ast.ElseifClause, els []ast.Stmt, site ast.Node) {
	b.trExpr(cond)
	id := b.branchID
	b.branchID++
	thenCmds := b.buildStmts(then)
	elseCmds := b.collect(func() {
		if len(elseifs) > 0 {
			b.buildIfChain(elseifs[0].Cond, elseifs[0].Body, elseifs[1:], els, site)
			return
		}
		for _, st := range els {
			b.buildStmt(st)
		}
	})
	b.emit(&ai.If{ID: id, Then: thenCmds, Else: elseCmds, Site: b.site(site)})
}

// emitSelection wraps body (and optional post) in one nondeterministic
// branch with an empty else arm: the "may not execute" selection that
// loops and foreach statements deconstruct into.
func (b *builder) emitSelection(body func(), post func(), site ast.Node) {
	id := b.branchID
	b.branchID++
	thenCmds := b.collect(func() {
		body()
		if post != nil {
			post()
		}
	})
	b.emit(&ai.If{ID: id, Then: thenCmds, Site: b.site(site)})
}

// buildLoop deconstructs a loop into LoopUnroll nested selections. cond
// evaluates the loop condition for side effects before each unfolding
// (may be nil); post runs after each body copy (for-loop post+cond).
func (b *builder) buildLoop(cond func(), body []ast.Stmt, post func(), site ast.Node) {
	var unfold func(k int)
	unfold = func(k int) {
		if k == 0 {
			return
		}
		b.emitSelection(func() {
			for _, st := range body {
				b.buildStmt(st)
			}
			if post != nil {
				post()
			}
			if k > 1 {
				if cond != nil {
					cond()
				}
				unfold(k - 1)
			}
		}, nil, site)
	}
	unfold(b.opts.LoopUnroll)
}

// buildSwitchCases lowers a switch into a chain of selections; fallthrough
// is over-approximated by treating each case body independently.
func (b *builder) buildSwitchCases(cases []ast.SwitchCase, site ast.Node) {
	if len(cases) == 0 {
		return
	}
	head := cases[0]
	id := b.branchID
	b.branchID++
	thenCmds := b.buildStmts(head.Body)
	elseCmds := b.collect(func() {
		b.buildSwitchCases(cases[1:], site)
	})
	b.emit(&ai.If{ID: id, Then: thenCmds, Else: elseCmds, Site: b.site(site)})
}

// emitSinkCall emits the assertion for a SOC call if the prelude registers
// one; args are always evaluated for side effects.
func (b *builder) emitSinkCall(name string, args []ast.Expr, site ast.Node) {
	sink, isSink := b.pre.SinkFor(name)
	var checked []ai.Arg
	for i, a := range args {
		ex := b.trExpr(a)
		if isSink && sink.Checks(i+1) {
			checked = append(checked, ai.Arg{
				Expr: ex, ArgPos: i + 1, Pos: a.Pos(), End: a.End(),
			})
		}
	}
	if isSink && len(checked) > 0 {
		b.emit(&ai.Assert{
			Fn:    sink.Name,
			Args:  checked,
			Bound: sink.Bound,
			Site:  b.site(site),
		})
	}
}

// ------------------------------------------------------------------ include

// handleInclude resolves a static include and splices the included file's
// AI in place; dynamic include paths become an assertion on the include
// sink (remote-file-inclusion check) plus a warning.
func (b *builder) handleInclude(e *ast.IncludeExpr) ai.Expr {
	bottom := ai.Const{Type: b.lat.Bottom(), Lat: b.lat}
	lit, isStatic := constPath(e.Path)
	if !isStatic || b.opts.Loader == nil {
		pathExpr := b.trExpr(e.Path)
		if !isStatic {
			b.warnf(e.Pos(), "dynamic %s path cannot be resolved statically", e.Kind)
			if sink, ok := b.pre.SinkFor(e.Kind.String()); ok {
				b.emit(&ai.Assert{
					Fn:    sink.Name,
					Args:  []ai.Arg{{Expr: pathExpr, ArgPos: 1, Pos: e.Path.Pos(), End: e.Path.End()}},
					Bound: sink.Bound,
					Site:  b.site(e),
				})
			}
		} else {
			b.warnf(e.Pos(), "no include loader configured; skipping %q", lit)
		}
		return bottom
	}

	candidates := []string{lit}
	if !path.IsAbs(lit) {
		if dir := path.Dir(e.Pos().File); dir != "." && dir != "" {
			candidates = append([]string{path.Join(dir, lit)}, candidates...)
		}
		if b.opts.Dir != "" {
			candidates = append(candidates, path.Join(b.opts.Dir, lit))
		}
	}

	var src []byte
	var resolved string
	for _, cand := range candidates {
		data, err := b.opts.Loader(cand)
		if err == nil {
			src, resolved = data, cand
			break
		}
		b.includes.Miss(cand)
	}
	if resolved == "" {
		b.warnf(e.Pos(), "cannot load include %q", lit)
		b.unresolvedIncludes = append(b.unresolvedIncludes, lit)
		return bottom
	}
	b.includes.Hit(resolved, src)

	once := e.Kind.String() == "include_once" || e.Kind.String() == "require_once"
	if once && b.included[resolved] {
		return bottom
	}
	for _, active := range b.includeStack {
		if active == resolved {
			b.warnf(e.Pos(), "include cycle through %q; skipping", resolved)
			return bottom
		}
	}
	b.included[resolved] = true

	res := parser.Parse(resolved, src)
	for _, err := range res.Errs {
		b.warnf(e.Pos(), "in included %s: %v", resolved, err)
	}
	b.collectDecls(res.File.Stmts, "")
	b.collectVarUsage(res.File.Stmts)

	b.includeStack = append(b.includeStack, resolved)
	savedPos, savedEnd := b.curStmtPos, b.curStmtEnd
	for _, st := range res.File.Stmts {
		b.buildStmt(st)
	}
	b.curStmtPos, b.curStmtEnd = savedPos, savedEnd
	b.includeStack = b.includeStack[:len(b.includeStack)-1]
	return bottom
}

// constPath statically evaluates an include path: string literals and
// concatenations of string literals.
func constPath(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.StringLit:
		return e.Value, true
	case *ast.Binary:
		if e.Op.String() != "." {
			return "", false
		}
		l, ok := constPath(e.L)
		if !ok {
			return "", false
		}
		r, ok := constPath(e.R)
		if !ok {
			return "", false
		}
		return l + r, true
	case *ast.Interp:
		var sb strings.Builder
		for _, part := range e.Parts {
			lit, ok := part.(*ast.StringLit)
			if !ok {
				return "", false
			}
			sb.WriteString(lit.Value)
		}
		return sb.String(), true
	default:
		return "", false
	}
}
