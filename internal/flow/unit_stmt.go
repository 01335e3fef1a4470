package flow

import (
	"path"
	"strings"

	"webssari/internal/ai"
	"webssari/internal/ir"
	"webssari/internal/php/parser"
	"webssari/internal/prelude"
)

func (b *ubuilder) buildBlock(bl ir.Block) []ai.Cmd {
	return b.collect(func() {
		for _, in := range bl {
			b.buildInstr(in)
		}
	})
}

func (b *ubuilder) buildInstr(in ir.Instr) {
	if in == nil {
		return
	}
	// Only reset the statement site at the outermost instruction nesting
	// level of the current build; nested expressions keep it. Nop markers
	// exist precisely to reset it at the statement boundaries the source
	// had (blocks, declarations, break/continue, inline HTML).
	b.curStmtPos = in.Pos()
	b.curStmtEnd = in.End()

	switch in := in.(type) {
	case *ir.Eval:
		if ex, ok := in.X.(*ir.Exit); ok {
			b.trExitExpr(ex)
			b.emit(&ai.Stop{Site: b.site(in)})
			return
		}
		b.trExpr(in.X)

	case *ir.Echo:
		b.emitSinkCall("echo", in.Args, in)

	case *ir.Nop:
		// No information flow: constant output, control transfer the
		// nondeterministic-branch model over-approximates, or a hoisted
		// declaration unfolded at call sites. Inline HTML does advance
		// the policy's output-context machine: the literal markup decides
		// which context the next dynamic output lands in.
		if in.Kind == "html" && b.htmlctx != nil {
			b.htmlctx.Feed(in.Text)
		}

	case *ir.Branch:
		b.buildBranch(in)

	case *ir.Loop:
		switch in.Kind {
		case ir.LoopWhile:
			// while e do c  ⇒  if e then c, repeated LoopUnroll times
			// (§3.2: "loop structures can be deconstructed into selection
			// structures"). The condition is evaluated before each unfolding
			// so its side effects are kept.
			b.trExpr(in.Cond[0])
			b.buildLoop(func() { b.trExpr(in.Cond[0]) }, in.Body, nil, in)

		case ir.LoopDoWhile:
			// The body executes at least once; remaining iterations become
			// selections.
			for _, st := range in.Body {
				b.buildInstr(st)
			}
			b.curStmtPos, b.curStmtEnd = in.Pos(), in.End()
			b.trExpr(in.Cond[0])
			if b.opts.LoopUnroll > 1 {
				saved := b.opts.LoopUnroll
				b.opts.LoopUnroll = saved - 1
				b.buildLoop(func() { b.trExpr(in.Cond[0]) }, in.Body, nil, in)
				b.opts.LoopUnroll = saved
			}

		case ir.LoopFor:
			for _, e := range in.Init {
				b.trExpr(e)
			}
			for _, e := range in.Cond {
				b.trExpr(e)
			}
			post := func() {
				for _, e := range in.Post {
					b.trExpr(e)
				}
				for _, e := range in.Cond {
					b.trExpr(e)
				}
			}
			b.buildLoop(nil, in.Body, post, in)
		}

	case *ir.Foreach:
		subj := b.trExpr(in.Subject)
		body := func() {
			// Key and value receive (an element of) the subject; element
			// types are dominated by the array's type in our array model.
			if in.Key != nil {
				b.assignTo(in.Key, subj, in.Subject, in)
			}
			b.assignTo(in.Val, subj, in.Subject, in)
			for _, st := range in.Body {
				b.buildInstr(st)
			}
			if in.ByRef {
				// foreach ($arr as &$v): writes to $v inside the body flow
				// back into the array (weak update — the body may not run,
				// and only some elements are overwritten).
				subjRoot, okS := b.pureRoot(in.Subject)
				valRoot, okV := b.pureRoot(in.Val)
				if okS && okV {
					b.emit(&ai.Set{
						Var:       subjRoot,
						RHS:       ai.NewJoin(ai.Var{Name: subjRoot}, ai.Var{Name: valRoot}),
						Site:      b.site(in),
						Synthetic: true,
					})
				}
			}
		}
		b.emitSelection(body, nil, in)

	case *ir.Switch:
		b.trExpr(in.Subject)
		for _, c := range in.Cases {
			if c.Match != nil {
				b.trExpr(c.Match)
			}
		}
		b.buildSwitchCases(in.Cases, in)

	case *ir.Return:
		if b.scope.retVar == "" {
			// Top-level return ends the page like stop.
			if in.X != nil {
				b.trExpr(in.X)
			}
			b.emit(&ai.Stop{Site: b.site(in)})
			return
		}
		rhs := ai.Expr(ai.Const{Type: b.lat.Bottom(), Lat: b.lat})
		if in.X != nil {
			rhs = b.trExpr(in.X)
		}
		// Join with previous returns: flow-insensitive over multiple return
		// statements, precise across branches (each arm assigns its own).
		set := &ai.Set{
			Var:       b.scope.retVar,
			RHS:       ai.NewJoin(ai.Var{Name: b.scope.retVar}, rhs),
			Site:      b.site(in),
			Synthetic: true,
		}
		if in.X != nil {
			// The returned expression is a real patch point.
			set.RHSPos = in.X.Pos()
			set.RHSEnd = in.X.End()
			set.Synthetic = false
		}
		b.emit(set)

	case *ir.Global:
		for _, name := range in.Names {
			b.scope.globals[name] = true
		}

	case *ir.StaticDecl:
		for _, v := range in.Vars {
			set := &ai.Set{Var: b.resolveVar(v.Name), Site: b.site(in), SrcVar: v.Name, Synthetic: true}
			set.RHS = ai.Expr(ai.Const{Type: b.lat.Bottom(), Lat: b.lat})
			if v.Init != nil {
				set.RHS = b.trExpr(v.Init)
				set.RHSPos = v.Init.Pos()
				set.RHSEnd = v.Init.End()
				set.Synthetic = false
			}
			b.emit(set)
		}

	case *ir.Unset:
		for _, a := range in.Args {
			// Only unsetting a whole variable clears its type; unsetting
			// one array element leaves the rest of the array's taint.
			if v, ok := a.(*ir.Var); ok {
				b.emit(&ai.Set{
					Var:       b.resolveVar(v.Name),
					RHS:       ai.Const{Type: b.lat.Bottom(), Lat: b.lat, Label: "unset"},
					Site:      b.site(in),
					SrcVar:    v.Name,
					Synthetic: true,
				})
			}
		}
	}
}

// buildBranch lowers a Branch to a nondeterministic ai.If. An
// elseif-derived branch (the sole instruction of its parent's Else block)
// is entered without resetting the statement site, exactly as the pre-IR
// if-chain recursion left it.
func (b *ubuilder) buildBranch(in *ir.Branch) {
	b.trExpr(in.Cond)
	id := b.branchID
	b.branchID++
	thenCmds := b.buildBlock(in.Then)
	elseCmds := b.collect(func() {
		if len(in.Else) == 1 {
			if next, ok := in.Else[0].(*ir.Branch); ok && next.Elseif {
				b.buildBranch(next)
				return
			}
		}
		for _, st := range in.Else {
			b.buildInstr(st)
		}
	})
	b.emit(&ai.If{ID: id, Then: thenCmds, Else: elseCmds, Site: b.site(in)})
}

// emitSelection wraps body (and optional post) in one nondeterministic
// branch with an empty else arm: the "may not execute" selection that
// loops and foreach statements deconstruct into.
func (b *ubuilder) emitSelection(body func(), post func(), site ir.Node) {
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
func (b *ubuilder) buildLoop(cond func(), body ir.Block, post func(), site ir.Node) {
	var unfold func(k int)
	unfold = func(k int) {
		if k == 0 {
			return
		}
		b.emitSelection(func() {
			for _, st := range body {
				b.buildInstr(st)
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
func (b *ubuilder) buildSwitchCases(cases []ir.SwitchCase, site ir.Node) {
	if len(cases) == 0 {
		return
	}
	head := cases[0]
	id := b.branchID
	b.branchID++
	thenCmds := b.buildBlock(head.Body)
	elseCmds := b.collect(func() {
		b.buildSwitchCases(cases[1:], site)
	})
	b.emit(&ai.If{ID: id, Then: thenCmds, Else: elseCmds, Site: b.site(site)})
}

// emitSinkCall emits the assertion for a SOC call if the prelude registers
// one; args are always evaluated for side effects.
func (b *ubuilder) emitSinkCall(name string, args []ir.Expr, site ir.Node) {
	sink, isSink := b.pre.SinkFor(name)
	if isSink && b.htmlctx != nil && b.policy.Contextual(name) {
		b.emitContextualSinkCall(sink, args, site)
		return
	}
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
			Class: b.sinkClass(name),
			Site:  b.site(site),
		})
	}
}

// sinkClass returns the policy-declared vulnerability class of a sink
// ("" without a policy, which keeps the classic by-name classification).
func (b *ubuilder) sinkClass(name string) string {
	if b.policy == nil {
		return ""
	}
	return b.policy.SinkClass(name)
}

// emitContextualSinkCall handles a sink whose precondition bound depends
// on the HTML output context (echo/print under a context-sensitive
// policy). Checked arguments are decomposed into literal and dynamic
// parts in evaluation order: literal text advances the output-context
// machine, and each dynamic part gets its own assertion against the
// bound of the context it lands in. The machine state is assumed
// unchanged across dynamic parts — exactly the non-interference property
// the per-context bounds enforce.
func (b *ubuilder) emitContextualSinkCall(sink prelude.Sink, args []ir.Expr, site ir.Node) {
	class := b.sinkClass(sink.Name)
	for i, a := range args {
		if !sink.Checks(i + 1) {
			b.trExpr(a)
			continue
		}
		argPos := i + 1
		var walk func(e ir.Expr)
		walk = func(e ir.Expr) {
			switch e := e.(type) {
			case *ir.Str:
				b.htmlctx.Feed(e.Value)
			case *ir.Interp:
				for _, part := range e.Parts {
					walk(part)
				}
			case *ir.Concat:
				walk(e.L)
				walk(e.R)
			case *ir.Lit:
				// Scalar literals emit their spelling; bare constants
				// have unknown text and are assumed context-neutral.
				if e.Kind != ir.LitConst {
					b.htmlctx.Feed(e.Text)
				}
			default:
				ex := b.trExpr(e)
				ctx := b.htmlctx.Current()
				bound := sink.Bound
				if cb, ok := b.policy.ContextBound(ctx); ok {
					bound = cb
				}
				b.emit(&ai.Assert{
					Fn:      sink.Name,
					Args:    []ai.Arg{{Expr: ex, ArgPos: argPos, Pos: e.Pos(), End: e.End()}},
					Bound:   bound,
					Class:   class,
					Context: ctx,
					Site:    b.site(site),
				})
			}
		}
		walk(a)
	}
}

// ------------------------------------------------------------------ include

// handleInclude resolves a static include, lowers the included file, and
// splices its AI in place; dynamic include paths become an assertion on
// the include sink (remote-file-inclusion check) plus a warning.
func (b *ubuilder) handleInclude(e *ir.Include) ai.Expr {
	bottom := ai.Const{Type: b.lat.Bottom(), Lat: b.lat}
	lit, isStatic := constPathIR(e.Path)
	if !isStatic || b.opts.Loader == nil {
		pathExpr := b.trExpr(e.Path)
		if !isStatic {
			b.warnf(e.Pos(), "dynamic %s path cannot be resolved statically", e.Kind)
			if sink, ok := b.pre.SinkFor(e.Kind); ok {
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

	once := e.Kind == "include_once" || e.Kind == "require_once"
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
	unit, lerr := ir.Lower(res.File)
	if lerr != nil {
		b.warnf(e.Pos(), "in included %s: %v", resolved, lerr)
		return bottom
	}
	b.registerDecls(unit)
	b.collectVarUsage(unit)

	b.includeStack = append(b.includeStack, resolved)
	savedPos, savedEnd := b.curStmtPos, b.curStmtEnd
	for _, instr := range unit.Main {
		b.buildInstr(instr)
	}
	b.curStmtPos, b.curStmtEnd = savedPos, savedEnd
	b.includeStack = b.includeStack[:len(b.includeStack)-1]
	return bottom
}

// constPathIR statically evaluates an include path: string literals and
// concatenations of string literals.
func constPathIR(e ir.Expr) (string, bool) {
	switch e := e.(type) {
	case *ir.Str:
		return e.Value, true
	case *ir.Concat:
		l, ok := constPathIR(e.L)
		if !ok {
			return "", false
		}
		r, ok := constPathIR(e.R)
		if !ok {
			return "", false
		}
		return l + r, true
	case *ir.Interp:
		var sb strings.Builder
		for _, part := range e.Parts {
			lit, ok := part.(*ir.Str)
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
