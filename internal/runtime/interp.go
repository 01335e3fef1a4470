package runtime

import (
	"fmt"
	"strings"

	"webssari/internal/php/ast"
	"webssari/internal/php/parser"
	"webssari/internal/php/token"
)

// ErrHalt is a sentinel: execution ended via exit/die (not a failure).
type haltSignal struct{}

// control models non-local control flow inside the tree-walking
// interpreter.
type control struct {
	kind controlKind
	n    int    // break/continue level
	val  *Value // return value
}

type controlKind int

const (
	ctlNone controlKind = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// DefaultMaxSteps bounds execution so accidental infinite loops in test
// programs fail fast.
const DefaultMaxSteps = 1_000_000

// Interp executes one PHP program with taint tracking.
type Interp struct {
	// Globals is the global variable scope. Superglobals live here.
	Globals map[string]*Value
	// Events is the ordered log of sink invocations.
	Events []Event
	// DB is the fake database backing mysql_* builtins: executed INSERTs
	// are appended to Stored; SELECT queries return the pre-seeded Rows.
	DB FakeDB
	// MaxSteps bounds evaluation steps (0 = DefaultMaxSteps).
	MaxSteps int
	// Loader resolves include paths (nil disables includes).
	Loader func(path string) ([]byte, error)

	funcs   map[string]*ast.FunctionDecl
	steps   int
	scope   map[string]*Value // current variable scope
	globals map[string]bool   // names imported via 'global'
	depth   int
}

// FakeDB simulates the backend database.
type FakeDB struct {
	// Rows are returned, in order, by result fetches.
	Rows []*Value
	// Queries records every query string executed.
	Queries []string
}

// New returns an interpreter with empty superglobals.
func New() *Interp {
	in := &Interp{
		Globals: map[string]*Value{
			"_GET": Array(), "_POST": Array(), "_COOKIE": Array(),
			"_REQUEST": Array(), "_SERVER": Array(), "_SESSION": Array(),
		},
		funcs: make(map[string]*ast.FunctionDecl),
	}
	in.scope = in.Globals
	return in
}

// SetGet seeds a $_GET parameter with attacker-controlled (tainted) data,
// for TestTaintedGetReachesEcho. Only tests seed requests until the
// runtime gets a production caller (ROADMAP item 4).
func (in *Interp) SetGet(key, val string) { in.Globals["_GET"].Set(key, Tainted(val)) }

// SetPost seeds a $_POST parameter with tainted data, for
// TestTaintThroughStringFunctions.
func (in *Interp) SetPost(key, val string) { in.Globals["_POST"].Set(key, Tainted(val)) }

// SetCookie seeds a $_COOKIE value with tainted data, for
// TestListAssignAndExplode.
func (in *Interp) SetCookie(key, val string) { in.Globals["_COOKIE"].Set(key, Tainted(val)) }

// SeedRow adds a row to the fake database (e.g. previously stored,
// attacker-supplied content for stored-XSS scenarios).
func (in *Interp) SeedRow(cols map[string]*Value) {
	row := Array()
	for k, v := range cols {
		row.Set(k, v)
	}
	in.DB.Rows = append(in.DB.Rows, row)
}

// TaintedEvents returns the sink events that received tainted data.
func (in *Interp) TaintedEvents() []Event {
	var out []Event
	for _, e := range in.Events {
		if e.Tainted {
			out = append(out, e)
		}
	}
	return out
}

// Output concatenates everything echoed.
func (in *Interp) Output() string {
	var b strings.Builder
	for _, e := range in.Events {
		if e.Sink == "echo" {
			b.WriteString(e.Text)
		}
	}
	return b.String()
}

// RunSource parses and executes PHP source text.
func (in *Interp) RunSource(name string, src []byte) error {
	res := parser.Parse(name, src)
	if len(res.Errs) > 0 {
		return fmt.Errorf("runtime: parse %s: %w", name, res.Errs[0])
	}
	return in.Run(res.File)
}

// Run executes a parsed file.
func (in *Interp) Run(file *ast.File) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(haltSignal); ok {
				return // exit/die: normal termination
			}
			panic(r)
		}
	}()
	in.collectFuncs(file.Stmts)
	_, err = in.stmts(file.Stmts)
	return err
}

func (in *Interp) collectFuncs(stmts []ast.Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.FunctionDecl:
			in.funcs[ast.LowerName(s.Name)] = s
		case *ast.ClassDecl:
			for _, m := range s.Methods {
				// Methods callable by unique name, matching the filter's
				// resolution model.
				key := ast.LowerName(m.Name)
				if _, dup := in.funcs[key]; !dup {
					in.funcs[key] = m
				}
			}
		case *ast.IfStmt:
			in.collectFuncs(s.Then)
			for _, ei := range s.Elseifs {
				in.collectFuncs(ei.Body)
			}
			in.collectFuncs(s.Else)
		case *ast.BlockStmt:
			in.collectFuncs(s.Body)
		}
	}
}

func (in *Interp) tick(pos token.Pos) error {
	in.steps++
	limit := in.MaxSteps
	if limit == 0 {
		limit = DefaultMaxSteps
	}
	if in.steps > limit {
		return fmt.Errorf("runtime: step budget exhausted at %s", pos)
	}
	return nil
}

func (in *Interp) emit(sink string, v *Value, pos token.Pos) {
	in.Events = append(in.Events, Event{
		Sink:    sink,
		Text:    v.String(),
		Tainted: v.AnyTaint(),
		Line:    pos.Line,
	})
}

// stmts executes a statement list, returning any control signal.
func (in *Interp) stmts(list []ast.Stmt) (control, error) {
	for _, s := range list {
		ctl, err := in.stmt(s)
		if err != nil || ctl.kind != ctlNone {
			return ctl, err
		}
	}
	return control{}, nil
}

func (in *Interp) stmt(s ast.Stmt) (control, error) {
	if err := in.tick(s.Pos()); err != nil {
		return control{}, err
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		_, err := in.eval(s.X)
		return control{}, err

	case *ast.EchoStmt:
		for _, a := range s.Args {
			v, err := in.eval(a)
			if err != nil {
				return control{}, err
			}
			in.emit("echo", v, s.Pos())
		}
		return control{}, nil

	case *ast.InlineHTMLStmt:
		in.emit("echo", Clean(s.Text), s.Pos())
		return control{}, nil

	case *ast.IfStmt:
		cond, err := in.eval(s.Cond)
		if err != nil {
			return control{}, err
		}
		if cond.Truthy() {
			return in.stmts(s.Then)
		}
		for _, ei := range s.Elseifs {
			c, err := in.eval(ei.Cond)
			if err != nil {
				return control{}, err
			}
			if c.Truthy() {
				return in.stmts(ei.Body)
			}
		}
		return in.stmts(s.Else)

	case *ast.WhileStmt:
		for {
			if err := in.tick(s.Pos()); err != nil {
				return control{}, err
			}
			c, err := in.eval(s.Cond)
			if err != nil {
				return control{}, err
			}
			if !c.Truthy() {
				return control{}, nil
			}
			ctl, err := in.stmts(s.Body)
			if err != nil {
				return control{}, err
			}
			if done, out := loopControl(ctl); done {
				return out, nil
			}
		}

	case *ast.DoWhileStmt:
		for {
			if err := in.tick(s.Pos()); err != nil {
				return control{}, err
			}
			ctl, err := in.stmts(s.Body)
			if err != nil {
				return control{}, err
			}
			if done, out := loopControl(ctl); done {
				return out, nil
			}
			c, err := in.eval(s.Cond)
			if err != nil {
				return control{}, err
			}
			if !c.Truthy() {
				return control{}, nil
			}
		}

	case *ast.ForStmt:
		for _, e := range s.Init {
			if _, err := in.eval(e); err != nil {
				return control{}, err
			}
		}
		for {
			if err := in.tick(s.Pos()); err != nil {
				return control{}, err
			}
			run := true
			for _, e := range s.Cond {
				c, err := in.eval(e)
				if err != nil {
					return control{}, err
				}
				run = c.Truthy()
			}
			if !run {
				return control{}, nil
			}
			ctl, err := in.stmts(s.Body)
			if err != nil {
				return control{}, err
			}
			if done, out := loopControl(ctl); done {
				return out, nil
			}
			for _, e := range s.Post {
				if _, err := in.eval(e); err != nil {
					return control{}, err
				}
			}
		}

	case *ast.ForeachStmt:
		subj, err := in.eval(s.Subject)
		if err != nil {
			return control{}, err
		}
		if subj.Kind != KArray {
			return control{}, nil
		}
		for _, key := range append([]string(nil), sortedKeys(subj)...) {
			elem, ok := subj.Elems[key]
			if !ok {
				continue
			}
			if s.KeyVar != nil {
				kv := Clean(key)
				kv.Taint = subj.Taint
				if err := in.assign(s.KeyVar, kv); err != nil {
					return control{}, err
				}
			}
			if err := in.assign(s.ValVar, elem.Copy()); err != nil {
				return control{}, err
			}
			ctl, err := in.stmts(s.Body)
			if err != nil {
				return control{}, err
			}
			if done, out := loopControl(ctl); done {
				return out, nil
			}
		}
		return control{}, nil

	case *ast.SwitchStmt:
		subj, err := in.eval(s.Subject)
		if err != nil {
			return control{}, err
		}
		matched := false
		for _, c := range s.Cases {
			if !matched {
				if c.Match == nil {
					matched = true
				} else {
					m, err := in.eval(c.Match)
					if err != nil {
						return control{}, err
					}
					matched = looseEq(subj, m)
				}
			}
			if matched {
				ctl, err := in.stmts(c.Body)
				if err != nil {
					return control{}, err
				}
				if ctl.kind == ctlBreak {
					if ctl.n > 1 {
						return control{kind: ctlBreak, n: ctl.n - 1}, nil
					}
					return control{}, nil
				}
				if ctl.kind != ctlNone {
					return ctl, nil
				}
			}
		}
		return control{}, nil

	case *ast.BreakStmt:
		return control{kind: ctlBreak, n: s.Level}, nil
	case *ast.ContinueStmt:
		return control{kind: ctlContinue, n: s.Level}, nil

	case *ast.ReturnStmt:
		out := control{kind: ctlReturn, val: Null()}
		if s.X != nil {
			v, err := in.eval(s.X)
			if err != nil {
				return control{}, err
			}
			out.val = v
		}
		return out, nil

	case *ast.GlobalStmt:
		if in.globals != nil {
			for _, name := range s.Names {
				in.globals[name] = true
			}
		}
		return control{}, nil

	case *ast.StaticStmt:
		// Statics approximated as ordinary locals with initialization.
		for _, v := range s.Vars {
			if _, exists := in.scope[v.Name]; !exists {
				val := Null()
				if v.Init != nil {
					var err error
					val, err = in.eval(v.Init)
					if err != nil {
						return control{}, err
					}
				}
				in.setVar(v.Name, val)
			}
		}
		return control{}, nil

	case *ast.UnsetStmt:
		for _, a := range s.Args {
			switch a := a.(type) {
			case *ast.Var:
				delete(in.scope, a.Name)
			case *ast.Index:
				base, err := in.eval(a.Arr)
				if err != nil {
					return control{}, err
				}
				if a.Key != nil && base.Kind == KArray {
					k, err := in.eval(a.Key)
					if err != nil {
						return control{}, err
					}
					delete(base.Elems, k.String())
				}
			}
		}
		return control{}, nil

	case *ast.FunctionDecl, *ast.ClassDecl, *ast.NopStmt:
		return control{}, nil

	case *ast.BlockStmt:
		return in.stmts(s.Body)

	default:
		return control{}, fmt.Errorf("runtime: unsupported statement %T at %s", s, s.Pos())
	}
}

// loopControl translates a body control signal into loop behaviour.
func loopControl(ctl control) (done bool, out control) {
	switch ctl.kind {
	case ctlBreak:
		if ctl.n > 1 {
			return true, control{kind: ctlBreak, n: ctl.n - 1}
		}
		return true, control{}
	case ctlContinue:
		if ctl.n > 1 {
			return true, control{kind: ctlContinue, n: ctl.n - 1}
		}
		return false, control{}
	case ctlReturn:
		return true, ctl
	default:
		return false, control{}
	}
}
