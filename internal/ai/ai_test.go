package ai

import (
	"strings"
	"testing"

	"webssari/internal/lattice"
)

// tinyProgram builds an AI by hand:
//
//	t(x) = tainted<src>;
//	if b0 then
//	    t(x) = untainted;
//	else
//	    stop;
//	endif
//	assert(t(x) < tainted);  // sink
func tinyProgram() *Program {
	lat := lattice.Taint()
	tainted, untainted := lat.Top(), lat.Bottom()
	return &Program{
		File: "tiny.php",
		Lat:  lat,
		Cmds: []Cmd{
			&Set{Var: "x", RHS: Const{Type: tainted, Label: "src", Lat: lat}},
			&If{ID: 0,
				Then: []Cmd{&Set{Var: "x", RHS: Const{Type: untainted, Lat: lat}}},
				Else: []Cmd{&Stop{}},
			},
			&Assert{Fn: "sink", Args: []Arg{{Expr: Var{Name: "x"}, ArgPos: 1}}, Bound: tainted},
		},
		Branches:     1,
		InitialTypes: map[string]lattice.Elem{},
	}
}

func TestEvalPathSemantics(t *testing.T) {
	p := tinyProgram()

	// b0 = true: x sanitized before the assert — no violation.
	viols, env := p.Eval(func(int) bool { return true })
	if len(viols) != 0 {
		t.Fatalf("then-path violations = %d, want 0", len(viols))
	}
	if env["x"] != p.Lat.Bottom() {
		t.Fatalf("x = %v, want untainted", p.Lat.Name(env["x"]))
	}

	// b0 = false: stop kills the path before the assert.
	viols, _ = p.Eval(func(int) bool { return false })
	if len(viols) != 0 {
		t.Fatalf("stop-path violations = %d, want 0", len(viols))
	}
}

func TestEvalViolationRecordsBranches(t *testing.T) {
	p := tinyProgram()
	// Remove the sanitizing assignment: then-path now violates.
	p.Cmds[1].(*If).Then = nil
	viols, _ := p.Eval(func(int) bool { return true })
	if len(viols) != 1 {
		t.Fatalf("violations = %d, want 1", len(viols))
	}
	v := viols[0]
	if len(v.Failing) != 1 || v.Failing[0] != 0 {
		t.Fatalf("failing = %v", v.Failing)
	}
	if !v.Branches[0] {
		t.Fatalf("branches = %v, want {0:true}", v.Branches)
	}
	if v.ArgTypes[0] != p.Lat.Top() {
		t.Fatalf("arg type = %v", p.Lat.Name(v.ArgTypes[0]))
	}
}

func TestViolationKeyCanonical(t *testing.T) {
	p := tinyProgram()
	a := p.Cmds[2].(*Assert)
	v1 := Violation{Assert: a, Branches: map[int]bool{2: true, 0: false}}
	v2 := Violation{Assert: a, Branches: map[int]bool{0: false, 2: true}}
	if v1.Key() != v2.Key() {
		t.Fatalf("key not canonical: %q vs %q", v1.Key(), v2.Key())
	}
	v3 := Violation{Assert: a, Branches: map[int]bool{0: true, 2: true}}
	if v1.Key() == v3.Key() {
		t.Fatalf("different branch decisions share a key")
	}
}

func TestExhaustiveViolationsDedup(t *testing.T) {
	p := tinyProgram()
	p.Cmds[1].(*If).Then = nil
	viols := p.ExhaustiveViolations()
	// Only one distinct trace: b0=true (b0=false stops).
	if len(viols) != 1 {
		t.Fatalf("violations = %d, want 1", len(viols))
	}
}

func TestNewJoinSimplifies(t *testing.T) {
	lat := lattice.Taint()
	a := Var{Name: "a"}
	if got := NewJoin(); got != nil {
		t.Fatalf("empty join = %v, want nil", got)
	}
	if got := NewJoin(a); got != a {
		t.Fatalf("singleton join = %v", got)
	}
	j := NewJoin(a, NewJoin(Var{Name: "b"}, Const{Type: lat.Top(), Lat: lat}))
	join, ok := j.(Join)
	if !ok || len(join.Parts) != 3 {
		t.Fatalf("nested join not flattened: %v", j)
	}
	k := NewJoin(nil, a, nil)
	if k != a {
		t.Fatalf("nil parts not dropped: %v", k)
	}
}

func TestWalkAndQueries(t *testing.T) {
	p := tinyProgram()
	n := 0
	Walk(p.Cmds, func(Cmd) { n++ })
	if n != 5 {
		t.Fatalf("walked %d cmds, want 5", n)
	}
	if got := p.Size(); got != 5 {
		t.Fatalf("Size = %d", got)
	}
	// Longest path: set, if, set, assert = 4.
	if got := p.Diameter(); got != 4 {
		t.Fatalf("Diameter = %d, want 4", got)
	}
	asserts := p.Asserts()
	if len(asserts) != 1 || asserts[0].Fn != "sink" {
		t.Fatalf("asserts = %v", asserts)
	}
	vars := p.Vars()
	if len(vars) != 1 || vars[0] != "x" {
		t.Fatalf("vars = %v", vars)
	}
}

func TestInitialTypeDefaultsToBottom(t *testing.T) {
	p := tinyProgram()
	if p.InitialType("never_seen") != p.Lat.Bottom() {
		t.Fatalf("unknown vars must start at ⊥")
	}
	p.InitialTypes["g"] = p.Lat.Top()
	if p.InitialType("g") != p.Lat.Top() {
		t.Fatalf("explicit initial type lost")
	}
}

func TestExprStrings(t *testing.T) {
	lat := lattice.Taint()
	c := Const{Type: lat.Top(), Label: "mysql_fetch_array", Lat: lat}
	if got := c.String(); got != "tainted<mysql_fetch_array>" {
		t.Fatalf("const string = %q", got)
	}
	bare := Const{Type: lat.Bottom(), Lat: lat}
	if got := bare.String(); got != "untainted" {
		t.Fatalf("bare const = %q", got)
	}
	noLat := Const{Type: 1}
	if got := noLat.String(); got != "#1" {
		t.Fatalf("lattice-less const = %q", got)
	}
	v := Var{Name: "x"}
	if v.String() != "t($x)" {
		t.Fatalf("var string = %q", v.String())
	}
	j := Join{Parts: []Expr{v, bare}}
	if j.String() != "(t($x) ⊔ untainted)" {
		t.Fatalf("join string = %q", j.String())
	}
}

func TestProgramString(t *testing.T) {
	p := tinyProgram()
	s := p.String()
	for _, frag := range []string{"if b0 then", "else", "stop;", "assert(", "endif"} {
		if !strings.Contains(s, frag) {
			t.Errorf("dump missing %q:\n%s", frag, s)
		}
	}
}

func TestSetPatchable(t *testing.T) {
	s := &Set{}
	if s.Patchable() {
		t.Fatalf("zero Set should not be patchable")
	}
}

func TestExhaustiveBranchCap(t *testing.T) {
	// A program claiming more than 24 branches must not hang the oracle.
	lat := lattice.Taint()
	p := &Program{File: "big", Lat: lat, Branches: 30,
		Cmds:         []Cmd{&Assert{Fn: "s", Args: []Arg{{Expr: Const{Type: lat.Top(), Lat: lat}}}, Bound: lat.Top()}},
		InitialTypes: map[string]lattice.Elem{}}
	viols := p.ExhaustiveViolations()
	if len(viols) != 1 {
		t.Fatalf("violations = %d", len(viols))
	}
}
