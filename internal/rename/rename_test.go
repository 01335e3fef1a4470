package rename

import (
	"strings"
	"testing"

	"webssari/internal/ai"
	"webssari/internal/flow"
	"webssari/internal/prelude"
)

func buildRenamed(t *testing.T, src string) *Program {
	t.Helper()
	prog, errs := flow.BuildSource("t.php", []byte(src), flow.Options{Prelude: prelude.Default()})
	for _, err := range errs {
		t.Fatalf("build: %v", err)
	}
	return Rename(prog)
}

func TestSingleAssignmentProperty(t *testing.T) {
	r := buildRenamed(t, `<?php
$x = 1;
$x = $_GET['a'];
if ($c) { $x = 'safe'; }
echo $x;`)
	seen := make(map[SSAVar]int)
	var walk func(cmds []Cmd)
	walk = func(cmds []Cmd) {
		for _, c := range cmds {
			switch c := c.(type) {
			case *Set:
				seen[c.V]++
			case *If:
				walk(c.Then)
				walk(c.Else)
			}
		}
	}
	walk(r.Cmds)
	for v, n := range seen {
		if n != 1 {
			t.Errorf("%v assigned %d times; single-assignment violated", v, n)
		}
		if v.Idx == 0 {
			t.Errorf("%v: index 0 is reserved for the initial value", v)
		}
	}
	if r.Counts["x"] != 3 {
		t.Errorf("x assigned %d times, want 3", r.Counts["x"])
	}
}

func TestReadsSeeLatestIndex(t *testing.T) {
	r := buildRenamed(t, `<?php
$x = $_GET['a'];
$y = $x;
$x = 'reset';
$z = $x;`)
	// y1 must read x1; z1 must read x2.
	var setY, setZ *Set
	for _, c := range r.Cmds {
		if s, ok := c.(*Set); ok {
			switch s.V.Name {
			case "y":
				setY = s
			case "z":
				setZ = s
			}
		}
	}
	if setY == nil || setZ == nil {
		t.Fatalf("missing sets:\n%s", r)
	}
	if ref, ok := setY.RHS.(Ref); !ok || ref.V != (SSAVar{Name: "x", Idx: 1}) {
		t.Errorf("y reads %v, want x@1", setY.RHS)
	}
	if ref, ok := setZ.RHS.(Ref); !ok || ref.V != (SSAVar{Name: "x", Idx: 2}) {
		t.Errorf("z reads %v, want x@2", setZ.RHS)
	}
}

func TestElseReadsThenIndexHarmlessly(t *testing.T) {
	// The else-arm read of $x resolves to the then-arm's index: the paper's
	// φ-free renaming. Guarded ITE semantics (package constraint) make the
	// then-assignment an identity when the else runs.
	r := buildRenamed(t, `<?php
$x = 1;
if ($c) { $x = $_GET['a']; } else { $y = $x; }
echo $y;`)
	var inElse *Set
	var walk func(cmds []Cmd)
	walk = func(cmds []Cmd) {
		for _, c := range cmds {
			if ifc, ok := c.(*If); ok {
				for _, ec := range ifc.Else {
					if s, ok := ec.(*Set); ok && s.V.Name == "y" {
						inElse = s
					}
				}
				walk(ifc.Then)
				walk(ifc.Else)
			}
		}
	}
	walk(r.Cmds)
	if inElse == nil {
		t.Fatalf("no y assignment in else arm:\n%s", r)
	}
	ref, ok := inElse.RHS.(Ref)
	if !ok || ref.V != (SSAVar{Name: "x", Idx: 2}) {
		t.Errorf("else reads %v, want x@2 (the then-arm index)", inElse.RHS)
	}
}

func TestInitialIndexZeroForSuperglobals(t *testing.T) {
	r := buildRenamed(t, `<?php $q = $_GET['id'];`)
	set, ok := r.Cmds[0].(*Set)
	if !ok {
		t.Fatalf("cmd 0 is %T", r.Cmds[0])
	}
	ref, ok := set.RHS.(Ref)
	if !ok || ref.V != (SSAVar{Name: "_GET", Idx: 0}) {
		t.Fatalf("rhs = %v, want _GET@0", set.RHS)
	}
	if r.AI.InitialType("_GET") != r.AI.Lat.Top() {
		t.Fatalf("initial _GET type should be tainted")
	}
}

func TestDefsMapComplete(t *testing.T) {
	r := buildRenamed(t, `<?php
$a = $_GET['x'];
$b = $a;
$c = $b . 'suffix';
echo $c;`)
	for _, name := range []string{"a", "b", "c"} {
		v := SSAVar{Name: name, Idx: 1}
		if _, ok := r.Defs[v]; !ok {
			t.Errorf("Defs missing %v", v)
		}
	}
	// The single-var chain b1 = a1 is what replacement sets walk.
	def := r.Defs[SSAVar{Name: "b", Idx: 1}]
	if ref, ok := def.RHS.(Ref); !ok || ref.V.Name != "a" {
		t.Errorf("b's def should read a, got %v", def.RHS)
	}
}

func TestAssertIDsSequential(t *testing.T) {
	r := buildRenamed(t, `<?php
echo $_GET['a'];
if ($c) { echo $_GET['b']; }
mysql_query($_POST['q']);`)
	if len(r.Asserts) != 3 {
		t.Fatalf("asserts = %d, want 3", len(r.Asserts))
	}
	for i, a := range r.Asserts {
		if a.ID != i {
			t.Errorf("assert %d has ID %d", i, a.ID)
		}
	}
}

func TestErasureRecoversAI(t *testing.T) {
	// Dropping indices from the renamed program must recover the AI's
	// command structure exactly.
	src := `<?php
$x = $_GET['a'];
if ($c) { $x = htmlspecialchars($x); } else { $y = $x . 'z'; }
echo $x, $y;`
	prog, errs := flow.BuildSource("t.php", []byte(src), flow.Options{Prelude: prelude.Default()})
	if len(errs) != 0 {
		t.Fatalf("errs: %v", errs)
	}
	r := Rename(prog)

	var erase func(cmds []Cmd) []string
	var eraseExpr func(e Expr) string
	eraseExpr = func(e Expr) string {
		switch e := e.(type) {
		case Const:
			return e.String()
		case Ref:
			return "t($" + e.V.Name + ")"
		case Join:
			parts := make([]string, len(e.Parts))
			for i, p := range e.Parts {
				parts[i] = eraseExpr(p)
			}
			return "(" + strings.Join(parts, " ⊔ ") + ")"
		}
		return "?"
	}
	erase = func(cmds []Cmd) []string {
		var out []string
		for _, c := range cmds {
			switch c := c.(type) {
			case *Set:
				out = append(out, "set "+c.V.Name+" "+eraseExpr(c.RHS))
			case *Assert:
				out = append(out, "assert")
			case *If:
				out = append(out, "if(")
				out = append(out, erase(c.Then)...)
				out = append(out, ")(")
				out = append(out, erase(c.Else)...)
				out = append(out, ")")
			case *Stop:
				out = append(out, "stop")
			}
		}
		return out
	}

	var aiDump func(cmds []ai.Cmd) []string
	var aiExprDump func(e ai.Expr) string
	aiExprDump = func(e ai.Expr) string {
		switch e := e.(type) {
		case ai.Const:
			return e.String()
		case ai.Var:
			return "t($" + e.Name + ")"
		case ai.Join:
			parts := make([]string, len(e.Parts))
			for i, p := range e.Parts {
				parts[i] = aiExprDump(p)
			}
			return "(" + strings.Join(parts, " ⊔ ") + ")"
		}
		return "?"
	}
	aiDump = func(cmds []ai.Cmd) []string {
		var out []string
		for _, c := range cmds {
			switch c := c.(type) {
			case *ai.Set:
				out = append(out, "set "+c.Var+" "+aiExprDump(c.RHS))
			case *ai.Assert:
				out = append(out, "assert")
			case *ai.If:
				out = append(out, "if(")
				out = append(out, aiDump(c.Then)...)
				out = append(out, ")(")
				out = append(out, aiDump(c.Else)...)
				out = append(out, ")")
			case *ai.Stop:
				out = append(out, "stop")
			}
		}
		return out
	}

	got := strings.Join(erase(r.Cmds), "\n")
	want := strings.Join(aiDump(prog.Cmds), "\n")
	if got != want {
		t.Fatalf("erasure mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestExprRefs(t *testing.T) {
	e := Join{Parts: []Expr{
		Ref{V: SSAVar{Name: "a", Idx: 1}},
		Const{},
		Join{Parts: []Expr{Ref{V: SSAVar{Name: "b", Idx: 0}}}},
	}}
	refs := ExprRefs(e)
	if len(refs) != 2 || refs[0].Name != "a" || refs[1].Name != "b" {
		t.Fatalf("refs = %v", refs)
	}
}

func TestStringRendering(t *testing.T) {
	r := buildRenamed(t, `<?php $x = $_GET['a']; echo $x;`)
	s := r.String()
	for _, frag := range []string{"x@1", "_GET@0", "assert_0"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, s)
		}
	}
}

func TestExprStringForms(t *testing.T) {
	r := buildRenamed(t, `<?php $x = $_GET['a'] . 'suffix'; echo $x;`)
	set, ok := r.Cmds[0].(*Set)
	if !ok {
		t.Fatalf("cmd 0 is %T", r.Cmds[0])
	}
	if got := set.RHS.String(); got != "(t(_GET@0) ⊔ untainted)" {
		t.Fatalf("RHS string = %q", got)
	}
	if got := set.V.String(); got != "x@1" {
		t.Fatalf("SSA var string = %q", got)
	}
	c := Const{Type: r.AI.InitialType("_GET"), Label: "$_GET@0", Lat: r.AI.Lat}
	if got := c.String(); got != "tainted<$_GET@0>" {
		t.Fatalf("initial const string = %q", got)
	}
}

func TestStopRenamed(t *testing.T) {
	r := buildRenamed(t, `<?php $x = 1; exit; $y = 2;`)
	found := false
	for _, c := range r.Cmds {
		if _, ok := c.(*Stop); ok {
			found = true
		}
	}
	if !found {
		t.Fatalf("stop lost in renaming:\n%s", r)
	}
	if !strings.Contains(r.String(), "stop;") {
		t.Fatalf("stop missing from rendering")
	}
}
