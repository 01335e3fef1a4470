package constraint

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"webssari/internal/flow"
	"webssari/internal/prelude"
	"webssari/internal/rename"
)

// buildSys builds the constraint system for a PHP source.
func buildSys(t *testing.T, src string) *System {
	t.Helper()
	prog, errs := flow.BuildSource("t.php", []byte(src), flow.Options{Prelude: prelude.Default()})
	for _, err := range errs {
		t.Fatalf("build: %v", err)
	}
	return Build(rename.Rename(prog))
}

func TestGuardConstructors(t *testing.T) {
	b0 := Branch{ID: 0}
	nb0 := Branch{ID: 0, Neg: true}

	if MkAnd().String() != "true" {
		t.Errorf("empty MkAnd = %v", MkAnd())
	}
	if MkOr().String() != "false" {
		t.Errorf("empty MkOr = %v", MkOr())
	}
	if got := MkAnd(True{}, b0).String(); got != "b0" {
		t.Errorf("And(true,b0) = %q", got)
	}
	if got := MkAnd(False{}, b0).String(); got != "false" {
		t.Errorf("And(false,b0) = %q", got)
	}
	if got := MkOr(True{}, b0).String(); got != "true" {
		t.Errorf("Or(true,b0) = %q", got)
	}
	if got := MkOr(False{}, nb0).String(); got != "¬b0" {
		t.Errorf("Or(false,¬b0) = %q", got)
	}
	// Nested junctions flatten.
	g := MkAnd(b0, MkAnd(Branch{ID: 1}, Branch{ID: 2}))
	if and, ok := g.(And); !ok || len(and.Parts) != 3 {
		t.Errorf("nested And not flattened: %v", g)
	}
	g = MkOr(b0, MkOr(Branch{ID: 1}, Branch{ID: 2}))
	if or, ok := g.(Or); !ok || len(or.Parts) != 3 {
		t.Errorf("nested Or not flattened: %v", g)
	}
}

func TestEvalBool(t *testing.T) {
	b0, b1 := Branch{ID: 0}, Branch{ID: 1}
	env := map[int]bool{0: true, 1: false}
	cases := []struct {
		g    Bool
		want bool
	}{
		{True{}, true},
		{False{}, false},
		{b0, true},
		{b1, false},
		{Branch{ID: 1, Neg: true}, true},
		{MkAnd(b0, b1), false},
		{MkAnd(b0, Branch{ID: 1, Neg: true}), true},
		{MkOr(b1, b0), true},
		{MkOr(b1, False{}), false},
		{Branch{ID: 9}, false}, // unassigned branches default to not-taken
	}
	for i, c := range cases {
		if got := EvalBool(c.g, env); got != c.want {
			t.Errorf("case %d: EvalBool(%v) = %v, want %v", i, c.g, got, c.want)
		}
	}
}

func TestStraightLineGuardsAreTrue(t *testing.T) {
	sys := buildSys(t, `<?php $x = $_GET['a']; $y = $x; echo $y;`)
	if len(sys.Equations) != 2 || len(sys.Checks) != 1 {
		t.Fatalf("shape = %d eq / %d checks", len(sys.Equations), len(sys.Checks))
	}
	for _, eq := range sys.Equations {
		if _, ok := eq.Guard.(True); !ok {
			t.Errorf("equation %v: guard %v, want true", eq.V, eq.Guard)
		}
	}
	if _, ok := sys.Checks[0].Guard.(True); !ok {
		t.Errorf("check guard %v, want true", sys.Checks[0].Guard)
	}
}

func TestBranchGuards(t *testing.T) {
	sys := buildSys(t, `<?php
if ($c) { $x = $_GET['a']; } else { $x = 'ok'; }
echo $x;`)
	if len(sys.Equations) != 2 {
		t.Fatalf("equations = %d", len(sys.Equations))
	}
	if got := sys.Equations[0].Guard.String(); got != "b0" {
		t.Errorf("then guard = %q", got)
	}
	if got := sys.Equations[1].Guard.String(); got != "¬b0" {
		t.Errorf("else guard = %q", got)
	}
	// The equation chain: x@2 = ¬b0 ? ok : x@1.
	if sys.Equations[1].V != (rename.SSAVar{Name: "x", Idx: 2}) {
		t.Errorf("second target = %v", sys.Equations[1].V)
	}
	if sys.Equations[1].Prev != (rename.SSAVar{Name: "x", Idx: 1}) {
		t.Errorf("second prev = %v", sys.Equations[1].Prev)
	}
}

func TestNestedBranchGuards(t *testing.T) {
	sys := buildSys(t, `<?php
if ($a) { if ($b) { $x = 1; } }
echo $x;`)
	if len(sys.Equations) != 1 {
		t.Fatalf("equations = %d", len(sys.Equations))
	}
	if got := sys.Equations[0].Guard.String(); got != "(b0 ∧ b1)" {
		t.Errorf("nested guard = %q", got)
	}
}

func TestStopRefinesContinuationGuard(t *testing.T) {
	sys := buildSys(t, `<?php
$x = $_GET['a'];
if ($c) { exit; }
echo $x;`)
	if len(sys.Checks) != 1 {
		t.Fatalf("checks = %d", len(sys.Checks))
	}
	// After "if b0 { stop }", the remainder runs under ¬b0.
	got := sys.Checks[0].Guard.String()
	if !strings.Contains(got, "¬b0") {
		t.Errorf("post-stop guard = %q, want mention of ¬b0", got)
	}
}

func TestUnconditionalStopKillsGuard(t *testing.T) {
	sys := buildSys(t, `<?php
$x = $_GET['a'];
exit;
echo $x;`)
	if len(sys.Checks) != 1 {
		t.Fatalf("checks = %d", len(sys.Checks))
	}
	if _, ok := sys.Checks[0].Guard.(False); !ok {
		t.Errorf("guard after unconditional stop = %v, want false", sys.Checks[0].Guard)
	}
}

func TestStopInBothArms(t *testing.T) {
	sys := buildSys(t, `<?php
if ($c) { exit; } else { exit; }
echo $_GET['x'];`)
	if _, ok := sys.Checks[0].Guard.(False); !ok {
		t.Errorf("guard = %v, want false (both arms stop)", sys.Checks[0].Guard)
	}
}

func TestStopFreeArmsKeepSimpleGuard(t *testing.T) {
	// No stops anywhere: continuation guards must simplify back to the
	// enclosing guard, not balloon into (g∧b)∨(g∧¬b) disjunctions.
	sys := buildSys(t, `<?php
if ($a) { $x = 1; } else { $x = 2; }
if ($b) { $y = 3; }
echo $_GET['q'];`)
	if got := sys.Checks[0].Guard.String(); got != "true" {
		t.Errorf("check guard = %q, want true", got)
	}
}

func TestPrefixBranchesIncludesEmptyArms(t *testing.T) {
	sys := buildSys(t, `<?php
if ($pad) { }
echo $_GET['x'];
if ($after) { }`)
	ids := sys.PrefixBranches(sys.Checks[0])
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("prefix branches = %v, want [0] (empty if before, not after)", ids)
	}
}

func TestChecksCarryPrefix(t *testing.T) {
	sys := buildSys(t, `<?php
$a = 1;
echo $_GET['x'];
$b = 2;
echo $_GET['y'];`)
	if sys.Checks[0].Prefix != 1 || sys.Checks[1].Prefix != 2 {
		t.Fatalf("prefixes = %d,%d want 1,2", sys.Checks[0].Prefix, sys.Checks[1].Prefix)
	}
	if sys.Checks[0].ID != 0 || sys.Checks[1].ID != 1 {
		t.Fatalf("IDs = %d,%d", sys.Checks[0].ID, sys.Checks[1].ID)
	}
}

func TestSystemString(t *testing.T) {
	sys := buildSys(t, `<?php if ($c) { $x = $_GET['a']; } echo $x;`)
	s := sys.String()
	for _, frag := range []string{"t(x@1) = b0 ? t(_GET@0) : t(x@0)", "assert_0"} {
		if !strings.Contains(s, frag) {
			t.Errorf("system dump missing %q:\n%s", frag, s)
		}
	}
}

// TestGuardAlgebraQuick checks MkAnd/MkOr against direct evaluation under
// random environments.
func TestGuardAlgebraQuick(t *testing.T) {
	genGuard := func(r *rand.Rand, depth int) Bool {
		var g func(depth int) Bool
		g = func(depth int) Bool {
			if depth == 0 {
				switch r.Intn(4) {
				case 0:
					return True{}
				case 1:
					return False{}
				default:
					return Branch{ID: r.Intn(4), Neg: r.Intn(2) == 0}
				}
			}
			a, b := g(depth-1), g(depth-1)
			if r.Intn(2) == 0 {
				return MkAnd(a, b)
			}
			return MkOr(a, b)
		}
		return g(depth)
	}
	property := func(seed int64, envBits uint8) bool {
		r := rand.New(rand.NewSource(seed))
		env := map[int]bool{}
		for i := 0; i < 4; i++ {
			env[i] = envBits&(1<<uint(i)) != 0
		}
		a := genGuard(r, 3)
		b := genGuard(r, 3)
		// MkAnd/MkOr must agree with pointwise semantics.
		if EvalBool(MkAnd(a, b), env) != (EvalBool(a, env) && EvalBool(b, env)) {
			return false
		}
		if EvalBool(MkOr(a, b), env) != (EvalBool(a, env) || EvalBool(b, env)) {
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
