package cnf

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"webssari/internal/ai"
	"webssari/internal/constraint"
	"webssari/internal/flow"
	"webssari/internal/prelude"
	"webssari/internal/rename"
	"webssari/internal/sat"
)

func buildSys(t *testing.T, src string, pre *prelude.Prelude) *constraint.System {
	t.Helper()
	if pre == nil {
		pre = prelude.Default()
	}
	prog, errs := flow.BuildSource("t.php", []byte(src), flow.Options{Prelude: pre})
	for _, err := range errs {
		t.Fatalf("build: %v", err)
	}
	return constraint.Build(rename.Rename(prog))
}

func TestConstantViolationNeedsNoSearch(t *testing.T) {
	sys := buildSys(t, `<?php echo $_GET['x'];`, nil)
	enc, err := EncodeCheck(sys, 0, Options{})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// The arg is the constant-tainted _GET@0: the formula is vacuously
	// satisfiable (zero clauses needed beyond the empty conjunction).
	if enc.Trivial == TrivialUnsat {
		t.Fatalf("constant violation misclassified as unsat")
	}
	res, _ := solve(enc.F)
	if res != sat.Sat {
		t.Fatalf("B_0 should be satisfiable")
	}
}

func TestConstantSafeIsTrivialUnsat(t *testing.T) {
	sys := buildSys(t, `<?php echo 'hello';`, nil)
	enc, err := EncodeCheck(sys, 0, Options{})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if enc.Trivial != TrivialUnsat {
		t.Fatalf("constant-safe assertion should encode as trivially unsat")
	}
}

func TestUnreachableAssertTrivialUnsat(t *testing.T) {
	sys := buildSys(t, `<?php exit; echo $_GET['x'];`, nil)
	enc, err := EncodeCheck(sys, 0, Options{})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if enc.Trivial != TrivialUnsat {
		t.Fatalf("dead assertion should be trivially unsat")
	}
}

func TestBranchDependentSatisfiability(t *testing.T) {
	sys := buildSys(t, `<?php
$x = 'safe';
if ($c) { $x = $_GET['a']; }
echo $x;`, nil)
	enc, err := EncodeCheck(sys, 0, Options{})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	res, model := solve(enc.F)
	if res != sat.Sat {
		t.Fatalf("violation exists when c holds")
	}
	branches := enc.DecodeBranches(model)
	if !branches[0] {
		t.Fatalf("model must take branch 0: %v", branches)
	}
	// Blocking the only violating assignment makes B_i unsat.
	s := sat.New()
	enc.F.LoadInto(s)
	if s.Solve() != sat.Sat {
		t.Fatalf("reload should stay sat")
	}
	if s.AddClause(enc.BlockingClause(s.Model(), nil)...) {
		if s.Solve() != sat.Unsat {
			t.Fatalf("after blocking the single trace, B_0 must be unsat")
		}
	}
}

func TestEncodeCheckIndexValidation(t *testing.T) {
	sys := buildSys(t, `<?php echo $_GET['x'];`, nil)
	if _, err := EncodeCheck(sys, 7, Options{}); err == nil {
		t.Fatalf("out-of-range check index accepted")
	}
	if _, err := EncodeCheck(sys, -1, Options{}); err == nil {
		t.Fatalf("negative check index accepted")
	}
}

func TestAssumePriorAssertsRestricts(t *testing.T) {
	// assert0 fails only when c; assert1 fails only when c. Assuming
	// assert0 holds forbids c, so assert1 becomes unsatisfiable.
	sys := buildSys(t, `<?php
$x = 'ok';
if ($c) { $x = $_GET['a']; }
echo $x;
echo $x;`, nil)
	encFree, err := EncodeCheck(sys, 1, Options{})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	res, _ := solve(encFree.F)
	if res != sat.Sat {
		t.Fatalf("without restriction assert1 must be violable")
	}
	encRestr, err := EncodeCheck(sys, 1, Options{AssumePriorAsserts: true})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if encRestr.Trivial != TrivialUnsat {
		res, _ := solve(encRestr.F)
		if res != sat.Unsat {
			t.Fatalf("with restriction assert1 must be unsat")
		}
	}
}

// TestThreeLevelLattice exercises the one-hot encoding beyond the taint
// lattice: a public < internal < secret chain where the "publish" sink
// requires strictly-below-internal (i.e. public) data and the "intranet"
// sink requires strictly-below-secret.
func TestThreeLevelLattice(t *testing.T) {
	pre, err := prelude.Parse("t", []byte(`
lattice chain public internal secret
var _GET secret
source read_internal internal
sink publish internal *
sink intranet secret *
sanitizer declassify public
`))
	if err != nil {
		t.Fatalf("prelude: %v", err)
	}

	cases := []struct {
		src  string
		want []bool // per assert: violable?
	}{
		// internal data: publish violated (internal ≮ internal),
		// intranet fine (internal < secret).
		{`<?php $x = read_internal(); publish($x); intranet($x);`, []bool{true, false}},
		// secret data violates both.
		{`<?php $x = $_GET['k']; publish($x); intranet($x);`, []bool{true, true}},
		// declassified data passes both.
		{`<?php $x = declassify($_GET['k']); publish($x); intranet($x);`, []bool{false, false}},
		// join(internal, secret) = secret: both violated.
		{`<?php $x = read_internal() . $_GET['k']; publish($x); intranet($x);`, []bool{true, true}},
	}
	for i, c := range cases {
		sys := buildSys(t, c.src, pre)
		if len(sys.Checks) != len(c.want) {
			t.Fatalf("case %d: %d checks, want %d", i, len(sys.Checks), len(c.want))
		}
		for j, want := range c.want {
			enc, err := EncodeCheck(sys, j, Options{})
			if err != nil {
				t.Fatalf("case %d encode %d: %v", i, j, err)
			}
			got := false
			if enc.Trivial != TrivialUnsat {
				res, _ := solve(enc.F)
				got = res == sat.Sat
			}
			if got != want {
				t.Errorf("case %d assert %d: violable=%v, want %v", i, j, got, want)
			}
		}
	}
}

// TestEncodingMatchesEvaluatorQuick is the equisatisfiability property:
// for random programs and each assertion, CNF(B_i) is satisfiable iff the
// exhaustive evaluator finds a violating branch resolution.
func TestEncodingMatchesEvaluatorQuick(t *testing.T) {
	r := rand.New(rand.NewSource(808))
	pre := prelude.Default()
	for iter := 0; iter < 120; iter++ {
		src := randomSrc(r)
		prog, errs := flow.BuildSource("t.php", []byte(src), flow.Options{Prelude: pre})
		if len(errs) != 0 {
			t.Fatalf("iter %d: %v", iter, errs)
		}
		if prog.Branches > 10 {
			continue
		}
		sys := constraint.Build(rename.Rename(prog))

		// Evaluator's view: which asserts have ≥1 violation.
		violable := make(map[*ai.Assert]bool)
		for _, v := range prog.ExhaustiveViolations() {
			violable[v.Assert] = true
		}

		for j := range sys.Checks {
			enc, err := EncodeCheck(sys, j, Options{})
			if err != nil {
				t.Fatalf("iter %d encode %d: %v", iter, j, err)
			}
			got := false
			if enc.Trivial != TrivialUnsat {
				res, _ := solve(enc.F)
				got = res == sat.Sat
			}
			want := violable[sys.Checks[j].Origin.Origin]
			if got != want {
				t.Fatalf("iter %d assert %d: encoded=%v evaluator=%v\nsrc:\n%s",
					iter, j, got, want, src)
			}
		}
	}
}

func randomSrc(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("<?php\n")
	vars := []string{"a", "b", "c"}
	rhs := []string{"$_GET['x']", "'lit'", "$a", "$b . $c", "htmlspecialchars($a)"}
	depth := 0
	for i, n := 0, 4+r.Intn(10); i < n; i++ {
		switch r.Intn(7) {
		case 0, 1:
			fmt.Fprintf(&b, "$%s = %s;\n", vars[r.Intn(len(vars))], rhs[r.Intn(len(rhs))])
		case 2:
			fmt.Fprintf(&b, "echo $%s;\n", vars[r.Intn(len(vars))])
		case 3:
			if depth < 2 {
				fmt.Fprintf(&b, "if ($k%d) {\n", i)
				depth++
			}
		case 4:
			if depth > 0 {
				b.WriteString("}\n")
				depth--
			}
		case 5:
			if depth > 0 && r.Intn(3) == 0 {
				b.WriteString("exit;\n")
			}
		default:
			fmt.Fprintf(&b, "mysql_query($%s);\n", vars[r.Intn(len(vars))])
		}
	}
	for depth > 0 {
		b.WriteString("}\n")
		depth--
	}
	return b.String()
}

func TestJoinOfTwoBranchDependentVars(t *testing.T) {
	// Both operands of the join are genuine one-hot vectors, exercising
	// the var×var clause set of encodeJoin.
	sys := buildSys(t, `<?php
if ($a) { $x = $_GET['p']; } else { $x = 'sx'; }
if ($b) { $y = $_POST['q']; } else { $y = 'sy'; }
echo $x . $y;`, nil)
	enc, err := EncodeCheck(sys, 0, Options{})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	res, model := solve(enc.F)
	if res != sat.Sat {
		t.Fatalf("must be violable")
	}
	br := enc.DecodeBranches(model)
	if !br[0] && !br[1] {
		t.Fatalf("some tainting branch must be taken: %v", br)
	}
}

func TestOrGuardFromConditionalStop(t *testing.T) {
	// The continuation guard after "if a { if c { exit; } ... } else ..."
	// is a disjunction, exercising the Or branch of the Tseitin encoder.
	sys := buildSys(t, `<?php
$x = $_GET['v'];
if ($a) {
    if ($c) { exit; }
    $x = 'safe';
} else {
    $n = 1;
}
echo $x;`, nil)
	found := false
	for _, ch := range sys.Checks {
		if _, isOr := ch.Guard.(constraint.Or); isOr {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an Or continuation guard:\n%s", sys)
	}
	enc, err := EncodeCheck(sys, 0, Options{})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	res, model := solve(enc.F)
	if res != sat.Sat {
		t.Fatalf("echo is violable when the sanitizing arm is skipped")
	}
	br := enc.DecodeBranches(model)
	// Violating model cannot have taken (a ∧ ¬c): that path sanitizes.
	if br[0] && !br[1] {
		t.Fatalf("model took the sanitizing path: %v", br)
	}
}

func TestGuardCacheReuse(t *testing.T) {
	// Many equations under the same nested guard share Tseitin variables;
	// the formula must stay small.
	sys := buildSys(t, `<?php
if ($a) { if ($b) {
    $v1 = 1; $v2 = 2; $v3 = 3; $v4 = 4; $v5 = 5;
    $x = $_GET['q'];
} }
echo $x;`, nil)
	enc, err := EncodeCheck(sys, 0, Options{})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// 2 branch vars + 1 shared AND var + one-hots for x (constant-folded
	// equations for v1..v5 cost nothing). Anything near 10 vars is fine;
	// a per-equation Tseitin would exceed it.
	if enc.F.NumVars > 12 {
		t.Fatalf("guard cache not shared: %d vars", enc.F.NumVars)
	}
}

func TestBlockingClauseRestriction(t *testing.T) {
	sys := buildSys(t, `<?php
if ($pad) { }
if ($a) { $x = $_GET['q']; }
echo $x;`, nil)
	enc, err := EncodeCheck(sys, 0, Options{})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	res, model := solve(enc.F)
	if res != sat.Sat {
		t.Fatalf("must be violable")
	}
	full := enc.BlockingClause(model, nil)
	if len(full) != 2 {
		t.Fatalf("full blocking = %d lits, want 2 (both branch vars)", len(full))
	}
	restricted := enc.BlockingClause(model, map[int]bool{1: true})
	if len(restricted) != 1 {
		t.Fatalf("restricted blocking = %d lits, want 1", len(restricted))
	}
}

// TestEncodeCheckCeilings holds each check's encoding to its ceilings
// exactly: a cap at the formula's size passes, and one variable or
// clause less trips it.
func TestEncodeCheckCeilings(t *testing.T) {
	sys := buildSys(t, `<?php
$a = $_GET['a'];
if ($m) { $a = htmlspecialchars($a); } else { $a = $a . 'x'; }
echo $a;
$b = $a . $_POST['b'];
if ($n) { echo $b; }
mysql_query($b);`, nil)
	for _, prior := range []bool{false, true} {
		for i := range sys.Checks {
			full, err := EncodeCheck(sys, i, Options{AssumePriorAsserts: prior})
			if err != nil {
				t.Fatal(err)
			}
			vars, clauses := full.F.NumVars, len(full.F.Clauses)
			type ceiling struct {
				opts Options
				trip string
			}
			cases := []ceiling{{Options{MaxVars: vars, MaxClauses: clauses}, ""}}
			// A cap of zero means no cap, so a one-element formula has
			// no smaller cap to trip.
			if vars > 1 {
				cases = append(cases, ceiling{Options{MaxVars: vars - 1}, "variables"})
			}
			if clauses > 1 {
				cases = append(cases, ceiling{Options{MaxClauses: clauses - 1}, "clauses"})
			}
			for _, tc := range cases {
				tc.opts.AssumePriorAsserts = prior
				enc, err := EncodeCheck(sys, i, tc.opts)
				var lim *LimitError
				errors.As(err, &lim)
				switch {
				case tc.trip == "" && (err != nil || enc.F.NumVars != vars):
					t.Errorf("check %d prior %v, %+v: %v; want the full %d-variable encoding", i, prior, tc.opts, err, vars)
				case tc.trip != "" && (lim == nil || lim.What != tc.trip || enc != nil):
					t.Errorf("check %d prior %v, %+v: err %v; want the %s ceiling", i, prior, tc.opts, err, tc.trip)
				}
			}
		}
	}
}

// solve loads f into a fresh solver and solves it, returning the result
// and, when Sat, the model.
func solve(f *sat.CNF) (sat.Result, []bool) {
	s := sat.New()
	if !f.LoadInto(s) {
		return sat.Unsat, nil
	}
	if res := s.Solve(); res != sat.Sat {
		return res, nil
	}
	return sat.Sat, s.Model()
}
