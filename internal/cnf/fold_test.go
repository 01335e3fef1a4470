package cnf

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"webssari/internal/constraint"
	"webssari/internal/flow"
	"webssari/internal/prelude"
	"webssari/internal/rename"
	"webssari/internal/sat"
)

// unfolded returns a copy of sys with the fold emptied: no folded
// variables and every equation dynamic, so encoding it visits the whole
// prefix of every check. It is the oracle the fold is compared against.
func unfolded(sys *constraint.System) *constraint.System {
	cp := *sys
	cp.Folded = nil
	cp.Dynamic = make([]int, len(sys.Equations))
	for i := range cp.Dynamic {
		cp.Dynamic[i] = i
	}
	return &cp
}

// foldOptions are the encodings the differential compares: without and
// with the paper's incremental restriction, and under ceilings small
// enough to trip part-way through an encoding.
var foldOptions = []Options{
	{},
	{AssumePriorAsserts: true},
	{MaxVars: 1}, {MaxVars: 3}, {MaxVars: 8}, {MaxVars: 20}, {MaxVars: 64},
	{MaxClauses: 1}, {MaxClauses: 4}, {MaxClauses: 16}, {MaxClauses: 64},
	{AssumePriorAsserts: true, MaxVars: 12, MaxClauses: 40},
}

// requireFoldMatches fails unless every check of sys encodes exactly as
// it does with the fold emptied: the same DIMACS text, branch map,
// Trivial and ceiling error.
func requireFoldMatches(t *testing.T, sys *constraint.System, src string) {
	t.Helper()
	oracle := unfolded(sys)
	for _, opts := range foldOptions {
		for i := range sys.Checks {
			got, gerr := EncodeCheck(sys, i, opts)
			want, werr := EncodeCheck(oracle, i, opts)
			if !sameLimit(gerr, werr) {
				t.Fatalf("check %d %+v: error %v, unfolded %v\nsrc:\n%s", i, opts, gerr, werr, src)
			}
			if gerr != nil {
				continue
			}
			if !bytes.Equal(dimacs(t, got.F), dimacs(t, want.F)) || got.Trivial != want.Trivial ||
				!reflect.DeepEqual(got.BranchVars, want.BranchVars) {
				t.Fatalf("check %d %+v: encoding differs from the unfolded one\nsrc:\n%s", i, opts, src)
			}
		}
	}
}

func sameLimit(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var la, lb *LimitError
	return errors.As(a, &la) && errors.As(b, &lb) && *la == *lb
}

func dimacs(t *testing.T, f *sat.CNF) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := f.WriteDIMACS(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFoldRules pins which equations fold, one case per rule, and that
// each program encodes exactly as it does unfolded. dynamic lists the
// variables whose equations must stay dynamic; every other equation
// folds.
func TestFoldRules(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		dynamic []string
	}{
		{"true guard, constant RHS", `<?php $x = $_GET['a']; $y = $x; echo $y;`, nil},
		{"false guard, constant RHS and previous", `<?php exit; $x = $_GET['a']; echo $x;`, nil},
		{"false guard, dynamic previous", `<?php if ($c) { $x = $_GET['a']; } exit; $x = 'k'; echo $x;`,
			[]string{"x@1", "x@2"}},
		{"false guard, RHS joins dynamic parts",
			`<?php if ($c) { $y = $_GET['a']; $w = $_POST['b']; } exit; $x = $y . $w; echo $x;`,
			[]string{"y@1", "w@1", "x@1"}},
		{"branch guard, RHS equals previous", `<?php if ($c) { $x = 'k'; } echo $x;`, nil},
		{"branch guard, RHS differs from previous", `<?php if ($c) { $x = $_GET['a']; } echo $x;`,
			[]string{"x@1"}},
		{"and guard", `<?php if ($a) { if ($b) { $x = 'k'; } } echo $x;`, []string{"x@1"}},
		{"or guard", `<?php if ($a) { if ($b) { exit; } } $x = 'k'; echo $x;`, []string{"x@1"}},
		{"top absorbs a dynamic part", `<?php if ($c) { $y = $_GET['a']; } $x = $_GET['b'] . $y; echo $x;`,
			[]string{"y@1", "x@1"}},
		{"read of a dynamic variable", `<?php if ($c) { $y = $_GET['a']; } $x = $y; echo $x;`,
			[]string{"y@1", "x@1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := buildSys(t, tc.src, nil)
			var dynamic []string
			for _, i := range sys.Dynamic {
				dynamic = append(dynamic, sys.Equations[i].V.String())
			}
			if !slices.Equal(dynamic, tc.dynamic) {
				t.Fatalf("dynamic equations %v, want %v\n%s", dynamic, tc.dynamic, sys)
			}
			if len(sys.Folded)+len(sys.Dynamic) != len(sys.Equations) {
				t.Fatalf("%d folded + %d dynamic != %d equations", len(sys.Folded), len(sys.Dynamic), len(sys.Equations))
			}
			requireFoldMatches(t, sys, tc.src)
		})
	}
}

// TestFoldedReadOutsidePrefix: a check that reads a folded variable whose
// equation lies after the check's prefix reads the variable's initial
// type, as it did when the encoder only knew the prefix's equations. The
// renamer produces no such read, so the test rewires a check to one.
func TestFoldedReadOutsidePrefix(t *testing.T) {
	src := `<?php echo 'k'; $x = $_GET['a'];`
	sys := buildSys(t, src, nil)
	x1 := rename.SSAVar{Name: "x", Idx: 1}
	if f, ok := sys.Folded[x1]; !ok || f.Eq != 0 || sys.Checks[0].Prefix != 0 {
		t.Fatalf("want x@1 folded at equation 0 after check 0's prefix: %v\n%s", sys.Folded, sys)
	}
	assert := *sys.Checks[0].Origin
	assert.Args = []rename.Arg{{Expr: rename.Ref{V: x1}}}
	sys.Checks[0].Origin = &assert
	enc, err := EncodeCheck(sys, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Trivial != TrivialUnsat {
		t.Fatal("x@1 read outside the prefix should read its untainted initial type")
	}
	requireFoldMatches(t, sys, src)
}

// TestFoldMatchesUnfoldedRandom runs the differential over random
// branchy programs with conditional stops.
func TestFoldMatchesUnfoldedRandom(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for iter := 0; iter < 150; iter++ {
		src := randomSrc(r)
		requireFoldMatches(t, buildSys(t, src, nil), src)
	}
}

// FuzzFoldMatchesUnfolded: for any input that compiles, encoding with
// the fold equals encoding with it emptied. Seeded from FuzzVerify's
// corpus plus one program per fold rule.
func FuzzFoldMatchesUnfolded(f *testing.F) {
	for _, seed := range []string{
		`<?php echo $_GET['x'];`,
		`<?php $x = $_POST['a']; if ($x) { $x = htmlspecialchars($x); } echo $x;`,
		`<?php include 'lib.php'; mysql_query("SELECT $q");`,
		`<?php function f($a) { return $a; } echo f($_GET['x']);`,
		`<?php while ($i < 3) { $i = $i + 1; echo htmlspecialchars($s); }`,
		`<?php $x = ; } } if (`,
		"<?php\x00$x=$_GET[1];echo $x;",
		`no php here at all`,
		`<?php $$v = $_GET['x']; echo $$v;`,
		`<?php eval($_REQUEST['c']); exit;`,
		`<?php if ($c) { $x = $_GET['a']; } exit; $x = 'k'; echo $x;`,
		`<?php if ($a) { if ($b) { exit; } } $x = 'k'; echo $x;`,
		`<?php if ($c) { $y = $_GET['a']; } $x = $_GET['b'] . $y; echo $x;`,
	} {
		f.Add([]byte(seed))
	}
	pre := prelude.Default()
	f.Fuzz(func(t *testing.T, src []byte) {
		prog, _ := flow.BuildSource("fuzz.php", src, flow.Options{Prelude: pre, MaxCmds: 2000})
		if prog == nil {
			return
		}
		requireFoldMatches(t, constraint.Build(rename.Rename(prog)), string(src))
	})
}
