package fixing_test

import (
	"fmt"
	"testing"

	"webssari/internal/ai"
	"webssari/internal/fixing"
	"webssari/internal/php/token"
	"webssari/internal/rename"
)

// fmtFixKey is the fmt-based formula the fix-point key was first written
// with; Key must reproduce its bytes exactly.
func fmtFixKey(f *fixing.FixPoint) string {
	pos, end := f.Span()
	return fmt.Sprintf("%s+%d", pos, end)
}

func TestFixPointKeyEquivalence(t *testing.T) {
	withFile := token.Pos{File: "dir/a.php", Line: 10, Col: 9, Offset: 99}
	noFile := token.Pos{Line: 100, Col: 10, Offset: 1000}
	literals := []*fixing.FixPoint{
		{},
		{Set: &rename.Set{Origin: &ai.Set{RHSPos: withFile, RHSEnd: 100}}},
		{Set: &rename.Set{Origin: &ai.Set{RHSPos: noFile, RHSEnd: 1009}}},
		{Assert: &rename.Assert{Origin: &ai.Assert{Site: ai.Site{Pos: noFile, End: 9}}}},
		{Assert: &rename.Assert{Origin: &ai.Assert{
			Site: ai.Site{Pos: withFile, End: 10},
			Args: []ai.Arg{{ArgPos: 2, Pos: withFile, End: 99}},
		}}, ArgPos: 2},
	}
	for _, f := range literals {
		if got, want := f.Key(), fmtFixKey(f); got != want {
			t.Errorf("literal Key() = %q, fmt formula %q", got, want)
		}
	}
	_, a := setup(t, figure7(12)+`echo $_GET['x'];`)
	for _, con := range a.Constraints {
		for _, f := range con.Options {
			if got, want := f.Key(), fmtFixKey(f); got != want {
				t.Errorf("interned Key() = %q, fmt formula %q", got, want)
			}
		}
	}
}

var keySink string

func TestFixPointKeyAllocs(t *testing.T) {
	_, a := setup(t, figure7(4))
	if len(a.Constraints) == 0 || len(a.Constraints[0].Options) == 0 {
		t.Fatal("no fix points")
	}
	f := a.Constraints[0].Options[0]
	if n := testing.AllocsPerRun(100, func() { keySink = f.Key() }); n != 0 {
		t.Errorf("Key() on an interned fix point allocates %v times per call, want 0", n)
	}
}
