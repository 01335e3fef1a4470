package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webssari/internal/ai"
	"webssari/internal/cnf"
	"webssari/internal/flow"
	"webssari/internal/lattice"
	"webssari/internal/prelude"
	"webssari/internal/rename"
)

// TestCounterexampleDecisionsCanonical checks the decisions the replay
// records, over the random programs of TestRandomProgramsAgainstOracle
// and the branchy fixtures: every counterexample's Branches ascend
// strictly by branch ID, Key is ai.TraceKey over the same decisions as a
// map, and the keys are exactly the exhaustive oracle's.
func TestCounterexampleDecisionsCanonical(t *testing.T) {
	var results []*Result
	r := rand.New(rand.NewSource(2024))
	for i := 0; i < 120; i++ {
		results = append(results, verify(t, randomProgram(r)))
	}
	paths, err := filepath.Glob("../../testdata/branchy/*.php")
	if err != nil || len(paths) == 0 {
		t.Fatalf("branchy fixtures: %v (%d found)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, verify(t, string(src)))
	}

	checked := 0
	for _, res := range results {
		if res.AI.Branches > 16 {
			continue // keep the oracle cheap
		}
		for _, c := range res.Counterexamples() {
			m := make(map[int]bool, len(c.Branches))
			for i, d := range c.Branches {
				if i > 0 && d.ID <= c.Branches[i-1].ID {
					t.Fatalf("%s: decisions %v do not ascend strictly", c.Key(), c.Branches)
				}
				m[d.ID] = d.Taken
			}
			if got, want := c.Key(), ai.TraceKey(c.Assert.Origin, m); got != want {
				t.Errorf("Key() = %q, ai.TraceKey %q", got, want)
			}
			checked++
		}
		if got, want := cexKeys(res), oracleKeys(res); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: BMC keys %v, oracle %v", res.AI.File, got, want)
		}
	}
	if checked < 300 {
		t.Fatalf("only %d counterexamples checked", checked)
	}
}

// TestReplayNormalisesDecisionOrder replays a hand-built program whose
// walk meets branch 7 before branch 3, and branch 3 twice: the
// counterexample's decisions still ascend strictly, one per branch, and
// its key is ai.TraceKey's.
func TestReplayNormalisesDecisionOrder(t *testing.T) {
	lat := lattice.Taint()
	target := &rename.Assert{
		Args:   []rename.Arg{{Expr: rename.Ref{V: rename.SSAVar{Name: "x"}}, ArgPos: 1}},
		Bound:  lat.Top(),
		Origin: &ai.Assert{Fn: "echo"},
	}
	p := &rename.Program{
		AI: &ai.Program{Lat: lat, InitialTypes: map[string]lattice.Elem{"x": lat.Top()}},
		Cmds: []rename.Cmd{
			&rename.If{ID: 7},
			&rename.If{ID: 3, Then: []rename.Cmd{&rename.If{ID: 3}}},
			&rename.If{ID: 5}, // no variable: reads as not taken
			target,
		},
	}
	rp := newReplayer(p, target, &cnf.Encoded{BranchVars: map[int]int{7: 1, 3: 2}})
	if !rp.replay([]bool{false, true, true}) {
		t.Fatal("the assertion does not fail on the replayed path")
	}
	c := rp.counterexample()
	want := []Decision{{ID: 3, Taken: true}, {ID: 5, Taken: false}, {ID: 7, Taken: true}}
	if fmt.Sprint(c.Branches) != fmt.Sprint(want) {
		t.Errorf("decisions %v, want %v", c.Branches, want)
	}
	if got, want := c.Key(), ai.TraceKey(target.Origin, map[int]bool{3: true, 5: false, 7: true}); got != want {
		t.Errorf("Key() = %q, ai.TraceKey %q", got, want)
	}
}

// maxAllocsPerCounterexample bounds what one enumerated trace costs in
// allocations: the SAT call's learned clauses, the stored blocking
// clause, and the counterexample itself, copied out of the replay's
// scratch. It measures 11.2 (27.3 when every replay built its own maps
// and the solver copied each clause three times); the bound leaves
// headroom for a change of the search.
const maxAllocsPerCounterexample = 14

// TestEnumerationAllocs bounds the allocations per counterexample of
// one assertion with 8 free conditionals, 256 traces, solved from a
// compiled Program: the per-assertion costs (encoding, solver set-up)
// are shared out over the traces.
func TestEnumerationAllocs(t *testing.T) {
	var b strings.Builder
	b.WriteString("<?php\n$x = $_GET['q'];\n")
	for i := 0; i < 8; i++ {
		b.WriteString("if ($c" + string(rune('0'+i)) + ") { $x = $x . 'a'; }\n")
	}
	b.WriteString("echo $x;\n")
	opts := Options{Flow: flow.Options{Prelude: prelude.Default()}}
	p, _, errs := Compile("enum.php", []byte(b.String()), opts)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	var res *Result
	allocs := testing.AllocsPerRun(5, func() { res = Solve(context.Background(), p, opts) })
	n := len(res.Counterexamples())
	if n != 256 {
		t.Fatalf("%d counterexamples, want 256", n)
	}
	per := allocs / float64(n)
	t.Logf("%.0f allocations per solve, %.2f per counterexample", allocs, per)
	if per > maxAllocsPerCounterexample {
		t.Errorf("%.2f allocations per counterexample, want at most %d", per, maxAllocsPerCounterexample)
	}
}
