package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"webssari/internal/ai"
	"webssari/internal/php/token"
	"webssari/internal/rename"
)

// fmtCounterexampleKey is the fmt-based formula the counterexample key
// was first written with. Key must reproduce its bytes exactly: reports
// order traces lexicographically over them.
func fmtCounterexampleKey(c *Counterexample) string {
	ids := make([]int, 0, len(c.Branches))
	for id := range c.Branches {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	key := fmt.Sprintf("%s|%s|", c.Assert.Origin.Site, c.Assert.Origin.Fn)
	for _, id := range ids {
		if c.Branches[id] {
			key += fmt.Sprintf("+%d", id)
		} else {
			key += fmt.Sprintf("-%d", id)
		}
	}
	return key
}

// literalCounterexamples builds counterexamples by hand, so they carry no
// stored key: sites with and without a file, and branch IDs crossing
// 9/10 and 99/100.
func literalCounterexamples() []*Counterexample {
	sites := []token.Pos{
		{File: "dir/a.php", Line: 12, Col: 3, Offset: 200},
		{Line: 7, Col: 1},
		{},
	}
	branchSets := []map[int]bool{
		nil,
		{0: true},
		{9: true, 10: false},
		{8: false, 9: true, 10: true, 11: false},
		{99: true, 100: false, 101: true},
		{1: true, 10: true, 100: true},
	}
	var out []*Counterexample
	for _, pos := range sites {
		for _, fn := range []string{"echo", "mysql_query"} {
			a := &rename.Assert{Origin: &ai.Assert{Fn: fn, Site: ai.Site{Pos: pos}}}
			for _, br := range branchSets {
				out = append(out, &Counterexample{Assert: a, Branches: br})
			}
		}
	}
	return out
}

const branchySource = `<?php
$r = $_GET['q'];
switch ($_GET['op']) {
case 'a': $r = $r . 'a'; break;
case 'b': $r = $r . 'b'; break;
case 'c': $r = $r . 'c'; break;
case 'd': $r = $r . 'd'; break;
case 'e': $r = $r . 'e'; break;
case 'f': $r = $r . 'f'; break;
case 'g': $r = $r . 'g'; break;
case 'h': $r = $r . 'h'; break;
case 'i': $r = $r . 'i'; break;
case 'j': $r = htmlspecialchars($r); break;
case 'k': $r = $r . 'k'; break;
}
if ($c == 1) {
    $r = $r . '-';
} else {
    $r = htmlspecialchars($r);
}
echo $r;
mysql_query("SELECT v FROM t WHERE k='" . $r . "'");
`

func TestCounterexampleKeyEquivalence(t *testing.T) {
	for _, c := range literalCounterexamples() {
		if got, want := c.Key(), fmtCounterexampleKey(c); got != want {
			t.Errorf("literal Key() = %q, fmt formula %q", got, want)
		}
	}
	cexs := verify(t, branchySource).Counterexamples()
	if len(cexs) < 20 {
		t.Fatalf("%d counterexamples, want the switch's paths through branch 10", len(cexs))
	}
	for _, c := range cexs {
		if got, want := c.Key(), fmtCounterexampleKey(c); got != want {
			t.Errorf("solved Key() = %q, fmt formula %q", got, want)
		}
	}
}

// TestCounterexampleKeyEquivalenceOrder pins the canonical order: plain
// byte order over the key, so a decision on branch 10 sorts before one
// on branch 9.
func TestCounterexampleKeyEquivalenceOrder(t *testing.T) {
	a := &rename.Assert{Origin: &ai.Assert{Fn: "echo", Site: ai.Site{Pos: token.Pos{File: "a.php", Line: 1, Col: 1}}}}
	ar := &AssertResult{Counterexamples: []*Counterexample{
		{Assert: a, Branches: map[int]bool{0: true, 9: true}},
		{Assert: a, Branches: map[int]bool{0: true, 10: true}},
		{Assert: a, Branches: map[int]bool{0: false, 99: true}},
		{Assert: a, Branches: map[int]bool{0: false, 100: true}},
	}}
	sortCounterexamples(ar)
	var got []string
	for _, c := range ar.Counterexamples {
		got = append(got, c.Key())
	}
	want := []string{"a.php:1:1|echo|+0+10", "a.php:1:1|echo|+0+9", "a.php:1:1|echo|-0+100", "a.php:1:1|echo|-0+99"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("canonical order %q, want %q", got, want)
	}
}

var keySink string

func TestCounterexampleKeyAllocs(t *testing.T) {
	res := verify(t, branchySource)
	cexs := res.Counterexamples()
	if len(cexs) == 0 {
		t.Fatal("no counterexamples")
	}
	c := cexs[len(cexs)-1]
	if n := testing.AllocsPerRun(100, func() { keySink = c.Key() }); n != 0 {
		t.Errorf("Key() on a solved counterexample allocates %v times per call, want 0", n)
	}
}

// TestCounterexampleKeyEquivalenceConcurrent reads keys from one shared
// Result on several goroutines; run under -race it shows that Key writes
// nothing, for stored and computed keys alike.
func TestCounterexampleKeyEquivalenceConcurrent(t *testing.T) {
	res := verify(t, branchySource)
	res.PerAssert = append(res.PerAssert, &AssertResult{Counterexamples: literalCounterexamples()})
	cexs := res.Counterexamples()
	want := make([]string, len(cexs))
	for i, c := range cexs {
		want[i] = fmtCounterexampleKey(c)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range res.Counterexamples() {
				if got := c.Key(); got != want[i] {
					t.Errorf("concurrent Key() = %q, want %q", got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
