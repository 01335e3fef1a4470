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
	ds := append([]Decision(nil), c.Branches...)
	sort.Slice(ds, func(i, j int) bool { return ds[i].ID < ds[j].ID })
	key := fmt.Sprintf("%s|%s|", c.Assert.Origin.Site, c.Assert.Origin.Fn)
	for _, d := range ds {
		if d.Taken {
			key += fmt.Sprintf("+%d", d.ID)
		} else {
			key += fmt.Sprintf("-%d", d.ID)
		}
	}
	return key
}

// decisions lists a branch map's decisions ascending by branch ID, the
// order Counterexample.Branches keeps.
func decisions(branches map[int]bool) []Decision {
	var out []Decision
	for id, taken := range branches {
		out = append(out, Decision{ID: id, Taken: taken})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// branchTaken reports the counterexample's decision on branch id, and
// whether the trace decided it at all.
func branchTaken(c *Counterexample, id int) (taken, decided bool) {
	for _, d := range c.Branches {
		if d.ID == id {
			return d.Taken, true
		}
	}
	return false, false
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
				out = append(out, &Counterexample{Assert: a, Branches: decisions(br)})
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
		{Assert: a, Branches: decisions(map[int]bool{0: true, 9: true})},
		{Assert: a, Branches: decisions(map[int]bool{0: true, 10: true})},
		{Assert: a, Branches: decisions(map[int]bool{0: false, 99: true})},
		{Assert: a, Branches: decisions(map[int]bool{0: false, 100: true})},
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
