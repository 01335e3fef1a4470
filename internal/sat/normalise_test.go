package sat

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceNormalise is the clause simplification AddClause was first
// written with: copy, sort.Slice by variable then sign, then drop false
// and duplicate literals. It reports satisfied for a clause that is
// already true at level 0 or a tautology.
func referenceNormalise(s *Solver, lits []Lit) (out []Lit, satisfied bool) {
	sorted := append([]Lit(nil), lits...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Var() != sorted[j].Var() {
			return sorted[i].Var() < sorted[j].Var()
		}
		return sorted[i] < sorted[j]
	})
	var prev Lit
	for _, l := range sorted {
		switch {
		case s.value(l) == lTrue:
			return nil, true
		case s.value(l) == lFalse:
			continue
		case l == prev:
			continue
		case l == prev.Not() && prev != 0:
			return nil, true
		}
		out = append(out, l)
		prev = l
	}
	return out, false
}

// TestAddClauseNormalisation adds random clauses, with duplicates,
// tautologies and literals fixed at level 0, to solvers holding a few
// unit clauses, and checks that each stores what the sort.Slice
// reference gives: nothing for a satisfied clause, a unit on the trail,
// or the same literals in the same order.
func TestAddClauseNormalisation(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	const vars = 24
	stored := 0
	for iter := 0; iter < 3000; iter++ {
		s := New()
		for v := 1; v <= vars; v++ {
			s.NewVar()
		}
		// Fix a few variables at level 0.
		for _, v := range r.Perm(vars)[:r.Intn(5)] {
			s.AddClause(MkLit(v+1, r.Intn(2) == 0))
		}
		// One sign per variable, so repeats are duplicates; a quarter of
		// the clauses then get a complementary pair.
		neg := make([]bool, vars+1)
		for v := range neg {
			neg[v] = r.Intn(2) == 0
		}
		lits := make([]Lit, r.Intn(40))
		for i := range lits {
			v := 1 + r.Intn(vars)
			lits[i] = MkLit(v, neg[v])
		}
		if len(lits) > 0 && r.Intn(4) == 0 {
			lits = append(lits, lits[r.Intn(len(lits))].Not())
		}
		orig := slices.Clone(lits)
		want, satisfied := referenceNormalise(s, lits)
		clauses, trail := len(s.clauses), len(s.trail)

		ok := s.AddClause(lits...)
		if !slices.Equal(lits, orig) {
			t.Fatalf("AddClause reordered its argument: %v, was %v", lits, orig)
		}
		switch {
		case satisfied:
			if !ok || len(s.clauses) != clauses || len(s.trail) != trail {
				t.Fatalf("%v: satisfied clause stored something (ok=%v)", orig, ok)
			}
		case len(want) == 0:
			if ok {
				t.Fatalf("%v: falsified clause accepted", orig)
			}
		case len(want) == 1:
			if len(s.clauses) != clauses || len(s.trail) <= trail || s.trail[trail] != want[0] {
				t.Fatalf("%v: unit %v not enqueued first", orig, want[0])
			}
		default:
			if len(s.clauses) != clauses+1 {
				t.Fatalf("%v: clause %v not stored", orig, want)
			}
			if got := s.clauses[clauses].lits; !slices.Equal(got, want) {
				t.Fatalf("%v: stored %v, reference %v", orig, got, want)
			}
			stored++
		}
	}
	if stored < 1000 {
		t.Fatalf("only %d clauses stored", stored)
	}
}
