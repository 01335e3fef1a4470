package fixing

import (
	"sort"
)

// This file implements MINIMUM-INTERSECTING-SET (Definition 2 of the
// paper) as a standalone combinatorial problem, together with the two
// reductions of §3.3.4:
//
//   - VERTEX-COVER ≤p MIS (the NP-completeness direction: each edge
//     (v, v′) becomes the set {v, v′}; a minimum intersecting set is a
//     minimum vertex cover), and
//   - MIS ≤p SET-COVER (the algorithmic direction: elements become the
//     constraint sets they appear in; Chvátal's greedy heuristic then
//     gives a 1+ln|S| approximation).
//
// The counterexample analyzer (Analyze/GreedyMinimalFix) instantiates MIS
// with fix points as elements and replacement sets as the collection; the
// standalone form here keeps the theorem testable in isolation.

// MIS is a MINIMUM-INTERSECTING-SET instance: given a collection of
// non-empty subsets of a universe (identified by dense ints), find a
// minimum M such that every subset intersects M.
type MIS struct {
	// Universe is the number of elements (0..Universe-1).
	Universe int
	// Sets is the collection S1..Sn; each must be non-empty for a solution
	// to exist.
	Sets [][]int
}

// GreedyMIS solves the instance with Chvátal's greedy set-cover heuristic
// after the §3.3.4 reduction: pick the element intersecting the most
// not-yet-intersected sets, repeat. The result intersects every set (when
// possible) and is within 1+ln(n) of optimal.
func GreedyMIS(inst MIS) []int {
	containing := make([][]int, inst.Universe)
	for si, set := range inst.Sets {
		seen := make(map[int]bool, len(set))
		for _, e := range set {
			if e >= 0 && e < inst.Universe && !seen[e] {
				seen[e] = true
				containing[e] = append(containing[e], si)
			}
		}
	}
	uncovered := make(map[int]bool, len(inst.Sets))
	for si, set := range inst.Sets {
		if len(set) > 0 {
			uncovered[si] = true
		}
	}
	var out []int
	for len(uncovered) > 0 {
		best, bestGain := -1, 0
		for e := 0; e < inst.Universe; e++ {
			gain := 0
			for _, si := range containing[e] {
				if uncovered[si] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = e, gain
			}
		}
		if best < 0 {
			break // some set references only out-of-universe elements
		}
		out = append(out, best)
		for _, si := range containing[best] {
			delete(uncovered, si)
		}
	}
	sort.Ints(out)
	return out
}

// ExactMIS solves the instance optimally by branch and bound (NP-complete;
// use only on small instances). It branches on the elements of the first
// uncovered set, pruning with the greedy bound.
func ExactMIS(inst MIS) []int {
	greedy := GreedyMIS(inst)
	if !Intersects(inst, greedy) {
		return greedy // infeasible instance: best effort
	}
	containing := make([][]int, inst.Universe)
	for si, set := range inst.Sets {
		for _, e := range set {
			if e >= 0 && e < inst.Universe {
				containing[e] = append(containing[e], si)
			}
		}
	}

	best := append([]int(nil), greedy...)
	covered := make([]int, len(inst.Sets))
	var cur []int

	var solve func()
	solve = func() {
		if len(cur) >= len(best) {
			return
		}
		target := -1
		for si, set := range inst.Sets {
			if len(set) > 0 && covered[si] == 0 {
				target = si
				break
			}
		}
		if target < 0 {
			best = append(best[:0], cur...)
			return
		}
		for _, e := range inst.Sets[target] {
			if e < 0 || e >= inst.Universe {
				continue
			}
			cur = append(cur, e)
			for _, si := range containing[e] {
				covered[si]++
			}
			solve()
			for _, si := range containing[e] {
				covered[si]--
			}
			cur = cur[:len(cur)-1]
		}
	}
	solve()
	sort.Ints(best)
	return best
}

// Intersects reports whether m intersects every non-empty set of the
// instance — the effectiveness condition of Definition 1/2.
func Intersects(inst MIS, m []int) bool {
	chosen := make(map[int]bool, len(m))
	for _, e := range m {
		chosen[e] = true
	}
	for _, set := range inst.Sets {
		if len(set) == 0 {
			continue
		}
		hit := false
		for _, e := range set {
			if chosen[e] {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// Graph is an undirected graph for the VERTEX-COVER reduction.
type Graph struct {
	Vertices int
	Edges    [][2]int
}

// VertexCoverToMIS performs the paper's NP-completeness reduction: each
// edge e = (v, v′) maps to the set {v, v′}. A minimum intersecting set of
// the resulting instance is exactly a minimum vertex cover of the graph.
func VertexCoverToMIS(g Graph) MIS {
	inst := MIS{Universe: g.Vertices, Sets: make([][]int, 0, len(g.Edges))}
	for _, e := range g.Edges {
		inst.Sets = append(inst.Sets, []int{e[0], e[1]})
	}
	return inst
}

// MinVertexCoverSize computes the minimum vertex cover size through the
// MIS reduction (exponential; small graphs only). It is the oracle of
// TestVertexCoverReduction.
func MinVertexCoverSize(g Graph) int {
	return len(ExactMIS(VertexCoverToMIS(g)))
}

// IsVertexCover reports whether the vertex set covers every edge. It is
// the oracle of TestVertexCoverReductionQuick.
func IsVertexCover(g Graph, cover []int) bool {
	in := make(map[int]bool, len(cover))
	for _, v := range cover {
		in[v] = true
	}
	for _, e := range g.Edges {
		if !in[e[0]] && !in[e[1]] {
			return false
		}
	}
	return true
}
