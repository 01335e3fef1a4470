package sat

// BruteSolve decides satisfiability of a CNF by exhaustive enumeration.
// It is the reference oracle for the CDCL solver's property tests
// (TestRandomAgainstBruteForce) and is usable only for small variable
// counts (it refuses more than 25).
func BruteSolve(f *CNF) (sat bool, model []bool) {
	if f.NumVars > 25 {
		panic("sat: BruteSolve limited to 25 variables")
	}
	n := f.NumVars
	model = make([]bool, n+1)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for v := 1; v <= n; v++ {
			model[v] = mask&(1<<uint(v-1)) != 0
		}
		if f.Eval(model) {
			return true, model
		}
	}
	return false, nil
}

// BruteCountModels counts the satisfying assignments of a CNF over its
// declared variables by exhaustive enumeration (≤ 25 variables), the
// oracle of TestEnumerationMatchesBruteCount.
func BruteCountModels(f *CNF) int {
	if f.NumVars > 25 {
		panic("sat: BruteCountModels limited to 25 variables")
	}
	n := f.NumVars
	model := make([]bool, n+1)
	count := 0
	for mask := 0; mask < 1<<uint(n); mask++ {
		for v := 1; v <= n; v++ {
			model[v] = mask&(1<<uint(v-1)) != 0
		}
		if f.Eval(model) {
			count++
		}
	}
	return count
}

// EnumerateModels returns every satisfying assignment projected onto the
// given variables, using the solver incrementally with blocking clauses —
// the same loop the BMC engine uses to enumerate counterexamples. The
// number of models returned is bounded by limit (0 = unlimited).
func EnumerateModels(f *CNF, project []int, limit int) [][]bool {
	s := New()
	if !f.LoadInto(s) {
		return nil
	}
	var out [][]bool
	for s.Solve() == Sat {
		assignment := make([]bool, len(project))
		blocking := make([]Lit, len(project))
		for i, v := range project {
			assignment[i] = s.Value(v)
			blocking[i] = MkLit(v, s.Value(v)) // negation of the current value
		}
		out = append(out, assignment)
		if limit > 0 && len(out) >= limit {
			break
		}
		if len(blocking) == 0 {
			break // no projection variables: a single model class
		}
		if !s.AddClause(blocking...) {
			break
		}
	}
	return out
}
