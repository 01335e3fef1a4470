package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrivialSat(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(MkLit(v, false))
	if s.Solve() != Sat {
		t.Fatalf("want Sat")
	}
	if !s.Value(v) {
		t.Fatalf("unit clause forces v=true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(Lit(v))
	if !s.AddClause(Lit(-v)) {
		// Adding ¬v already detects the contradiction; either way Solve
		// must answer Unsat.
		if s.Solve() != Unsat {
			t.Fatalf("want Unsat")
		}
		return
	}
	if s.Solve() != Unsat {
		t.Fatalf("want Unsat")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatalf("empty clause should report false")
	}
	if s.Solve() != Unsat {
		t.Fatalf("want Unsat")
	}
}

func TestNoClausesIsSat(t *testing.T) {
	s := New()
	s.NewVar()
	s.NewVar()
	if s.Solve() != Sat {
		t.Fatalf("want Sat for empty formula")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	v := s.NewVar()
	w := s.NewVar()
	s.AddClause(Lit(v), Lit(-v), Lit(w))
	s.AddClause(Lit(-w))
	if s.Solve() != Sat {
		t.Fatalf("tautological clause must not constrain")
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(Lit(v), Lit(v), Lit(v))
	if s.Solve() != Sat || !s.Value(v) {
		t.Fatalf("duplicate literals should behave as unit")
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// x1 ∧ (¬x1∨x2) ∧ (¬x2∨x3) ∧ … forces all true by propagation alone.
	s := New()
	const n = 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(Lit(vars[0]))
	for i := 1; i < n; i++ {
		s.AddClause(Lit(-vars[i-1]), Lit(vars[i]))
	}
	if s.Solve() != Sat {
		t.Fatalf("want Sat")
	}
	for i, v := range vars {
		if !s.Value(v) {
			t.Fatalf("var %d should be true", i)
		}
	}
	if s.Stats().Decisions != 0 {
		t.Fatalf("chain should solve by propagation alone, got %d decisions", s.Stats().Decisions)
	}
}

// pigeonhole builds PHP(n+1, n): n+1 pigeons in n holes, classically UNSAT
// and hard for resolution; exercises learning heavily for small n.
func pigeonhole(pigeons, holes int) *CNF {
	f := &CNF{}
	at := make([][]int, pigeons)
	for p := 0; p < pigeons; p++ {
		at[p] = make([]int, holes)
		for h := 0; h < holes; h++ {
			at[p][h] = f.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		cl := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			cl[h] = Lit(at[p][h])
		}
		f.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				f.AddClause(Lit(-at[p1][h]), Lit(-at[p2][h]))
			}
		}
	}
	return f
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		res, _ := solveCNF(pigeonhole(n+1, n))
		if res != Unsat {
			t.Fatalf("PHP(%d,%d) must be Unsat, got %v", n+1, n, res)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	f := pigeonhole(4, 4)
	res, model := solveCNF(f)
	if res != Sat {
		t.Fatalf("PHP(4,4) must be Sat")
	}
	if !f.Eval(model) {
		t.Fatalf("returned model does not satisfy formula")
	}
}

// randomCNF builds a random k-CNF instance.
func randomCNF(r *rand.Rand, nVars, nClauses, k int) *CNF {
	f := &CNF{NumVars: nVars}
	for i := 0; i < nClauses; i++ {
		cl := make([]Lit, 0, k)
		for j := 0; j < k; j++ {
			v := r.Intn(nVars) + 1
			cl = append(cl, MkLit(v, r.Intn(2) == 0))
		}
		f.AddClause(cl...)
	}
	return f
}

func TestRandomAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		nVars := 3 + r.Intn(12)
		nClauses := 1 + r.Intn(5*nVars)
		k := 2 + r.Intn(3)
		f := randomCNF(r, nVars, nClauses, k)

		wantSat, _ := BruteSolve(f)
		res, model := solveCNF(f)
		if wantSat && res != Sat {
			t.Fatalf("iter %d: solver says %v, brute force says SAT\n%+v", i, res, f.Clauses)
		}
		if !wantSat && res != Unsat {
			t.Fatalf("iter %d: solver says %v, brute force says UNSAT\n%+v", i, res, f.Clauses)
		}
		if res == Sat && !f.Eval(model) {
			t.Fatalf("iter %d: model does not satisfy formula", i)
		}
	}
}

func TestRandomAgainstBruteForceAllFeatureCombos(t *testing.T) {
	combos := []Options{
		{},
		{DisableVSIDS: true},
		{DisableLearning: true},
		{DisableRestarts: true},
		{DisableVSIDS: true, DisableLearning: true, DisableRestarts: true},
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		nVars := 3 + r.Intn(10)
		f := randomCNF(r, nVars, 1+r.Intn(4*nVars), 3)
		wantSat, _ := BruteSolve(f)
		for ci, opts := range combos {
			s := NewWith(opts)
			if !f.LoadInto(s) {
				if wantSat {
					t.Fatalf("iter %d combo %d: load says unsat, brute says sat", i, ci)
				}
				continue
			}
			res := s.Solve()
			if wantSat != (res == Sat) {
				t.Fatalf("iter %d combo %d: got %v, want sat=%v", i, ci, res, wantSat)
			}
			if res == Sat && !f.Eval(s.Model()) {
				t.Fatalf("iter %d combo %d: bad model", i, ci)
			}
		}
	}
}

func TestQuickModelsAlwaysSatisfy(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randomCNF(r, 4+r.Intn(16), 5+r.Intn(60), 3)
		res, model := solveCNF(f)
		if res != Sat {
			return true // nothing to check
		}
		return f.Eval(model)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalBlockingEnumeration(t *testing.T) {
	// Formula with free variables enumerates exactly its model count.
	f := &CNF{}
	a, b, c := f.NewVar(), f.NewVar(), f.NewVar()
	f.AddClause(Lit(a), Lit(b)) // a ∨ b
	_ = c                       // free variable, not projected

	models := EnumerateModels(f, []int{a, b}, 0)
	if len(models) != 3 {
		t.Fatalf("models over {a,b} = %d, want 3", len(models))
	}
	seen := map[[2]bool]bool{}
	for _, m := range models {
		seen[[2]bool{m[0], m[1]}] = true
	}
	if seen[[2]bool{false, false}] {
		t.Fatalf("(false,false) violates a∨b")
	}
}

func TestEnumerationMatchesBruteCount(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		nVars := 3 + r.Intn(8)
		f := randomCNF(r, nVars, 1+r.Intn(3*nVars), 3)
		project := make([]int, nVars)
		for v := 1; v <= nVars; v++ {
			project[v-1] = v
		}
		got := len(EnumerateModels(f, project, 0))
		want := BruteCountModels(f)
		if got != want {
			t.Fatalf("iter %d: enumerated %d models, brute force %d", i, got, want)
		}
	}
}

func TestEnumerationLimit(t *testing.T) {
	f := &CNF{}
	a, b := f.NewVar(), f.NewVar()
	f.AddClause(Lit(a), Lit(b))
	if got := len(EnumerateModels(f, []int{a, b}, 2)); got != 2 {
		t.Fatalf("limit ignored: %d", got)
	}
}

func TestSolveAfterUnsatStaysUnsat(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(Lit(v))
	s.AddClause(Lit(-v))
	if s.Solve() != Unsat {
		t.Fatalf("want Unsat")
	}
	if s.Solve() != Unsat {
		t.Fatalf("Unsat must be sticky")
	}
	if s.AddClause(Lit(v)) {
		t.Fatalf("AddClause after Unsat should report false")
	}
}

func TestConflictBudget(t *testing.T) {
	s := NewWith(Options{MaxConflicts: 1})
	pigeonhole(7, 6).LoadInto(s)
	res := s.Solve()
	if res != Unknown && res != Unsat {
		t.Fatalf("got %v, want Unknown (budget) or fast Unsat", res)
	}
}

func TestStatsPopulated(t *testing.T) {
	s := New()
	pigeonhole(6, 5).LoadInto(s)
	if s.Solve() != Unsat {
		t.Fatalf("want Unsat")
	}
	st := s.Stats()
	if st.Conflicts == 0 || st.Decisions == 0 {
		t.Fatalf("expected nonzero search stats: %v", st)
	}
}

func TestLuby(t *testing.T) {
	want := []uint64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(uint64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestLitBasics(t *testing.T) {
	l := MkLit(5, false)
	if l.Var() != 5 || l.IsNeg() {
		t.Fatalf("positive literal wrong")
	}
	n := l.Not()
	if n.Var() != 5 || !n.IsNeg() {
		t.Fatalf("negation wrong")
	}
	if n.Not() != l {
		t.Fatalf("double negation")
	}
	if l.index() == n.index() {
		t.Fatalf("indices must differ")
	}
	if l.String() != "5" || n.String() != "-5" {
		t.Fatalf("String wrong: %s %s", l, n)
	}
}

func TestLargeStructuredInstance(t *testing.T) {
	// A satisfiable graph-coloring-style instance large enough to trigger
	// restarts and clause deletion paths.
	r := rand.New(rand.NewSource(11))
	const nodes, colors = 120, 4
	f := &CNF{}
	vars := make([][]int, nodes)
	for n := range vars {
		vars[n] = make([]int, colors)
		for c := range vars[n] {
			vars[n][c] = f.NewVar()
		}
		cl := make([]Lit, colors)
		for c := range vars[n] {
			cl[c] = Lit(vars[n][c])
		}
		f.AddClause(cl...)
		for c1 := 0; c1 < colors; c1++ {
			for c2 := c1 + 1; c2 < colors; c2++ {
				f.AddClause(Lit(-vars[n][c1]), Lit(-vars[n][c2]))
			}
		}
	}
	// Random sparse edges: adjacent nodes differ in color.
	for i := 0; i < nodes*3; i++ {
		a, b := r.Intn(nodes), r.Intn(nodes)
		if a == b {
			continue
		}
		for c := 0; c < colors; c++ {
			f.AddClause(Lit(-vars[a][c]), Lit(-vars[b][c]))
		}
	}
	res, model := solveCNF(f)
	if res != Sat {
		t.Fatalf("4-coloring with sparse random edges should be Sat")
	}
	if !f.Eval(model) {
		t.Fatalf("bad model")
	}
}

func TestSolveAssumingBasics(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Lit(a), Lit(b)) // a ∨ b

	if s.SolveAssuming([]Lit{Lit(-a), Lit(-b)}) != Unsat {
		t.Fatalf("¬a ∧ ¬b must contradict a∨b")
	}
	// The solver must stay usable with different assumptions.
	if s.SolveAssuming([]Lit{Lit(-a)}) != Sat {
		t.Fatalf("¬a alone is consistent")
	}
	if !s.Value(b) {
		t.Fatalf("b must be forced under ¬a")
	}
	if s.SolveAssuming(nil) != Sat {
		t.Fatalf("no assumptions: Sat")
	}
	if s.Solve() != Sat {
		t.Fatalf("plain Solve after assumptions must work")
	}
}

func TestSolveAssumingMatchesUnitClauses(t *testing.T) {
	// For random instances and random assumption sets, SolveAssuming(F, A)
	// must agree with Solve(F ∧ A).
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 120; i++ {
		nVars := 4 + r.Intn(8)
		f := randomCNF(r, nVars, 1+r.Intn(3*nVars), 3)
		var assumptions []Lit
		for v := 1; v <= nVars; v++ {
			if r.Intn(3) == 0 {
				assumptions = append(assumptions, MkLit(v, r.Intn(2) == 0))
			}
		}

		shared := New()
		if !f.LoadInto(shared) {
			continue
		}
		got := shared.SolveAssuming(assumptions)

		g := &CNF{NumVars: f.NumVars}
		g.Clauses = append(g.Clauses, f.Clauses...)
		for _, a := range assumptions {
			g.AddClause(a)
		}
		want, _ := solveCNF(g)
		if got != want {
			t.Fatalf("iter %d: assuming=%v, unit-clauses=%v (assumptions %v)",
				i, got, want, assumptions)
		}
		if got == Sat {
			model := shared.Model()
			if !f.Eval(model) {
				t.Fatalf("iter %d: model does not satisfy formula", i)
			}
			for _, a := range assumptions {
				if model[a.Var()] == a.IsNeg() {
					t.Fatalf("iter %d: model violates assumption %v", i, a)
				}
			}
		}
	}
}

func TestSolveAssumingIncrementalReuse(t *testing.T) {
	// One solver, many assumption sets — the shared-solver BMC pattern.
	s := New()
	x, y, z := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(Lit(-x), Lit(y)) // x → y
	s.AddClause(Lit(-y), Lit(z)) // y → z
	cases := []struct {
		assume []Lit
		want   Result
	}{
		{[]Lit{Lit(x)}, Sat},
		{[]Lit{Lit(x), Lit(-z)}, Unsat},
		{[]Lit{Lit(-z)}, Sat},
		{[]Lit{Lit(x), Lit(z)}, Sat},
		{[]Lit{Lit(x), Lit(-y)}, Unsat},
		{nil, Sat},
	}
	for i, c := range cases {
		if got := s.SolveAssuming(c.assume); got != c.want {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestSolveAssumingUnknownVar(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(Lit(v))
	if s.SolveAssuming([]Lit{Lit(99)}) != Unsat {
		t.Fatalf("assumption over unallocated variable should be Unsat")
	}
}

// solveCNF loads f into a fresh solver and solves it, returning the
// result and, when Sat, the model.
func solveCNF(f *CNF) (Result, []bool) {
	s := New()
	if !f.LoadInto(s) {
		return Unsat, nil
	}
	if res := s.Solve(); res != Sat {
		return res, nil
	}
	return Sat, s.Model()
}
