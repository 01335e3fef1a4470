package sat

import (
	"cmp"
	"slices"
	"sort"
)

// clause is a disjunction of literals. The first two literals are the
// watched pair.
type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

// watcher pairs a watching clause with a blocker literal: if the blocker is
// already true the clause is satisfied and need not be inspected.
type watcher struct {
	c       *clause
	blocker Lit
}

// Options tunes solver features, primarily for the ablation benchmarks
// (BenchmarkSolverFeatures); the defaults are the full CDCL configuration.
type Options struct {
	// DisableVSIDS falls back to picking the lowest-indexed unassigned
	// variable instead of the highest-activity one.
	DisableVSIDS bool
	// DisableLearning drops learned clauses after backjumping (the solver
	// degenerates towards DPLL with conflict-directed backjumping).
	DisableLearning bool
	// DisableRestarts turns off Luby restarts.
	DisableRestarts bool
	// MaxConflicts aborts Solve with Unknown after this many conflicts
	// (0 = unlimited).
	MaxConflicts uint64
	// MaxRestarts aborts Solve with Unknown after this many restarts
	// (0 = unlimited). Like MaxConflicts it is a per-call budget.
	MaxRestarts uint64
	// Interrupt, when non-nil, is polled during search (once per conflict
	// and periodically between decisions); when it returns true, Solve
	// stops and reports Unknown. It plumbs wall-clock deadlines and
	// context cancellation into the search loop without a watchdog
	// goroutine; the solver remains usable afterwards. One callback may
	// be shared by solver instances running on concurrent goroutines
	// (a project run's concurrent files share one), so it
	// must be safe to call concurrently — a ctx.Err() check qualifies.
	Interrupt func() bool
}

// Solver is a CDCL SAT solver. The zero value is not usable; use New or
// NewWith. A Solver is not safe for concurrent use.
type Solver struct {
	opts Options

	numVars int
	clauses []*clause // problem clauses
	learnts []*clause // learned clauses

	watches [][]watcher // literal index → watchers

	assign   []lbool // variable → value
	level    []int   // variable → decision level
	reason   []*clause
	trail    []Lit
	trailLim []int // decision-level boundaries in trail
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap
	polarity []bool // phase saving: last assigned value

	claInc float64

	ok    bool // false once an empty clause is derived
	stats Stats

	// seen is scratch space for conflict analysis.
	seen []bool
	// addBuf is scratch space for normalising an added clause;
	// learntBuf and originalBuf are conflict analysis's.
	addBuf, learntBuf, originalBuf []Lit
}

// New returns a solver with default options.
func New() *Solver { return NewWith(Options{}) }

// NewWith returns a solver with explicit options.
func NewWith(opts Options) *Solver {
	s := &Solver{
		opts:   opts,
		varInc: 1,
		claInc: 1,
		ok:     true,
	}
	s.order = &varHeap{solver: s}
	// Variable index 0 is unused; keep slot arrays aligned.
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	return s
}

// NewVar allocates a fresh variable and returns its 1-based index.
func (s *Solver) NewVar() int {
	s.numVars++
	v := s.numVars
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil) // slots 2v and 2v+1
	s.order.push(v)
	return v
}

// reserve sets aside room for n variables, so loading a formula does not
// regrow the per-variable tables one variable at a time.
func (s *Solver) reserve(n int) {
	extra := n - s.numVars
	if extra <= 0 {
		return
	}
	s.assign = slices.Grow(s.assign, extra)
	s.level = slices.Grow(s.level, extra)
	s.reason = slices.Grow(s.reason, extra)
	s.activity = slices.Grow(s.activity, extra)
	s.polarity = slices.Grow(s.polarity, extra)
	s.seen = slices.Grow(s.seen, extra)
	s.watches = slices.Grow(s.watches, 2*extra)
	s.order.heap = slices.Grow(s.order.heap, extra)
	if grow := n + 1 - len(s.order.pos); grow > 0 {
		s.order.pos = slices.Grow(s.order.pos, grow)
	}
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.numVars }

// Stats returns the solver's counters.
func (s *Solver) Stats() Stats { return s.stats }

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if l.IsNeg() {
		return v.negate()
	}
	return v
}

// AddClause adds a problem clause. Literals over unallocated variables
// grow the variable table. It returns false if the solver is already (or
// thereby becomes) trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	for _, l := range lits {
		for l.Var() > s.numVars {
			s.NewVar()
		}
	}
	// Adding clauses is only legal at decision level 0; callers adding
	// blocking clauses after a SAT answer rely on this reset.
	s.cancelUntil(0)

	// Simplify against level-0 assignments: drop false literals, drop the
	// clause when a literal is already true, deduplicate, and detect
	// tautologies.
	// Sort by variable (then sign) so duplicates and complementary pairs
	// are adjacent. The sort runs in a scratch buffer the solver keeps,
	// so only a stored clause allocates.
	sorted := append(s.addBuf[:0], lits...)
	s.addBuf = sorted
	slices.SortFunc(sorted, litCompare)
	out := sorted[:0]
	var prev Lit
	for _, l := range sorted {
		switch {
		case s.value(l) == lTrue:
			return true // already satisfied
		case s.value(l) == lFalse:
			continue // cannot help
		case l == prev:
			continue // duplicate
		case l == prev.Not() && prev != 0:
			return true // tautology p ∨ ¬p
		}
		out = append(out, l)
		prev = l
	}

	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		s.ok = s.propagate() == nil
		return s.ok
	default:
		c := &clause{lits: slices.Clone(out)}
		s.clauses = append(s.clauses, c)
		s.attach(c)
		return true
	}
}

// litCompare orders literals by variable, then sign (negative first). It
// is a total order on distinct literals, so the sorted order does not
// depend on the sort algorithm.
func litCompare(a, b Lit) int {
	if c := cmp.Compare(a.Var(), b.Var()); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

func (s *Solver) attach(c *clause) {
	l0, l1 := c.lits[0], c.lits[1]
	s.watches[l0.Not().index()] = append(s.watches[l0.Not().index()], watcher{c: c, blocker: l1})
	s.watches[l1.Not().index()] = append(s.watches[l1.Not().index()], watcher{c: c, blocker: l0})
}

func (s *Solver) detach(c *clause) {
	for _, wl := range []Lit{c.lits[0].Not(), c.lits[1].Not()} {
		ws := s.watches[wl.index()]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[wl.index()] = ws[:len(ws)-1]
				break
			}
		}
	}
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	s.assign[v] = boolToLbool(!l.IsNeg())
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.polarity[v] = !l.IsNeg()
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting clause,
// or nil when a fixpoint is reached without conflict.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++

		ws := s.watches[p.index()]
		kept := ws[:0]
		var conflict *clause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if conflict != nil {
				kept = append(kept, w)
				continue
			}
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Normalize: the false literal (¬p) must be lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{c: c, blocker: first})
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nw := c.lits[1].Not().index()
					s.watches[nw] = append(s.watches[nw], watcher{c: c, blocker: first})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c: c, blocker: first})
			if s.value(first) == lFalse {
				conflict = c
				s.qhead = len(s.trail)
				continue
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p.index()] = kept
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

// cancelUntil undoes assignments above the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first) and the backjump level.
//
// The clause is built in scratch space the solver keeps, so it is valid
// only until the next conflict: a caller that keeps it copies it.
func (s *Solver) analyze(conflict *clause) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	reason := conflict

	for {
		s.bumpClause(reason)
		for _, q := range reason.lits {
			if q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk backwards to the next marked trail literal.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		reason = s.reason[v]
	}
	learnt[0] = p.Not()

	// Clause minimization: drop literals implied by the rest of the clause
	// through their reasons. The seen marks of dropped literals must be
	// cleared too, so work on a copy and unmark from the original.
	s.learntBuf = learnt
	original := append(s.originalBuf[:0], learnt...)
	s.originalBuf = original
	minimized := learnt[:1]
	for _, l := range learnt[1:] {
		if !s.redundant(l, original) {
			minimized = append(minimized, l)
		}
	}
	s.stats.MinimizedLits += uint64(len(original) - len(minimized))
	learnt = minimized

	// Backjump level: the second-highest decision level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}

	for _, l := range original {
		s.seen[l.Var()] = false
	}
	return learnt, btLevel
}

// redundant reports whether literal l is implied by the other literals of
// the learned clause via its reason clause (single-step minimization).
func (s *Solver) redundant(l Lit, learnt []Lit) bool {
	r := s.reason[l.Var()]
	if r == nil {
		return false
	}
	inClause := func(v int) bool {
		if s.level[v] == 0 {
			return true
		}
		for _, q := range learnt {
			if q.Var() == v {
				return true
			}
		}
		return false
	}
	for _, q := range r.lits {
		if q.Var() == l.Var() {
			continue
		}
		if !inClause(q.Var()) {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.numVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	if !c.learnt {
		return
	}
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, lc := range s.learnts {
			lc.activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

const (
	varDecay    = 0.95
	claDecay    = 0.999
	restartBase = 100 // the i-th restart fires after restartBase·luby(i) conflicts
)

func (s *Solver) decayActivities() {
	s.varInc /= varDecay
	s.claInc /= claDecay
}

// pickBranchVar selects the next decision variable.
func (s *Solver) pickBranchVar() int {
	if s.opts.DisableVSIDS {
		for v := 1; v <= s.numVars; v++ {
			if s.assign[v] == lUndef {
				return v
			}
		}
		return 0
	}
	for {
		v, ok := s.order.pop()
		if !ok {
			return 0
		}
		if s.assign[v] == lUndef {
			return v
		}
	}
}

// reduceDB removes the less active half of the learned clauses.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.learnts[i].activity > s.learnts[j].activity
	})
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if i < limit || len(c.lits) == 2 || s.locked(c) {
			keep = append(keep, c)
			continue
		}
		s.detach(c)
		s.stats.DeletedClauses++
	}
	s.learnts = keep
}

// locked reports whether the clause is the reason for a current assignment.
func (s *Solver) locked(c *clause) bool {
	return s.value(c.lits[0]) == lTrue && s.reason[c.lits[0].Var()] == c
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i uint64) uint64 {
	// Find the finite subsequence containing i, then recurse.
	var k uint64 = 1
	for (1<<k)-1 < i {
		k++
	}
	for {
		if (1<<k)-1 == i {
			return 1 << (k - 1)
		}
		i -= (1 << (k - 1)) - 1
		k = 1
		for (1<<k)-1 < i {
			k++
		}
	}
}

// Result is a Solve outcome.
type Result int

// Solve results.
const (
	Unsat Result = iota + 1
	Sat
	// Unknown means the search gave up before an answer: the conflict
	// budget (Options.MaxConflicts) was exhausted or Options.Interrupt
	// fired. The instance is neither proved nor refuted.
	Unknown
)

// Solve runs the CDCL search. It may be called repeatedly; clauses added
// between calls (e.g. counterexample blocking clauses) are honored and
// learned state persists.
func (s *Solver) Solve() Result { return s.SolveAssuming(nil) }

// SolveAssuming runs the search under the given assumption literals
// (MiniSat-style incremental solving): Unsat means the formula is
// unsatisfiable *under the assumptions*; the solver remains usable with
// different assumptions afterwards. Learned clauses never depend on
// assumptions being retracted — each assumption is made at its own
// decision level.
func (s *Solver) SolveAssuming(assumptions []Lit) Result {
	if !s.ok {
		return Unsat
	}
	for _, l := range assumptions {
		if l.Var() > s.numVars {
			return Unsat // assuming an unknown variable: vacuously false
		}
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.ok = false
		return Unsat
	}

	var conflictsAtStart = s.stats.Conflicts
	restartCount := uint64(0)
	conflictBudget := restartBase * luby(restartCount+1)
	conflictsSinceRestart := uint64(0)
	maxLearnts := len(s.clauses)/3 + 100

	for {
		conflict := s.propagate()
		if conflict != nil {
			s.stats.Conflicts++
			conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(conflict)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				learnt = slices.Clone(learnt)
				c := &clause{lits: learnt, learnt: true, activity: s.claInc}
				if !s.opts.DisableLearning {
					s.learnts = append(s.learnts, c)
					s.attach(c)
					s.stats.LearntClauses++
					s.uncheckedEnqueue(learnt[0], c)
				} else {
					// Without learning we still use the clause for the
					// asserting literal, but do not retain it.
					s.uncheckedEnqueue(learnt[0], &clause{lits: learnt})
				}
			}
			s.decayActivities()

			if s.opts.MaxConflicts > 0 &&
				s.stats.Conflicts-conflictsAtStart >= s.opts.MaxConflicts {
				s.cancelUntil(0)
				return Unknown
			}
			if s.opts.Interrupt != nil && s.opts.Interrupt() {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}

		// No conflict.
		if !s.opts.DisableRestarts && conflictsSinceRestart >= conflictBudget {
			if s.opts.MaxRestarts > 0 && restartCount >= s.opts.MaxRestarts {
				s.cancelUntil(0)
				return Unknown
			}
			restartCount++
			s.stats.Restarts++
			conflictsSinceRestart = 0
			conflictBudget = restartBase * luby(restartCount+1)
			s.cancelUntil(0)
			continue
		}
		if len(s.learnts) > maxLearnts+len(s.trail) {
			s.reduceDB()
			maxLearnts += maxLearnts / 10
		}

		// Install pending assumptions, one decision level each.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already implied: open an empty decision level so the
				// level↔assumption indexing stays aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				// The formula (with learned consequences) contradicts the
				// assumption set.
				s.cancelUntil(0)
				return Unsat
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(a, nil)
			}
			continue
		}

		v := s.pickBranchVar()
		if v == 0 {
			return Sat // all variables assigned
		}
		s.stats.Decisions++
		// On conflict-free instances the loop above never polls, so check
		// the interrupt on a sparse decision cadence too.
		if s.opts.Interrupt != nil && s.stats.Decisions&255 == 0 && s.opts.Interrupt() {
			s.cancelUntil(0)
			return Unknown
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		if d := s.decisionLevel(); d > s.stats.MaxDepth {
			s.stats.MaxDepth = d
		}
		s.uncheckedEnqueue(MkLit(v, !s.polarity[v]), nil)
	}
}

// Value returns the model value of variable v after a Sat answer.
func (s *Solver) Value(v int) bool {
	return s.assign[v] == lTrue
}

// Model returns a copy of the satisfying assignment indexed by variable
// (entry 0 unused). Unassigned variables (possible only before Solve)
// read as false.
func (s *Solver) Model() []bool { return s.ModelInto(nil) }

// ModelInto is Model written into m, which it grows as needed, so a
// caller enumerating many models can reuse one slice.
func (s *Solver) ModelInto(m []bool) []bool {
	m = slices.Grow(m[:0], s.numVars+1)[:s.numVars+1]
	m[0] = false
	for v := 1; v <= s.numVars; v++ {
		m[v] = s.assign[v] == lTrue
	}
	return m
}

// ---------------------------------------------------------------- var heap

// varHeap is a max-heap over variable activity used by VSIDS.
type varHeap struct {
	solver *Solver
	heap   []int // variables
	pos    []int // variable → heap index (-1 if absent)
}

func (h *varHeap) less(a, b int) bool {
	return h.solver.activity[a] > h.solver.activity[b]
}

func (h *varHeap) ensure(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
}

func (h *varHeap) push(v int) {
	h.ensure(v)
	if h.pos[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	h.ensure(v)
	if h.pos[v] >= 0 {
		h.up(h.pos[v])
	}
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i]] = i
		i = parent
	}
	h.heap[i] = v
	h.pos[v] = i
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && h.less(h.heap[child+1], h.heap[child]) {
			child++
		}
		if !h.less(h.heap[child], v) {
			break
		}
		h.heap[i] = h.heap[child]
		h.pos[h.heap[i]] = i
		i = child
	}
	h.heap[i] = v
	h.pos[v] = i
}
