// Package cnf converts the per-assertion constraint formulas B_i of §3.3.2
// into conjunctive normal form for the SAT solver — the CNF(B_i) step of
// the paper's verification loop.
//
// Safety-type values are one-hot encoded: for each renamed variable (and
// each intermediate ⊔-node) the encoder allocates one propositional
// variable per lattice element, constrained to exactly-one. Lattice
// operations then become small clause sets:
//
//	Z = A ⊔ B    (¬A_a ∨ ¬B_b ∨ Z_{a⊔b})           for every a, b
//	X = g?E:Y    (¬g ∨ ¬E_a ∨ X_a), (g ∨ ¬Y_a ∨ X_a) for every a
//	t < τr       fails iff X_a holds for some a ∉ ↓τr
//
// Guards (boolean formulas over the nondeterministic branch variables BN)
// are Tseitin-transformed. Constants are folded everywhere, so variables
// with statically known types cost nothing. An equation whose variable
// folds to the same constant in every B_i is folded once per file, by
// constraint.Build (System.Folded): a check visits only the dynamic
// equations of its prefix and reads a folded variable's type directly.
// Skipping the folded equations skips no variable and no clause, so
// every B_i's DIMACS text is what encoding its whole prefix would give.
package cnf

import (
	"fmt"
	"sort"

	"webssari/internal/ai"
	"webssari/internal/constraint"
	"webssari/internal/lattice"
	"webssari/internal/rename"
	"webssari/internal/sat"
)

// Options tunes the encoding.
type Options struct {
	// AssumePriorAsserts adds every assertion before the target one as a
	// positive constraint, as the paper's iteration does ("we continue the
	// constraint generation procedure C(c,g) := C(c,g) ∧ C(assert_i, g)").
	AssumePriorAsserts bool
	// MaxVars and MaxClauses cap the encoded formula's size. When a cap
	// is hit, EncodeCheck stops and returns a *LimitError so the caller
	// can degrade the assertion to an Unknown verdict instead of
	// exhausting memory on a pathological input. Zero disables the cap.
	MaxVars    int
	MaxClauses int
}

// LimitError reports that an encoding tripped a resource ceiling
// (Options.MaxVars or Options.MaxClauses).
type LimitError struct {
	// What names the exhausted resource: "variables" or "clauses".
	What string
	// Limit is the configured ceiling.
	Limit int
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("cnf: formula exceeds the %d-%s ceiling", e.Limit, e.What)
}

// Encoded is one CNF-encoded assertion formula B_i together with the
// variable maps needed to decode counterexample models.
type Encoded struct {
	// F is the CNF formula; satisfiability means assertion violation.
	F *sat.CNF
	// CheckID is the target assertion's ID.
	CheckID int
	// BranchVars maps branch IDs (the BN variables appearing in B_i) to
	// SAT variables, used both for decoding traces and for blocking
	// clauses during all-counterexample enumeration.
	BranchVars map[int]int
	// Trivial is set when B_i is decided without search: TrivialSat means
	// the assertion fails on every prefix path consistent with the
	// encoding; TrivialUnsat means it can never fail.
	Trivial TrivialKind
}

// TrivialKind classifies formulas decided during encoding.
type TrivialKind int

// Trivial outcomes.
const (
	NotTrivial TrivialKind = iota
	TrivialUnsat
)

// vec is the encoded value of a type expression: either a constant lattice
// element or a one-hot vector of SAT variables (vars[elem]).
type vec struct {
	isConst bool
	c       lattice.Elem
	vars    []int
}

// glit is an encoded guard: either a constant or a SAT literal.
type glit struct {
	isConst bool
	b       bool
	lit     sat.Lit
}

var (
	gTrue  = glit{isConst: true, b: true}
	gFalse = glit{isConst: true, b: false}
)

type encoder struct {
	sys  *constraint.System
	lat  *lattice.Lattice
	f    *sat.CNF
	opts Options
	// vals holds the values of the dynamic equations encoded so far.
	vals map[rename.SSAVar]vec
	// pos is the index of the equation being encoded, or the prefix
	// length once the checks are: a folded variable whose equation lies
	// at or after pos still reads its initial type.
	pos int
	// branch maps branch IDs to SAT vars (allocated on first use).
	branch map[int]int
	// guardCache memoizes Tseitin variables per guard structure.
	guardCache map[string]glit
	unsat      bool
	// limit records the first resource ceiling the encoding tripped;
	// once set, no further variables or clauses are materialized.
	limit *LimitError
}

// EncodeCheck builds CNF(B_i) for the target check index.
func EncodeCheck(sys *constraint.System, checkIdx int, opts Options) (*Encoded, error) {
	if checkIdx < 0 || checkIdx >= len(sys.Checks) {
		return nil, fmt.Errorf("cnf: check index %d out of range [0,%d)", checkIdx, len(sys.Checks))
	}
	e := &encoder{
		sys:        sys,
		lat:        sys.Renamed.AI.Lat,
		f:          &sat.CNF{},
		opts:       opts,
		vals:       make(map[rename.SSAVar]vec),
		branch:     make(map[int]int),
		guardCache: make(map[string]glit),
	}
	target := sys.Checks[checkIdx]

	// Allocate a BN variable for every branch in the prefix, including
	// branches that guard nothing: their decisions still distinguish
	// counterexample traces, so the blocking clauses must range over them.
	for _, id := range sys.PrefixBranches(target) {
		e.branchVar(id)
	}

	// Encode the dynamic equations in the target's prefix, in order,
	// bailing out as soon as a resource ceiling trips: each equation adds
	// a bounded number of clauses, so checking between equations keeps
	// overshoot small. The folded ones add nothing and are read through
	// valueOf.
	for _, i := range sys.Dynamic[:sort.SearchInts(sys.Dynamic, target.Prefix)] {
		e.pos = i
		e.encodeEquation(sys.Equations[i])
		if e.limit != nil {
			return nil, e.limit
		}
	}
	e.pos = target.Prefix

	// Prior assertions hold (the paper's incremental restriction).
	if opts.AssumePriorAsserts {
		for _, ch := range sys.Checks[:checkIdx] {
			e.assumeCheckHolds(ch)
		}
	}

	// Target assertion fails: guard holds ∧ some argument at or above τr.
	e.negateCheck(target)
	if e.limit != nil {
		return nil, e.limit
	}

	out := &Encoded{
		F:          e.f,
		CheckID:    target.ID,
		BranchVars: e.branch,
	}
	if e.unsat {
		out.Trivial = TrivialUnsat
	}
	return out, nil
}

// addClause adds a clause, tracking trivial unsatisfiability and the
// clause ceiling. Once a ceiling has tripped, nothing further is stored.
func (e *encoder) addClause(lits ...sat.Lit) {
	if len(lits) == 0 {
		e.unsat = true
		return
	}
	if e.limit != nil {
		return
	}
	if e.opts.MaxClauses > 0 && len(e.f.Clauses) >= e.opts.MaxClauses {
		e.limit = &LimitError{What: "clauses", Limit: e.opts.MaxClauses}
		return
	}
	e.f.AddClause(lits...)
}

// newVar allocates a fresh SAT variable, tracking the variable ceiling.
func (e *encoder) newVar() int {
	if e.limit == nil && e.opts.MaxVars > 0 && e.f.NumVars >= e.opts.MaxVars {
		e.limit = &LimitError{What: "variables", Limit: e.opts.MaxVars}
	}
	return e.f.NewVar()
}

func (e *encoder) branchVar(id int) int {
	if v, ok := e.branch[id]; ok {
		return v
	}
	v := e.newVar()
	e.branch[id] = v
	return v
}

// newOneHot allocates a one-hot group with its exactly-one constraints.
func (e *encoder) newOneHot() []int {
	n := e.lat.Size()
	vars := make([]int, n)
	alo := make([]sat.Lit, n)
	for i := 0; i < n; i++ {
		vars[i] = e.newVar()
		alo[i] = sat.Lit(vars[i])
	}
	e.addClause(alo...)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e.addClause(sat.Lit(-vars[i]), sat.Lit(-vars[j]))
		}
	}
	return vars
}

// encodeGuard Tseitin-encodes a guard formula to a literal.
func (e *encoder) encodeGuard(g constraint.Bool) glit {
	switch g := g.(type) {
	case constraint.True:
		return gTrue
	case constraint.False:
		return gFalse
	case constraint.Branch:
		v := e.branchVar(g.ID)
		return glit{lit: sat.MkLit(v, g.Neg)}
	case constraint.And:
		return e.encodeJunction(g.Parts, true, g.String())
	case constraint.Or:
		return e.encodeJunction(g.Parts, false, g.String())
	default:
		return gTrue
	}
}

// encodeJunction Tseitin-encodes an and/or over parts.
func (e *encoder) encodeJunction(parts []constraint.Bool, isAnd bool, key string) glit {
	if cached, ok := e.guardCache[key]; ok {
		return cached
	}
	lits := make([]sat.Lit, 0, len(parts))
	for _, p := range parts {
		pl := e.encodeGuard(p)
		if pl.isConst {
			if pl.b == isAnd {
				continue // neutral element
			}
			// Dominating element: whole junction is constant.
			res := glit{isConst: true, b: !isAnd}
			e.guardCache[key] = res
			return res
		}
		lits = append(lits, pl.lit)
	}
	switch len(lits) {
	case 0:
		res := glit{isConst: true, b: isAnd}
		e.guardCache[key] = res
		return res
	case 1:
		res := glit{lit: lits[0]}
		e.guardCache[key] = res
		return res
	}
	v := e.newVar()
	out := sat.Lit(v)
	if isAnd {
		// v ↔ ⋀ lits
		long := make([]sat.Lit, 0, len(lits)+1)
		long = append(long, out)
		for _, l := range lits {
			e.addClause(out.Not(), l)
			long = append(long, l.Not())
		}
		e.addClause(long...)
	} else {
		// v ↔ ⋁ lits
		long := make([]sat.Lit, 0, len(lits)+1)
		long = append(long, out.Not())
		for _, l := range lits {
			e.addClause(out, l.Not())
			long = append(long, l)
		}
		e.addClause(long...)
	}
	res := glit{lit: out}
	e.guardCache[key] = res
	return res
}

// valueOf resolves an SSA variable to its encoded value: a dynamic
// equation's encoding, or a folded equation's constant once encoding has
// passed that equation. Any other variable reads its initial type: one
// at index 0, or one defined after the target's prefix (only a stale
// read reaches that, and the renamer produces none).
func (e *encoder) valueOf(v rename.SSAVar) vec {
	if val, ok := e.vals[v]; ok {
		return val
	}
	if f, ok := e.sys.Folded[v]; ok && f.Eq < e.pos {
		return vec{isConst: true, c: f.Type}
	}
	return vec{isConst: true, c: e.sys.Renamed.AI.InitialType(v.Name)}
}

// encodeExpr encodes a renamed type expression to a vec.
func (e *encoder) encodeExpr(x rename.Expr) vec {
	switch x := x.(type) {
	case rename.Const:
		return vec{isConst: true, c: x.Type}
	case rename.Ref:
		return e.valueOf(x.V)
	case rename.Join:
		if len(x.Parts) == 0 {
			return vec{isConst: true, c: e.lat.Bottom()}
		}
		acc := e.encodeExpr(x.Parts[0])
		for _, part := range x.Parts[1:] {
			acc = e.encodeJoin(acc, e.encodeExpr(part))
		}
		return acc
	default:
		return vec{isConst: true, c: e.lat.Top()}
	}
}

// encodeJoin encodes Z = A ⊔ B.
func (e *encoder) encodeJoin(a, b vec) vec {
	if a.isConst && b.isConst {
		return vec{isConst: true, c: e.lat.Join(a.c, b.c)}
	}
	if a.isConst && a.c == e.lat.Bottom() {
		return b // ⊥ ⊔ B = B
	}
	if b.isConst && b.c == e.lat.Bottom() {
		return a
	}
	if a.isConst && a.c == e.lat.Top() {
		return a // ⊤ ⊔ B = ⊤
	}
	if b.isConst && b.c == e.lat.Top() {
		return b
	}
	z := e.newOneHot()
	switch {
	case a.isConst:
		for b1, bv := range b.vars {
			e.addClause(sat.Lit(-bv), sat.Lit(z[e.lat.Join(a.c, lattice.Elem(b1))]))
		}
	case b.isConst:
		for a1, av := range a.vars {
			e.addClause(sat.Lit(-av), sat.Lit(z[e.lat.Join(lattice.Elem(a1), b.c)]))
		}
	default:
		for a1, av := range a.vars {
			for b1, bv := range b.vars {
				j := e.lat.Join(lattice.Elem(a1), lattice.Elem(b1))
				e.addClause(sat.Lit(-av), sat.Lit(-bv), sat.Lit(z[j]))
			}
		}
	}
	return vec{vars: z}
}

// encodeEquation encodes t(V) = g ? RHS : t(Prev).
func (e *encoder) encodeEquation(eq constraint.Equation) {
	g := e.encodeGuard(eq.Guard)
	rhs := e.encodeExpr(eq.RHS)
	prev := e.valueOf(eq.Prev)

	if g.isConst {
		if g.b {
			e.vals[eq.V] = rhs
		} else {
			e.vals[eq.V] = prev
		}
		return
	}
	if rhs.isConst && prev.isConst && rhs.c == prev.c {
		e.vals[eq.V] = rhs
		return
	}

	x := e.newOneHot()
	if rhs.isConst {
		e.addClause(g.lit.Not(), sat.Lit(x[rhs.c]))
	} else {
		for a, av := range rhs.vars {
			e.addClause(g.lit.Not(), sat.Lit(-av), sat.Lit(x[a]))
		}
	}
	if prev.isConst {
		e.addClause(g.lit, sat.Lit(x[prev.c]))
	} else {
		for a, av := range prev.vars {
			e.addClause(g.lit, sat.Lit(-av), sat.Lit(x[a]))
		}
	}
	e.vals[eq.V] = vec{vars: x}
}

// badElems returns, indexed by lattice element, the elements violating
// t < bound.
func (e *encoder) badElems(bound lattice.Elem) []bool {
	bad := make([]bool, e.lat.Size())
	for i := range bad {
		bad[i] = true
	}
	for _, el := range e.lat.DownStrict(bound) {
		bad[el] = false
	}
	return bad
}

// negateCheck adds ¬C(assert, g) = g ∧ (some argument violates the bound).
func (e *encoder) negateCheck(ch constraint.Check) {
	g := e.encodeGuard(ch.Guard)
	if g.isConst && !g.b {
		e.unsat = true // unreachable assertion can never fail
		return
	}
	if !g.isConst {
		e.addClause(g.lit)
	}

	bad := e.badElems(ch.Origin.Bound)
	var fail []sat.Lit
	for _, arg := range ch.Origin.Args {
		v := e.encodeExpr(arg.Expr)
		if v.isConst {
			if bad[v.c] {
				return // constant violation: B_i needs no failure clause
			}
			continue
		}
		for a, av := range v.vars {
			if bad[lattice.Elem(a)] {
				fail = append(fail, sat.Lit(av))
			}
		}
	}
	if len(fail) == 0 {
		e.unsat = true // no argument can ever violate
		return
	}
	e.addClause(fail...)
}

// assumeCheckHolds adds C(assert, g) positively: g ⇒ every argument below
// the bound.
func (e *encoder) assumeCheckHolds(ch constraint.Check) {
	g := e.encodeGuard(ch.Guard)
	if g.isConst && !g.b {
		return
	}
	bad := e.badElems(ch.Origin.Bound)
	for _, arg := range ch.Origin.Args {
		v := e.encodeExpr(arg.Expr)
		if v.isConst {
			if bad[v.c] && !g.isConst {
				e.addClause(g.lit.Not())
			} else if bad[v.c] && g.isConst && g.b {
				e.unsat = true
			}
			continue
		}
		for a, av := range v.vars {
			if !bad[lattice.Elem(a)] {
				continue
			}
			if g.isConst {
				e.addClause(sat.Lit(-av))
			} else {
				e.addClause(g.lit.Not(), sat.Lit(-av))
			}
		}
	}
}

// BlockingClause appends to dst the negation clause N of a model's BN
// values (§3.3.2): added to B_i, it excludes that branch assignment from
// further enumeration. With trace nil the clause ranges over all of BN;
// otherwise it ranges over the trace's decisions (trace-relevant
// blocking), which must have been read from the same model. The solver
// sorts a clause when it adds it, so the literal order here is free.
func (enc *Encoded) BlockingClause(dst []sat.Lit, model []bool, trace []ai.Decision) []sat.Lit {
	if trace == nil {
		for _, v := range enc.BranchVars {
			dst = append(dst, sat.MkLit(v, model[v]))
		}
		return dst
	}
	for _, d := range trace {
		if v, ok := enc.BranchVars[d.ID]; ok {
			dst = append(dst, sat.MkLit(v, model[v]))
		}
	}
	return dst
}
