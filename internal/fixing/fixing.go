// Package fixing implements the counterexample analysis of §3.3.3–§3.3.4:
// from the error traces the bounded model checker produced, it computes
// each violating variable's replacement set (Lemma 1), reduces the search
// for a minimum effective fixing set to MINIMUM-INTERSECTING-SET (proved
// NP-complete by reduction from VERTEX-COVER), and solves it either
// exactly (branch and bound, small instances) or with Chvátal's greedy
// set-cover heuristic, whose 1+ln|S| approximation the paper adopts.
//
// The output is a set of fix points: concrete source spans (assignment
// right-hand sides, or sink arguments when the taint enters the program at
// the very sink) that the instrumentor wraps in sanitization runtime
// guards. Patching the minimum fixing set removes every error trace —
// errors are repaired at their causes, not at each propagated symptom.
package fixing

import (
	"fmt"
	"sort"
	"strconv"

	"webssari/internal/core"
	"webssari/internal/php/token"
	"webssari/internal/rename"
)

// FixPoint is a concrete patch location: a source span to wrap in a
// sanitization routine.
type FixPoint struct {
	// Set is the defining assignment to sanitize, when the fix point is an
	// error introduction; nil for sink-argument fixes.
	Set *rename.Set
	// Assert and ArgPos identify a sink argument to sanitize when no
	// in-program assignment introduces the taint (e.g. echo $_GET['x']).
	Assert *rename.Assert
	ArgPos int

	// key caches Key, set by Analysis.intern.
	key string
}

// Key canonically identifies the fix point by its source span:
// "<pos>+<end>". Analyze computes it once, when it interns the fix
// point; a FixPoint built any other way computes it on every call.
func (f *FixPoint) Key() string {
	if f.key != "" {
		return f.key
	}
	return f.spanKey()
}

func (f *FixPoint) spanKey() string {
	pos, end := f.Span()
	var buf [64]byte
	b := pos.Append(buf[:0])
	b = append(b, '+')
	return string(strconv.AppendInt(b, int64(end), 10))
}

// Span returns the source span the guard wraps. A fix point with neither
// a defining assignment nor an assertion has no span (zero Pos).
func (f *FixPoint) Span() (pos token.Pos, end int) {
	if f.Set != nil {
		return f.Set.Origin.RHSPos, f.Set.Origin.RHSEnd
	}
	if f.Assert == nil {
		return token.Pos{}, 0
	}
	for _, a := range f.Assert.Origin.Args {
		if a.ArgPos == f.ArgPos {
			return a.Pos, a.End
		}
	}
	return f.Assert.Origin.Site.Pos, f.Assert.Origin.Site.End
}

// Describe renders the fix point for reports.
func (f *FixPoint) Describe() string {
	if f.Set != nil {
		name := f.Set.Origin.SrcVar
		if name == "" {
			name = f.Set.V.Name
		}
		return fmt.Sprintf("sanitize $%s at %s", name, f.Set.Origin.Site.Pos)
	}
	if f.Assert == nil {
		return "invalid fix point"
	}
	return fmt.Sprintf("sanitize argument %d of %s at %s",
		f.ArgPos, f.Assert.Origin.Fn, f.Assert.Origin.Site.Pos)
}

// Constraint is one covering requirement: for the violating variable Var
// of counterexample Cex, at least one fix point in Options must be chosen
// (the replacement set s_vα of Lemma 1, mapped to patchable locations).
type Constraint struct {
	Cex *core.Counterexample
	Var rename.SSAVar
	// Replacement is s_vα: the SSA variables whose sanitization each fixes
	// this violation (Lemma 1).
	Replacement []rename.SSAVar
	// Options are the patchable fix points corresponding to Replacement
	// (plus the sink-argument fallback when none is patchable).
	Options []*FixPoint
}

// Analysis is the complete counterexample analysis of one verification run.
type Analysis struct {
	Result      *core.Result
	Constraints []Constraint
	// fixPoints dedups fix points by span.
	fixPoints map[string]*FixPoint
}

// Analyze computes replacement sets and fix-point constraints for every
// counterexample of a verification result.
func Analyze(res *core.Result) *Analysis {
	a := &Analysis{
		Result:    res,
		fixPoints: make(map[string]*FixPoint),
	}
	for _, cex := range res.Counterexamples() {
		for _, v := range cex.Violating {
			repl := ReplacementSet(res.Renamed, cex, v)
			con := Constraint{Cex: cex, Var: v, Replacement: repl}
			for _, rv := range repl {
				def := res.Renamed.Defs[rv]
				if def == nil || !def.Origin.Patchable() {
					continue
				}
				con.Options = append(con.Options, a.intern(&FixPoint{Set: def}))
			}
			if len(con.Options) == 0 {
				// The taint enters at the sink itself: patch the argument.
				argPos := violatingArgPos(cex, v)
				con.Options = append(con.Options, a.intern(&FixPoint{
					Assert: cex.Assert,
					ArgPos: argPos,
				}))
			}
			a.Constraints = append(a.Constraints, con)
		}
	}
	return a
}

// intern returns the analysis' fix point for f's span, adopting f (with
// its key stamped) when the span is new. Fix points are therefore unique
// per key, and pointer identity is key identity.
func (a *Analysis) intern(f *FixPoint) *FixPoint {
	f.key = f.spanKey()
	if existing, ok := a.fixPoints[f.key]; ok {
		return existing
	}
	a.fixPoints[f.key] = f
	return f
}

// violatingArgPos finds the assertion argument that reads the violating
// variable.
func violatingArgPos(cex *core.Counterexample, v rename.SSAVar) int {
	for _, i := range cex.FailingArgs {
		arg := cex.Assert.Args[i]
		for _, ref := range rename.ExprRefs(arg.Expr) {
			if ref == v {
				return arg.ArgPos
			}
		}
	}
	if len(cex.Assert.Args) > 0 {
		return cex.Assert.Args[0].ArgPos
	}
	return 1
}

// ReplacementSet computes s_vα for a violating variable along an error
// trace (§3.3.3): starting from vα, it walks backwards through the single
// assignments executed on the trace, adding each variable that serves as
// the unique r-value of a single assignment — sanitizing any member has
// the same effect as sanitizing vα (Lemma 1).
func ReplacementSet(p *rename.Program, cex *core.Counterexample, v rename.SSAVar) []rename.SSAVar {
	executed := make(map[rename.SSAVar]bool, len(cex.Steps))
	for _, s := range cex.Steps {
		executed[s.Set.V] = true
	}
	var out []rename.SSAVar
	seen := make(map[rename.SSAVar]bool)
	cur := effectiveVar(executed, v)
	for {
		if seen[cur] {
			break
		}
		seen[cur] = true
		if cur.Idx == 0 {
			// Initial value (external data): no in-program introduction.
			break
		}
		out = append(out, cur)
		def := p.Defs[cur]
		if def == nil {
			break
		}
		next, ok := uniqueRValue(p, def.RHS)
		if !ok {
			break
		}
		cur = effectiveVar(executed, next)
	}
	return out
}

// effectiveVar resolves an SSA variable to the index actually assigned on
// the trace, given the set of variables the trace's steps assigned: if
// vα's defining assignment was not executed (its branch was not taken),
// the value observed is that of a lower index.
func effectiveVar(executed map[rename.SSAVar]bool, v rename.SSAVar) rename.SSAVar {
	for v.Idx > 0 && !executed[v] {
		v.Idx--
	}
	return v
}

// uniqueRValue reports the single variable the expression's value solely
// depends on, if any: a bare reference, or a join whose other parts are
// all ⊥ constants (string concatenation with trusted literals).
func uniqueRValue(p *rename.Program, e rename.Expr) (rename.SSAVar, bool) {
	switch e := e.(type) {
	case rename.Ref:
		return e.V, true
	case rename.Join:
		var ref rename.SSAVar
		found := false
		for _, part := range e.Parts {
			switch part := part.(type) {
			case rename.Const:
				if part.Type != p.AI.Lat.Bottom() {
					return rename.SSAVar{}, false
				}
			case rename.Ref:
				if found {
					return rename.SSAVar{}, false // two variables: not unique
				}
				ref = part.V
				found = true
			default:
				return rename.SSAVar{}, false
			}
		}
		return ref, found
	default:
		return rename.SSAVar{}, false
	}
}

// NaiveFix returns the naive fixing set V_R^n: one fix point per violating
// variable, at its own introduction (no replacement-set sharing) — the
// strategy the paper's TS algorithm effectively used, patching every
// symptom.
func (a *Analysis) NaiveFix() []*FixPoint {
	seen := make(map[*FixPoint]bool)
	var out []*FixPoint
	for _, con := range a.Constraints {
		if len(con.Options) == 0 {
			continue
		}
		f := con.Options[0]
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// GreedyMinimalFix solves the MINIMUM-INTERSECTING-SET instance with
// Chvátal's greedy set-cover heuristic (§3.3.4): repeatedly choose the fix
// point covering the most unsatisfied constraints.
func (a *Analysis) GreedyMinimalFix() []*FixPoint {
	type candidate struct {
		f     *FixPoint
		cover []int
	}
	coverage := make(map[*FixPoint]*candidate)
	var candidates []*candidate
	uncovered := make([]bool, len(a.Constraints))
	remaining := 0
	for i, con := range a.Constraints {
		for _, f := range con.Options {
			c, ok := coverage[f]
			if !ok {
				c = &candidate{f: f}
				coverage[f] = c
				candidates = append(candidates, c)
			}
			c.cover = append(c.cover, i)
		}
		if len(con.Options) > 0 {
			uncovered[i] = true
			remaining++
		}
	}
	// Deterministic tie-breaking: scan candidates in key order.
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].f.Key() < candidates[j].f.Key() })

	var out []*FixPoint
	for remaining > 0 {
		var best *candidate
		bestGain := 0
		for _, c := range candidates {
			gain := 0
			for _, i := range c.cover {
				if uncovered[i] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain = gain
				best = c
			}
		}
		if best == nil {
			break // remaining constraints have no options
		}
		out = append(out, best.f)
		for _, i := range best.cover {
			if uncovered[i] {
				uncovered[i] = false
				remaining--
			}
		}
	}
	return out
}

// ExactMinimalFix solves MINIMUM-INTERSECTING-SET exactly by branch and
// bound, pruning with the greedy solution as the initial upper bound. It
// refuses instances with more than maxPoints candidate fix points
// (returning the greedy solution), since the problem is NP-complete.
// Only tests call it, as the optimum the greedy fix is checked against
// (TestFigure7MinimalFix, TestExactBeatsGreedyOnAdversarialInstance).
func (a *Analysis) ExactMinimalFix(maxPoints int) []*FixPoint {
	greedy := a.GreedyMinimalFix()
	if len(a.fixPoints) > maxPoints {
		return greedy
	}

	// Collect candidates and the constraints each covers.
	keys := make([]string, 0, len(a.fixPoints))
	for k := range a.fixPoints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	covers := make([][]int, len(keys))
	keyIdx := make(map[*FixPoint]int, len(keys))
	for i, k := range keys {
		keyIdx[a.fixPoints[k]] = i
	}
	var active []int
	for ci, con := range a.Constraints {
		if len(con.Options) == 0 {
			continue
		}
		active = append(active, ci)
		for _, f := range con.Options {
			i := keyIdx[f]
			covers[i] = append(covers[i], ci)
		}
	}

	best := make([]int, 0, len(greedy))
	bestLen := len(greedy)
	var cur []int

	conCovered := make(map[int]int) // constraint → count of chosen coverers

	var optionsOf = func(ci int) []*FixPoint { return a.Constraints[ci].Options }

	var solve func(pos int)
	solve = func(pos int) {
		if len(cur) >= bestLen {
			return
		}
		// Find the first uncovered constraint.
		target := -1
		for _, ci := range active {
			if conCovered[ci] == 0 {
				target = ci
				break
			}
		}
		if target == -1 {
			// All covered: record improvement.
			best = append(best[:0], cur...)
			bestLen = len(cur)
			return
		}
		// Branch on each option covering the target constraint.
		for _, f := range optionsOf(target) {
			i := keyIdx[f]
			cur = append(cur, i)
			for _, ci := range covers[i] {
				conCovered[ci]++
			}
			solve(pos + 1)
			for _, ci := range covers[i] {
				conCovered[ci]--
			}
			cur = cur[:len(cur)-1]
		}
	}
	solve(0)

	if bestLen >= len(greedy) {
		return greedy
	}
	out := make([]*FixPoint, 0, bestLen)
	for _, i := range best {
		out = append(out, a.fixPoints[keys[i]])
	}
	return out
}
