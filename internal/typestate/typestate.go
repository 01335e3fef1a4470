// Package typestate implements the paper's earlier TS verification
// algorithm (Huang et al., WWW 2004), the baseline the bounded model
// checker is compared against in Figure 10. TS is a typestate-inspired
// flow-sensitive dataflow analysis: it performs a single breadth-first
// pass over the control-flow graph, merging variable safety types with the
// lattice join at branch joins, and reports every program point whose SOC
// precondition may be violated.
//
// TS trades space and accuracy for speed: it is polynomial-time, but
//
//   - it reports *symptoms* — one error per violating statement — rather
//     than causes, so a single tainted root yields one report (and one
//     runtime guard) per sink it reaches;
//   - it produces no counterexample traces, so reports cannot show how the
//     taint arrived.
//
// Running TS and xBMC over the same abstract interpretation makes the
// Figure 10 comparison an apples-to-apples measurement of symptom counts
// vs error-introduction counts.
package typestate

import (
	"fmt"
	"slices"

	"webssari/internal/ai"
	"webssari/internal/flow"
	"webssari/internal/ir"
	"webssari/internal/lattice"
)

// Report is one TS error: a sensitive call whose precondition may fail.
type Report struct {
	// Assert is the violated SOC precondition.
	Assert *ai.Assert
	// Args indexes the checked arguments whose merged type breaches the
	// bound.
	Args []int
	// ArgTypes holds the merged (join-over-paths) type of each checked
	// argument.
	ArgTypes []lattice.Elem
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("%s: unsanitized data may reach %s", r.Assert.Site, r.Assert.Fn)
}

// env is the abstract state: the safety type of each variable, indexed by
// the checker's slot numbers, plus liveness (a stopped path contributes
// nothing at merges).
type env struct {
	types []lattice.Elem
	dead  bool
}

func (e *env) clone() *env {
	return &env{types: slices.Clone(e.types), dead: e.dead}
}

// Check runs the TS analysis over an abstract interpretation and returns
// every violating statement, in textual order.
func Check(p *ai.Program) []Report {
	c := &checker{lat: p.Lat, slot: make(map[string]int, len(p.InitialTypes))}
	for name := range p.InitialTypes {
		c.number(name)
	}
	c.numberSets(p.Cmds)
	// A variable nothing has set reads as ⊥, which is handle 0, the zero
	// value of every slot.
	state := &env{types: make([]lattice.Elem, len(c.slot))}
	for name, t := range p.InitialTypes {
		state.types[c.slot[name]] = t
	}
	c.run(p.Cmds, state)
	return c.reports
}

// Count returns the number of TS-reported errors (the paper's per-project
// "TS" column in Figure 10).
func Count(p *ai.Program) int { return len(Check(p)) }

// CheckUnit runs the TS analysis over a lowered IR unit: it builds the
// same AI(F(p)) the model checker consumes — so TS and xBMC literally
// share one front end — and interprets it.
func CheckUnit(unit *ir.Unit, opts flow.Options) ([]Report, error) {
	prog, err := flow.BuildUnit(unit, opts)
	if err != nil {
		return nil, err
	}
	return Check(prog), nil
}

// CountUnit returns the TS error count for a lowered unit.
func CountUnit(unit *ir.Unit, opts flow.Options) (int, error) {
	reports, err := CheckUnit(unit, opts)
	if err != nil {
		return 0, err
	}
	return len(reports), nil
}

type checker struct {
	lat *lattice.Lattice
	// slot numbers every variable that has an initial type or is set.
	slot    map[string]int
	reports []Report
}

func (c *checker) number(name string) {
	if _, ok := c.slot[name]; !ok {
		c.slot[name] = len(c.slot)
	}
}

func (c *checker) numberSets(cmds []ai.Cmd) {
	for _, cmd := range cmds {
		switch cmd := cmd.(type) {
		case *ai.Set:
			c.number(cmd.Var)
		case *ai.If:
			c.numberSets(cmd.Then)
			c.numberSets(cmd.Else)
		}
	}
}

func (c *checker) typeOf(e ai.Expr, s *env) lattice.Elem {
	switch e := e.(type) {
	case nil:
		return c.lat.Bottom()
	case ai.Const:
		return e.Type
	case ai.Var:
		if i, ok := c.slot[e.Name]; ok {
			return s.types[i]
		}
		return c.lat.Bottom()
	case ai.Join:
		acc := c.lat.Bottom()
		for _, part := range e.Parts {
			acc = c.lat.Join(acc, c.typeOf(part, s))
		}
		return acc
	default:
		return c.lat.Top()
	}
}

// run interprets the command sequence, mutating state in place.
func (c *checker) run(cmds []ai.Cmd, state *env) {
	for _, cmd := range cmds {
		if state.dead {
			return
		}
		switch cmd := cmd.(type) {
		case *ai.Set:
			state.types[c.slot[cmd.Var]] = c.typeOf(cmd.RHS, state)
		case *ai.Assert:
			var bad []int
			var types []lattice.Elem
			for i, arg := range cmd.Args {
				t := c.typeOf(arg.Expr, state)
				types = append(types, t)
				if !c.lat.Lt(t, cmd.Bound) {
					bad = append(bad, i)
				}
			}
			if len(bad) > 0 {
				c.reports = append(c.reports, Report{
					Assert: cmd, Args: bad, ArgTypes: types,
				})
			}
		case *ai.If:
			thenState := state.clone()
			c.run(cmd.Then, thenState)
			c.run(cmd.Else, state)
			merge(c.lat, state, thenState)
		case *ai.Stop:
			state.dead = true
		}
	}
}

// merge joins the then-arm's final state into dst, the else-arm's. A dead
// arm (ending in stop) contributes nothing.
func merge(lat *lattice.Lattice, dst, then *env) {
	switch {
	case then.dead:
	case dst.dead:
		*dst = *then
	default:
		for i, t := range then.types {
			dst.types[i] = lat.Join(dst.types[i], t)
		}
	}
}
