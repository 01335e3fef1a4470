package webssari

// Internal differential test of the counterexample analysis: it needs
// runAnalysis for the engine's result and analysis, so it lives inside
// the package.

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"webssari/internal/core"
	"webssari/internal/fixing"
	"webssari/internal/rename"
)

// referenceConstraint is one covering requirement as the reference
// analysis computes it, with each option by its key.
type referenceConstraint struct {
	cex         *core.Counterexample
	v           rename.SSAVar
	replacement []rename.SSAVar
	options     []string
}

// referenceAnalyze is fixing.Analyze as first written: the replacement
// set recomputed, with its own executed set, for every (trace, violating
// variable) pair, and every option keyed by formatting its span.
func referenceAnalyze(res *core.Result) []referenceConstraint {
	var out []referenceConstraint
	for _, cex := range res.Counterexamples() {
		for _, v := range cex.Violating {
			repl := referenceReplacementSet(res.Renamed, cex, v)
			con := referenceConstraint{cex: cex, v: v, replacement: repl}
			for _, rv := range repl {
				def := res.Renamed.Defs[rv]
				if def == nil || !def.Origin.Patchable() {
					continue
				}
				con.options = append(con.options, (&fixing.FixPoint{Set: def}).Key())
			}
			if len(con.options) == 0 {
				f := &fixing.FixPoint{Assert: cex.Assert, ArgPos: referenceArgPos(cex, v)}
				con.options = append(con.options, f.Key())
			}
			out = append(out, con)
		}
	}
	return out
}

func referenceReplacementSet(p *rename.Program, cex *core.Counterexample, v rename.SSAVar) []rename.SSAVar {
	executed := make(map[rename.SSAVar]bool, len(cex.Steps))
	for _, s := range cex.Steps {
		executed[s.Set.V] = true
	}
	effective := func(v rename.SSAVar) rename.SSAVar {
		for v.Idx > 0 && !executed[v] {
			v.Idx--
		}
		return v
	}
	var out []rename.SSAVar
	seen := make(map[rename.SSAVar]bool)
	cur := effective(v)
	for !seen[cur] {
		seen[cur] = true
		if cur.Idx == 0 {
			break
		}
		out = append(out, cur)
		def := p.Defs[cur]
		if def == nil {
			break
		}
		next, ok := referenceUniqueRValue(p, def.RHS)
		if !ok {
			break
		}
		cur = effective(next)
	}
	return out
}

func referenceUniqueRValue(p *rename.Program, e rename.Expr) (rename.SSAVar, bool) {
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
					return rename.SSAVar{}, false
				}
				ref, found = part.V, true
			default:
				return rename.SSAVar{}, false
			}
		}
		return ref, found
	}
	return rename.SSAVar{}, false
}

func referenceArgPos(cex *core.Counterexample, v rename.SSAVar) int {
	for _, i := range cex.FailingArgs {
		arg := cex.Assert.Args[i]
		if slices.Contains(rename.ExprRefs(arg.Expr), v) {
			return arg.ArgPos
		}
	}
	if len(cex.Assert.Args) > 0 {
		return cex.Assert.Args[0].ArgPos
	}
	return 1
}

// TestAnalyzeMatchesReference checks fixing.Analyze, which builds a
// trace's executed set once and interns a fix point once per defining
// assignment, against referenceAnalyze over testdata/branchy and
// examples/php under every built-in policy: each constraint's trace,
// variable, replacement set and option keys agree, and one key is one
// fix point.
func TestAnalyzeMatchesReference(t *testing.T) {
	constraints := 0
	for _, dir := range []string{"testdata/branchy", "examples/php"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.php"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: %v (%d files)", dir, err, len(paths))
		}
		for _, pol := range Policies() {
			cfg, err := buildConfig([]Option{WithPolicy(pol)})
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range paths {
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				res, analysis, _, err := runAnalysis(context.Background(), src, path, cfg)
				if err != nil {
					t.Fatalf("%s policy %s: %v", path, pol, err)
				}
				want := referenceAnalyze(res)
				if len(analysis.Constraints) != len(want) {
					t.Fatalf("%s policy %s: %d constraints, reference %d", path, pol, len(analysis.Constraints), len(want))
				}
				byKey := make(map[string]*fixing.FixPoint)
				for i, con := range analysis.Constraints {
					w := want[i]
					var keys []string
					for _, f := range con.Options {
						keys = append(keys, f.Key())
						if prev, ok := byKey[f.Key()]; ok && prev != f {
							t.Errorf("%s policy %s: two fix points for key %s", path, pol, f.Key())
						}
						byKey[f.Key()] = f
					}
					if con.Cex != w.cex || con.Var != w.v || !slices.Equal(con.Replacement, w.replacement) || !slices.Equal(keys, w.options) {
						t.Errorf("%s policy %s: constraint %d is %v %v %v, reference %v %v %v",
							path, pol, i, con.Var, con.Replacement, keys, w.v, w.replacement, w.options)
					}
				}
				constraints += len(want)
			}
		}
	}
	if constraints < 500 {
		t.Fatalf("only %d constraints compared", constraints)
	}
}
