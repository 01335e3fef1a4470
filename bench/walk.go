package main

import (
	"context"
	"sort"
	"time"

	"webssari"
	"webssari/internal/cnf"
	"webssari/internal/constraint"
	"webssari/internal/core"
	"webssari/internal/fixing"
	"webssari/internal/flow"
	"webssari/internal/ir"
	"webssari/internal/php/parser"
	"webssari/internal/prelude"
	"webssari/internal/rename"
	"webssari/internal/report"
	"webssari/internal/typestate"
)

// srcFile is one PHP entry file, named as VerifyDir names it.
type srcFile struct {
	name string
	src  []byte
}

// outcome is what a report says about one file.
type outcome struct {
	verdict  string
	symptoms int
	groups   int
}

func outcomeOf(rep *webssari.Report) outcome {
	return outcome{rep.Verdict, rep.Symptoms, rep.Groups}
}

// walkLayers are the layer walk's span names, in pipeline order, with the
// metric each one's self time is reported as.
var walkLayers = []struct{ span, metric string }{
	{"php.parse", "php.parse_ms"},
	{"ir.lower", "ir.lower_ms"},
	{"flow.build", "flow.build_ms"},
	{"typestate", "typestate.ms"},
	{"rename", "rename.ms"},
	{"constraint", "constraint.ms"},
	{"cnf.encode", "cnf.encode_ms"},
	{"core.solve", "core.solve_ms"},
	{"fixing", "fixing.ms"},
	{"report", "report.ms"},
}

// layerWalk calls each pipeline layer's entry point over files, in
// pipeline order on one goroutine, with a span around every call. It
// reports each layer's self time and work counts, and returns what the
// walk concluded about every file so callers can match it against the
// end-to-end reports. dir is the include root VerifyDir would use.
func layerWalk(r *run, files []srcFile, dir string) map[string]outcome {
	tr := r.tr
	fopts := flow.Options{Prelude: prelude.Default(), Dir: dir}
	copts := core.Options{Flow: fopts, Parallelism: 1}
	encOpts := cnf.Options{MaxVars: core.DefaultMaxVars, MaxClauses: core.DefaultMaxClauses}
	var counts struct {
		bytes, cmds, symptoms, checks, vars, clauses, cexs, decisions, conflicts, groups, naive int64
	}
	var solveEncode time.Duration
	out := make(map[string]outcome, len(files))
	start := time.Now()
	for _, f := range files {
		root := tr.begin("walk_file", f.name, 0)
		layer := func(name string, fn func()) {
			id := tr.begin(name, f.name, root)
			fn()
			tr.end(id)
		}
		var parsed *parser.Result
		layer("php.parse", func() { parsed = parser.Parse(f.name, f.src) })
		var unit *ir.Unit
		var err error
		layer("ir.lower", func() { unit, err = ir.Lower(parsed.File) })
		if err != nil {
			tr.end(root)
			r.check(false, "walk: lowering %s: %v", f.name, err)
			continue
		}
		var prog *core.Program
		layer("flow.build", func() {
			prog = &core.Program{Unit: unit}
			prog.AI, err = flow.BuildUnit(unit, fopts)
		})
		if err != nil {
			tr.end(root)
			r.check(false, "walk: building %s: %v", f.name, err)
			continue
		}
		var symptoms int
		layer("typestate", func() { symptoms = typestate.Count(prog.AI) })
		layer("rename", func() { prog.Renamed = rename.Rename(prog.AI) })
		layer("constraint", func() { prog.System = constraint.Build(prog.Renamed) })
		layer("cnf.encode", func() {
			for i := range prog.System.Checks {
				enc, eerr := cnf.EncodeCheck(prog.System, i, encOpts)
				if eerr != nil {
					err = eerr
					return
				}
				counts.vars += int64(enc.F.NumVars)
				counts.clauses += int64(len(enc.F.Clauses))
			}
		})
		if err != nil {
			tr.end(root)
			r.check(false, "walk: encoding %s: %v", f.name, err)
			continue
		}
		for _, perr := range parsed.Errs {
			prog.ParseErrors = append(prog.ParseErrors, perr.Error())
		}
		var res *core.Result
		layer("core.solve", func() { res = core.Solve(context.Background(), prog, copts) })
		var analysis *fixing.Analysis
		layer("fixing", func() { analysis = fixing.Analyze(res) })
		var rep *report.Report
		layer("report", func() {
			rep = report.Build(res, analysis)
			_ = rep.String()
		})
		tr.end(root)

		o := outcome{verdict: webssari.VerdictSafe, symptoms: rep.SymptomCount(), groups: rep.GroupCount()}
		switch {
		case !res.Safe():
			o.verdict = webssari.VerdictUnsafe
		case rep.Incomplete:
			o.verdict = webssari.VerdictIncomplete
		}
		out[f.name] = o
		counts.bytes += int64(len(f.src))
		counts.cmds += int64(prog.AI.Size())
		counts.symptoms += int64(symptoms)
		counts.checks += int64(len(prog.System.Checks))
		counts.groups += int64(rep.GroupCount())
		counts.naive += int64(len(analysis.NaiveFix()))
		for _, ar := range res.PerAssert {
			solveEncode += ar.EncodeTime
			counts.cexs += int64(len(ar.Counterexamples))
			counts.decisions += int64(ar.SolverStats.Decisions)
			counts.conflicts += int64(ar.SolverStats.Conflicts)
		}
	}
	wall := time.Since(start)

	self := tr.selfTimes()
	var layers time.Duration
	for _, l := range walkLayers {
		r.metric(l.metric, ms(self[l.span]), "ms")
		layers += self[l.span]
	}
	r.metric("core.search_ms", ms(self["core.solve"]-solveEncode), "ms")
	r.metric("walk.coverage_pct", 100*float64(layers)/float64(wall), "%")
	r.metric("walk.files", float64(len(out)), "count")
	r.metric("walk.wall_ms", ms(wall), "ms")
	walkCounts := map[string]int64{
		"php.bytes": counts.bytes, "ai.cmds": counts.cmds, "typestate.symptoms": counts.symptoms,
		"constraint.checks": counts.checks, "cnf.vars": counts.vars, "cnf.clauses": counts.clauses,
		"core.counterexamples": counts.cexs, "sat.decisions": counts.decisions,
		"sat.conflicts": counts.conflicts, "fixing.groups": counts.groups, "fixing.naive": counts.naive,
	}
	names := make([]string, 0, len(walkCounts))
	for name := range walkCounts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.metric(name, float64(walkCounts[name]), "count")
	}
	r.checkCounts(walkCounts)
	return out
}

// matchWalk checks the walk's conclusion about every walked file against
// the end-to-end report of the same file.
func matchWalk(r *run, walk map[string]outcome, e2e map[string]outcome) {
	for name, w := range walk {
		got, ok := e2e[name]
		r.check(ok && got == w, "walk says %s is %+v, the end-to-end report %+v", name, w, got)
	}
}
