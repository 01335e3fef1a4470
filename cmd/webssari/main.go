// Command webssari verifies PHP web applications against taint-style
// vulnerabilities with bounded model checking and optionally patches them
// with sanitization runtime guards — the end-to-end WebSSARI tool of the
// paper (Figure 8).
//
// Usage:
//
//	webssari [flags] file.php...     verify (and with -patch, secure) files
//	webssari -figure10 [flags]       regenerate the paper's Figure 10 table
//
// Flags:
//
//	-patch            write secured copies next to the inputs (.secured.php)
//	-json             emit machine-readable reports
//	-policy P         security policy: a built-in name
//	                  (default|xss-context|ssrf) or a policy JSON file;
//	                  the default is the paper's XSS/SQL/injection prelude
//	-prelude FILE     merge an extra prelude file (sinks/sources/sanitizers)
//	-sink NAME[:n,m]  register an extra sensitive function
//	-unroll N         loop deconstruction factor (default 1, the paper's)
//	-paper            use the paper's exact enumeration (§3.3.2)
//	-timeout D        wall-clock deadline per verification unit (e.g. 30s)
//	-max-conflicts N  SAT conflict budget per solver call (0 = unlimited)
//	-j N              files verified at once in a directory (0 =
//	                  GOMAXPROCS); a single file ignores it
//	-v                print the run profile (stage wall times, solver
//	                  effort, pool stats) to stderr
//	-trace FILE       write Chrome trace-event JSON of every pipeline span
//	                  (written even when the run exits early on an error)
//	-metrics-addr A   serve Prometheus /metrics (plus /debug/vars,
//	                  /debug/pprof/, and the /debug/events flight
//	                  recorder) on A for the run; ":0" picks a port
//	-log-level L      structured log level: debug|info|warn|error
//	-log-format F     structured log encoding: text|json
//	-dump-ir          print each input's typed flow IR (internal/ir
//	                  textual form) and exit without solving anything
//	-figure10         run TS and BMC over the synthetic Figure 10 corpus
//	-scale F          corpus statement-scale for -figure10 (default 0.02)
//	-seed N           corpus generation seed
//	-store DIR        persist verification results under DIR so unchanged
//	                  files are re-verified from disk across runs
//	-incremental      directory inputs only, requires -store: maintain a
//	                  persistent include-dependency graph and re-verify
//	                  only files whose content or transitive includes
//	                  changed since the previous run
//	-version          print version and exit
//
// Exit codes: 0 every input verified safe, 1 at least one vulnerability
// found, 3 no vulnerability found but verification was incomplete
// (deadline, budget, or resource ceiling), 2 an analysis error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"webssari"
	"webssari/internal/buildinfo"
	"webssari/internal/cli"
	"webssari/internal/core"
	"webssari/internal/corpus"
	"webssari/internal/ir"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("webssari", flag.ContinueOnError)
	sh := cli.RegisterBatch(fs)
	var (
		patch    = fs.Bool("patch", false, "write secured copies of vulnerable files")
		jsonOut  = fs.Bool("json", false, "emit JSON reports")
		htmlOut  = fs.String("html", "", "write a cross-referenced HTML report to this file")
		preludeF = fs.String("prelude", "", "extra prelude file to merge")
		sinks    multiFlag
		paper    = fs.Bool("paper", false, "paper-exact counterexample enumeration")
		fig10    = fs.Bool("figure10", false, "regenerate the Figure 10 table")
		scale    = fs.Float64("scale", 0.02, "corpus statement scale for -figure10")
		seed     = fs.Uint64("seed", 2004, "corpus generation seed")
	)
	fs.Var(&sinks, "sink", "extra sink, NAME or NAME:argpos[,argpos...] (repeatable)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitError
	}
	if sh.Version {
		fmt.Println(buildinfo.Version("webssari"))
		return cli.ExitSafe
	}

	if *fig10 {
		return runFigure10(*scale, *seed)
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "webssari: no input files (try -figure10 or pass .php files)")
		return cli.ExitError
	}
	if err := sh.Validate(false); err != nil {
		return sh.Fail(err)
	}

	if sh.DumpIR {
		for _, target := range fs.Args() {
			if err := ir.DumpTree(os.Stdout, os.Stderr, target); err != nil {
				return sh.Fail(err)
			}
		}
		return cli.ExitSafe
	}

	obs, err := sh.Start()
	if err != nil {
		return sh.Fail(err)
	}
	defer obs.Close()
	opts, err := sh.Options(obs)
	if err != nil {
		return sh.Fail(err)
	}
	if *paper {
		opts = append(opts, webssari.WithPaperEnumeration())
	}
	if *preludeF != "" {
		text, err := os.ReadFile(*preludeF)
		if err != nil {
			return sh.Fail(err)
		}
		opts = append(opts, webssari.WithExtraPrelude(string(text)))
	}
	for _, s := range sinks {
		name, argSpec, _ := strings.Cut(s, ":")
		var argPos []int
		if argSpec != "" {
			for _, part := range strings.Split(argSpec, ",") {
				n, err := strconv.Atoi(part)
				if err != nil {
					return sh.Fail(fmt.Errorf("bad -sink %q: %v", s, err))
				}
				argPos = append(argPos, n)
			}
		}
		opts = append(opts, webssari.WithSink(name, argPos...))
	}

	exit := cli.ExitSafe
	for _, file := range fs.Args() {
		obs.Logger.Debug("verifying", "file", file)
		if info, err := os.Stat(file); err == nil && info.IsDir() {
			// Whole-project verification: one report per PHP file plus the
			// Figure 10-style project totals.
			pr, err := webssari.VerifyDir(file, opts...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "webssari: %v\n", err)
				exit = cli.Worse(exit, cli.ExitError)
				continue
			}
			for _, rep := range pr.Files {
				if !rep.Safe {
					printReport(rep, *jsonOut)
				}
			}
			for _, fail := range pr.Failures {
				fmt.Fprintf(os.Stderr, "webssari: %s: %s stage: %s\n",
					fail.File, fail.Stage, fail.Cause)
			}
			fmt.Printf("project %s: %d file(s), %d vulnerable, %d incomplete, %d failed; TS symptoms %d, BMC groups %d\n",
				file, len(pr.Files), pr.VulnerableFiles, pr.IncompleteFiles,
				len(pr.Failures), pr.Symptoms, pr.Groups)
			if sh.Verbose && pr.Profile != nil {
				fmt.Fprintf(os.Stderr, "webssari: %s: %s\n", file, pr.Profile)
			}
			exit = cli.Worse(exit, cli.VerdictExit(pr.Verdict()))
			continue
		}

		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "webssari: %v\n", err)
			exit = cli.Worse(exit, cli.ExitError)
			continue
		}
		fileOpts := append([]webssari.Option{webssari.WithDir(dirOf(file))}, opts...)

		if *patch {
			patched, rep, err := webssari.Patch(src, file, fileOpts...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "webssari: %s: %v\n", file, err)
				exit = cli.Worse(exit, cli.ExitError)
				continue
			}
			printReport(rep, *jsonOut)
			if sh.Verbose {
				printStats(file, rep)
			}
			if rep.Verdict == webssari.VerdictUnsafe {
				out := strings.TrimSuffix(file, ".php") + ".secured.php"
				if err := os.WriteFile(out, patched, 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "webssari: %v\n", err)
					exit = cli.Worse(exit, cli.ExitError)
					continue
				}
				fmt.Printf("secured copy written to %s (%d runtime guard(s))\n", out, rep.Groups)
			}
			exit = cli.Worse(exit, cli.VerdictExit(rep.Verdict))
			continue
		}

		if *htmlOut != "" {
			f, err := os.Create(*htmlOut)
			if err != nil {
				return sh.Fail(err)
			}
			rep, err := webssari.VerifyToHTML(src, file, f, fileOpts...)
			closeErr := f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "webssari: %s: %v\n", file, err)
				exit = cli.Worse(exit, cli.ExitError)
				continue
			}
			if closeErr != nil {
				fmt.Fprintf(os.Stderr, "webssari: %v\n", closeErr)
				exit = cli.Worse(exit, cli.ExitError)
				continue
			}
			fmt.Printf("HTML report written to %s\n", *htmlOut)
			exit = cli.Worse(exit, cli.VerdictExit(rep.Verdict))
			continue
		}

		rep, err := webssari.Verify(src, file, fileOpts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "webssari: %s: %v\n", file, err)
			exit = cli.Worse(exit, cli.ExitError)
			continue
		}
		printReport(rep, *jsonOut)
		if sh.Verbose {
			printStats(file, rep)
		}
		exit = cli.Worse(exit, cli.VerdictExit(rep.Verdict))
	}
	return exit
}

// printStats writes one file's run profile — stage wall times, solver
// effort, store provenance — to stderr (the -v summary).
func printStats(file string, rep *webssari.Report) {
	if rep.Profile == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "webssari: %s: %s\n", file, rep.Profile)
}

func dirOf(file string) string {
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		return file[:i]
	}
	return "."
}

func printReport(rep *webssari.Report, asJSON bool) {
	if asJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			fmt.Println(string(data))
		}
		return
	}
	fmt.Print(rep)
}

// runFigure10 regenerates the paper's Figure 10: per-project TS- and
// BMC-reported error counts over the synthetic corpus.
func runFigure10(scale float64, seed uint64) int {
	fmt.Println("Figure 10: TS- and BMC-reported errors of the 38 acknowledged projects")
	fmt.Printf("%-40s %3s %6s %6s %6s\n", "Project", "A", "TS", "BMC", "paper")
	var totals corpus.Totals
	for _, prof := range corpus.Figure10() {
		prof.Files = maxInt(2, int(float64(prof.TS)*0.8))
		prof.Statements = maxInt(prof.TS*4+40, int(scale*4000))
		proj := corpus.Generate(prof, seed)
		stats, err := corpus.Run(proj, nil, core.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "webssari: %s: %v\n", prof.Name, err)
			return cli.ExitError
		}
		totals.Accumulate(stats)
		fmt.Printf("%-40s %3d %6d %6d %3d/%d\n",
			prof.Name, prof.Activity, stats.TS, stats.BMC, prof.TS, prof.BMC)
	}
	fmt.Printf("%-40s %3s %6d %6d (paper: 980/578)\n", "Total", "", totals.TS, totals.BMC)
	fmt.Printf("instrumentation reduction: %.1f%% (paper: 41.0%%)\n", totals.Reduction()*100)
	return cli.ExitSafe
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// multiFlag collects repeatable string flags.
type multiFlag []string

// String implements flag.Value.
func (m *multiFlag) String() string { return strings.Join(*m, ",") }

// Set implements flag.Value.
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
