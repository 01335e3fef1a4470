// Command xbmc exposes the bounded model checker's pipeline stages for one
// PHP file — the Figure 6 translation chain:
//
//	xbmc -stage ai file.php          print AI(F(p))
//	xbmc -stage renamed file.php     print the single-assignment form ρ
//	xbmc -stage constraints file.php print the Figure 5 constraint system
//	xbmc -stage cnf file.php         print per-assertion CNF sizes (DIMACS to -o)
//	xbmc file.php                    verify and print per-assertion results
//	xbmc dir/                        verify every PHP file under a directory
//
// The -naive flag switches to the xBMC0.1 location-variable encoding
// (§3.3.1) so its blow-up can be inspected directly.
//
// The -policy flag selects the active security policy — a built-in name
// (default|xss-context|ssrf) or a JSON policy file — in every mode;
// with -remote the declaration travels with the submission.
//
// The -timeout and -max-conflicts flags bound the search; an assertion
// left undecided prints UNKNOWN with its cause and the command exits 3
// (incomplete) instead of claiming the program safe. The -max-conflicts
// budget travels with -remote submissions as the job's solver spec. The -j flag bounds
// how many of a directory's files are verified at once (0 = GOMAXPROCS;
// a single file ignores it), and -v prints the run profile (per-stage
// wall time and solver effort; for one file, each assertion's encode
// and search time) to stderr.
//
// Observability: -trace FILE writes a Chrome trace-event JSON of every
// pipeline span (load it in chrome://tracing or Perfetto) — the file is
// written even when the run exits early on an error; -metrics-addr ADDR
// serves a Prometheus /metrics page plus /debug/vars, /debug/pprof/,
// and the /debug/events flight recorder for the duration of the run
// (":0" picks a free port; the chosen address is printed to stderr);
// -log-level and -log-format control the structured log stream on
// stderr (text or JSON).
//
// In directory mode, -ndjson replaces the plain per-file lines with the
// newline-delimited JSON stream the webssarid daemon emits — one report
// object per file as it completes, then one final project summary line —
// and -store DIR attaches the persistent result store so unchanged
// files re-verify from disk across runs. -incremental (requires -store)
// additionally maintains a persistent include-dependency graph and
// re-verifies only files whose content or transitive includes changed
// since the last run. -version prints the build's version banner and
// exits.
//
// Remote mode: -remote URL hands the target to a running webssarid
// daemon through the typed client package instead of verifying
// in-process — a file's source is uploaded, a directory path is resolved
// on the daemon's filesystem. -watch (directories only) keeps the remote
// job alive, re-verifying on every change and streaming each round's
// NDJSON lines to stdout until interrupted (Ctrl-C cancels the job
// server-side before exiting).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"webssari"
	"webssari/client"
	"webssari/internal/buildinfo"
	"webssari/internal/cli"
	"webssari/internal/cnf"
	"webssari/internal/constraint"
	"webssari/internal/core"
	"webssari/internal/flow"
	"webssari/internal/ir"
	"webssari/internal/prelude"
	"webssari/internal/rename"
	"webssari/internal/sat"
	"webssari/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xbmc", flag.ContinueOnError)
	sh := cli.RegisterBatch(fs)
	var (
		stage     = fs.String("stage", "", "dump a pipeline stage: ai | renamed | constraints | cnf")
		naive     = fs.Bool("naive", false, "use the xBMC0.1 location-variable encoding")
		outDir    = fs.String("o", "", "directory for DIMACS dumps (with -stage cnf)")
		ndjsonOut = fs.Bool("ndjson", false, "directory mode: stream per-file reports as NDJSON to stdout")
		remoteURL = fs.String("remote", "", "verify via a webssarid daemon at this base URL instead of in-process")
		watchMode = fs.Bool("watch", false, "remote directory mode: re-verify on every change until interrupted")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitError
	}
	if sh.Version {
		fmt.Println(buildinfo.Version("xbmc"))
		return cli.ExitSafe
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "xbmc: exactly one PHP file or directory expected")
		return cli.ExitError
	}
	// A -remote daemon brings its own result store for -incremental.
	if err := sh.Validate(*remoteURL != ""); err != nil {
		return sh.Fail(err)
	}
	target := fs.Arg(0)
	if sh.DumpIR {
		if *remoteURL != "" || *stage != "" || *naive {
			fmt.Fprintln(os.Stderr, "xbmc: -dump-ir cannot combine with -remote, -stage, or -naive")
			return cli.ExitError
		}
		if err := ir.DumpTree(os.Stdout, os.Stderr, target); err != nil {
			return sh.Fail(err)
		}
		return cli.ExitSafe
	}
	if *watchMode && *remoteURL == "" {
		fmt.Fprintln(os.Stderr, "xbmc: -watch requires -remote (watch jobs run on the daemon)")
		return cli.ExitError
	}
	if *remoteURL != "" {
		if *stage != "" || *naive {
			fmt.Fprintln(os.Stderr, "xbmc: -stage and -naive are local-only; they cannot combine with -remote")
			return cli.ExitError
		}
		return runRemote(target, *remoteURL, sh, *watchMode, *ndjsonOut)
	}

	obs, err := sh.Start()
	if err != nil {
		return sh.Fail(err)
	}
	defer obs.Close()
	obs.Logger.Debug("verifying", "target", target)
	info, err := os.Stat(target)
	isDir := err == nil && info.IsDir()
	if isDir && (*stage != "" || *naive) {
		fmt.Fprintln(os.Stderr, "xbmc: -stage and -naive need a single PHP file, not a directory")
		return cli.ExitError
	}
	if !isDir && (*ndjsonOut || sh.Store != "" || sh.Incremental) {
		fmt.Fprintln(os.Stderr, "xbmc: -ndjson, -store, and -incremental apply to directory mode only")
		return cli.ExitError
	}
	if *stage != "" || *naive {
		return runStage(target, *stage, *naive, *outDir, sh)
	}
	opts, err := sh.Options(obs)
	if err != nil {
		return sh.Fail(err)
	}
	if isDir {
		return verifyDir(target, opts, *ndjsonOut, sh.Verbose)
	}
	return verifyFile(target, opts, sh.Verbose)
}

// verifyFile checks one PHP file through the public engine and prints
// one line per assertion, read from the report's run profile, then the
// verdict.
func verifyFile(target string, opts []webssari.Option, verbose bool) int {
	src, err := os.ReadFile(target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return cli.ExitError
	}
	rep, err := webssari.Verify(src, target, append(opts, webssari.WithLoader(os.ReadFile))...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return cli.ExitError
	}
	for _, w := range rep.Warnings {
		fmt.Fprintf(os.Stderr, "xbmc: %s\n", w)
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "xbmc: %s: %s\n", target, rep.Profile)
	}
	for _, a := range rep.Profile.Assertions {
		verdict := "HOLDS (unsat)"
		switch {
		case a.Counterexamples > 0:
			verdict = fmt.Sprintf("VIOLATED: %d counterexample trace(s)", a.Counterexamples)
		case a.Unknown:
			verdict = fmt.Sprintf("UNKNOWN (%s)", a.Cause)
		}
		fmt.Printf("assert_%d %s at %s: %s  [%d vars, %d clauses; %s]\n",
			a.Index, a.Sink, a.Site, verdict, a.Vars, a.Clauses, a.Solver)
		if verbose {
			fmt.Fprintf(os.Stderr, "xbmc: assert_%d: encode %v, search %v\n", a.Index,
				time.Duration(a.EncodeNS).Round(time.Microsecond), time.Duration(a.SearchNS).Round(time.Microsecond))
		}
	}
	switch rep.Verdict {
	case webssari.VerdictIncomplete:
		fmt.Println("INCOMPLETE: some assertions are undecided; no safety claim")
	case webssari.VerdictSafe:
		fmt.Println("VERIFIED: program is safe")
	}
	return cli.VerdictExit(rep.Verdict)
}

// runStage prints one Figure 6 pipeline stage of a single file, or with
// -naive verifies it under the xBMC0.1 location-variable encoding.
func runStage(target, stage string, naive bool, outDir string, sh *cli.Flags) int {
	src, err := os.ReadFile(target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return cli.ExitError
	}
	fopts := flow.Options{
		Prelude:    prelude.Default(),
		LoopUnroll: sh.Unroll,
		Loader:     os.ReadFile,
	}
	if pc := sh.ResolvedPolicy().Compiled; pc != nil {
		fopts.Prelude, fopts.Policy = nil, pc
	}
	prog, errs := flow.BuildSource(target, src, fopts)
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
	}
	if prog == nil {
		return cli.ExitError
	}
	switch stage {
	case "ai":
		fmt.Print(prog.String())
		fmt.Printf("diameter=%d size=%d branches=%d asserts=%d\n",
			prog.Diameter(), prog.Size(), prog.Branches, len(prog.Asserts()))
		return cli.ExitSafe
	case "renamed":
		fmt.Print(rename.Rename(prog).String())
		return cli.ExitSafe
	case "constraints":
		fmt.Print(constraint.Build(rename.Rename(prog)).String())
		return cli.ExitSafe
	case "cnf":
		sys := constraint.Build(rename.Rename(prog))
		for i := range sys.Checks {
			enc, err := cnf.EncodeCheck(sys, i, cnf.Options{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
				return cli.ExitError
			}
			fmt.Printf("assert_%d: %d vars, %d clauses, %d branch vars\n",
				i, enc.F.NumVars, len(enc.F.Clauses), len(enc.BranchVars))
			if outDir != "" {
				path := fmt.Sprintf("%s/assert_%d.cnf", outDir, i)
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
					return cli.ExitError
				}
				if err := enc.F.WriteDIMACS(f); err != nil {
					fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
					return cli.ExitError
				}
				if err := f.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
					return cli.ExitError
				}
			}
		}
		return cli.ExitSafe
	case "":
		// -naive verification below
	default:
		fmt.Fprintf(os.Stderr, "xbmc: unknown stage %q\n", stage)
		return cli.ExitError
	}
	exit := cli.ExitSafe
	for i, a := range prog.Asserts() {
		violated, enc, err := core.VerifyAssertNaive(prog, a, sat.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
			return cli.ExitError
		}
		verdict := "HOLDS (unsat)"
		if violated {
			verdict = "VIOLATED"
			exit = cli.ExitUnsafe
		}
		fmt.Printf("assert_%d %s at %s: %s  [xBMC0.1: %d vars, %d clauses, %d steps, %d state vars]\n",
			i, a.Fn, a.Site.Pos, verdict,
			enc.F.NumVars, len(enc.F.Clauses), enc.Steps, enc.StateVars)
	}
	return exit
}

// verifyDir checks every PHP file under dir through the public engine —
// the whole-project path exercises the file pool, so it is where traces
// and metrics are most interesting. With
// ndjson set, per-file reports stream to stdout as they complete (the
// daemon's wire format) followed by one project-summary line, instead
// of the plain text lines.
func verifyDir(dir string, opts []webssari.Option, ndjson, verbose bool) int {
	var enc *service.NDJSON
	if ndjson {
		enc = service.NewNDJSON(os.Stdout)
		opts = append(opts, webssari.WithFileObserver(func(rep *webssari.Report) {
			_ = enc.Encode(rep)
		}))
	}
	pr, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return cli.ExitError
	}
	if ndjson {
		// Final line: the project aggregate, minus the per-file reports
		// already streamed above.
		summary := *pr
		summary.Files = nil
		_ = enc.Encode(&summary)
	} else {
		for _, rep := range pr.Files {
			fmt.Printf("%s: %s (%d group(s), %d symptom(s))\n",
				rep.File, rep.Verdict, rep.Groups, rep.Symptoms)
		}
	}
	for _, fail := range pr.Failures {
		fmt.Fprintf(os.Stderr, "xbmc: %s: %s stage: %s\n", fail.File, fail.Stage, fail.Cause)
	}
	if !ndjson {
		fmt.Printf("project %s: %d file(s), %d vulnerable, %d incomplete, %d failed\n",
			dir, len(pr.Files), pr.VulnerableFiles, pr.IncompleteFiles, len(pr.Failures))
	}
	if verbose && pr.Profile != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %s: %s\n", dir, pr.Profile)
	}
	return cli.VerdictExit(pr.Verdict())
}

// runRemote verifies the target through a webssarid daemon via the
// typed client package, preserving the local exit-code contract. A file
// target has its source uploaded; a directory target must exist on the
// daemon's filesystem. Watch jobs stream until interrupted; Ctrl-C
// cancels the remote job before exiting.
func runRemote(target, base string, sh *cli.Flags, watch, ndjson bool) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if sh.Timeout > 0 && !watch {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sh.Timeout)
		defer cancel()
	}
	pol := sh.ResolvedPolicy()
	var solver *client.SolverSpec
	if sc := sh.Solver(); sc != (webssari.SolverConfig{}) {
		solver = &client.SolverSpec{MaxConflicts: sc.MaxConflicts}
	}
	// A transient 429 (queue full) or 503 (draining) rejection retries
	// with backoff, honoring the daemon's Retry-After hint.
	c := client.New(base, client.WithRetryPolicy(client.DefaultRetryPolicy))

	info, statErr := os.Stat(target)
	if watch || (statErr == nil && info.IsDir()) {
		req := client.SubmitDirRequest{Dir: target, Watch: watch, Policy: pol.Name, PolicyJSON: pol.JSON, Solver: solver}
		if sh.Incremental {
			req.Incremental = &sh.Incremental
		}
		return runRemoteDir(ctx, c, req, ndjson)
	}

	src, err := os.ReadFile(target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return cli.ExitError
	}
	sub, err := c.SubmitFile(ctx, client.SubmitFileRequest{
		Name: target, Source: string(src), Policy: pol.Name, PolicyJSON: pol.JSON,
		Solver: solver,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return cli.ExitError
	}
	if _, err := c.Wait(ctx, sub.Job); err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return cli.ExitError
	}
	rep, err := c.FileResult(ctx, sub.Job)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return cli.ExitError
	}
	fmt.Print(rep)
	return cli.VerdictExit(rep.Verdict)
}

// runRemoteDir submits one daemon-side directory job (one-shot or
// watch) and renders its outcome.
func runRemoteDir(ctx context.Context, c *client.Client, req client.SubmitDirRequest, ndjson bool) int {
	dir, watch := req.Dir, req.Watch
	sub, err := c.SubmitDir(ctx, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return cli.ExitError
	}

	streamDone := make(chan error, 1)
	if ndjson || watch {
		go func() {
			streamDone <- c.Stream(ctx, sub.Job, func(line json.RawMessage) error {
				_, werr := os.Stdout.Write(append(line, '\n'))
				return werr
			})
		}()
	}

	if watch {
		// Stream until the job ends on its own (daemon drain) or the user
		// interrupts; on interrupt, cancel the remote job so the daemon
		// stops polling, then exit with the last round's verdict.
		serr := <-streamDone
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		st, cerr := c.Cancel(cctx, sub.Job)
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "xbmc: cancelling watch job: %v\n", cerr)
			if serr != nil && serr != context.Canceled {
				fmt.Fprintf(os.Stderr, "xbmc: %v\n", serr)
			}
			return cli.ExitError
		}
		if final, werr := c.Wait(cctx, sub.Job); werr == nil {
			st = final
		}
		fmt.Fprintf(os.Stderr, "xbmc: watch ended after %d round(s)\n", st.Rounds)
		return cli.VerdictExit(st.Verdict)
	}

	if _, err := c.Wait(ctx, sub.Job); err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return cli.ExitError
	}
	pr, err := c.DirResult(ctx, sub.Job)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return cli.ExitError
	}
	if ndjson {
		// Per-file lines came from the daemon's stream; close with the
		// same project-summary line local -ndjson emits.
		if serr := <-streamDone; serr != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "xbmc: %v\n", serr)
		}
		summary := *pr
		summary.Files = nil
		_ = service.NewNDJSON(os.Stdout).Encode(&summary)
	} else {
		for _, rep := range pr.Files {
			fmt.Printf("%s: %s (%d group(s), %d symptom(s))\n",
				rep.File, rep.Verdict, rep.Groups, rep.Symptoms)
		}
	}
	for _, fail := range pr.Failures {
		fmt.Fprintf(os.Stderr, "xbmc: %s: %s stage: %s\n", fail.File, fail.Stage, fail.Cause)
	}
	if !ndjson {
		fmt.Printf("project %s: %d file(s), %d vulnerable, %d incomplete, %d failed\n",
			dir, len(pr.Files), pr.VulnerableFiles, pr.IncompleteFiles, len(pr.Failures))
	}
	return cli.VerdictExit(pr.Verdict())
}
