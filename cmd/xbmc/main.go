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
// (incomplete) instead of claiming the program safe. The -j flag fans
// independent assertions out across a worker pool, and -v prints the
// run profile (per-stage wall time and solver effort) to stderr.
//
// The -solver-mode flag selects the solver dispatch mode — per-assert
// (default) or shared (one incremental solver per file, learnt clauses
// carried across assertions) — in every local mode, and the selection
// travels with -remote submissions as the job's solver spec.
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
	"webssari/internal/cnf"
	"webssari/internal/constraint"
	"webssari/internal/core"
	"webssari/internal/flow"
	"webssari/internal/ir"
	"webssari/internal/policy"
	"webssari/internal/prelude"
	"webssari/internal/rename"
	"webssari/internal/sat"
	"webssari/internal/service"
	"webssari/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xbmc", flag.ContinueOnError)
	var (
		stage       = fs.String("stage", "", "dump a pipeline stage: ai | renamed | constraints | cnf")
		dumpIR      = fs.Bool("dump-ir", false, "print each file's typed flow IR and exit (no solving)")
		naive       = fs.Bool("naive", false, "use the xBMC0.1 location-variable encoding")
		unroll      = fs.Int("unroll", 1, "loop deconstruction factor")
		policyArg   = fs.String("policy", "", "security policy: a built-in name or a policy JSON file")
		outDir      = fs.String("o", "", "directory for DIMACS dumps (with -stage cnf)")
		timeout     = fs.Duration("timeout", 0, "wall-clock deadline for verification (0 = none)")
		maxConf     = fs.Uint64("max-conflicts", 0, "SAT conflict budget per solver call (0 = unlimited)")
		solverMode  = fs.String("solver-mode", "", "solver dispatch mode: per-assert|shared")
		jobs        = fs.Int("j", 0, "assertion-level worker count (0 = sequential)")
		verbose     = fs.Bool("v", false, "print the run profile to stderr")
		traceFile   = fs.String("trace", "", "write Chrome trace-event JSON to this file")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof on this address (\":0\" picks a free port)")
		logLevel    = fs.String("log-level", "info", "structured log level: debug|info|warn|error")
		logFormat   = fs.String("log-format", "text", "structured log encoding: text|json")
		ndjsonOut   = fs.Bool("ndjson", false, "directory mode: stream per-file reports as NDJSON to stdout")
		storeDir    = fs.String("store", "", "directory mode: persistent result store directory (\"\" disables)")
		incremental = fs.Bool("incremental", false, "directory mode: delta re-verification via the dependency graph (requires -store)")
		remoteURL   = fs.String("remote", "", "verify via a webssarid daemon at this base URL instead of in-process")
		watchMode   = fs.Bool("watch", false, "remote directory mode: re-verify on every change until interrupted")
		version     = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Println(buildinfo.Version("xbmc"))
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "xbmc: exactly one PHP file or directory expected")
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "xbmc: -j must be ≥ 0, got %d\n", *jobs)
		return 2
	}
	if *dumpIR {
		if *remoteURL != "" || *stage != "" || *naive {
			fmt.Fprintln(os.Stderr, "xbmc: -dump-ir cannot combine with -remote, -stage, or -naive")
			return 2
		}
		if err := ir.DumpTree(os.Stdout, os.Stderr, fs.Arg(0)); err != nil {
			fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
			return 2
		}
		return 0
	}
	if *watchMode && *remoteURL == "" {
		fmt.Fprintln(os.Stderr, "xbmc: -watch requires -remote (watch jobs run on the daemon)")
		return 2
	}
	pc, policyName, policyJSON, err := resolvePolicy(*policyArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: -policy %s: %v\n", *policyArg, err)
		return 2
	}
	// Resolved up front so an unknown mode errors identically in local,
	// directory, and remote modes.
	coreMode, err := resolveSolverMode(*solverMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return 2
	}
	var solverSpec *client.SolverSpec
	if *solverMode != "" {
		solverSpec = &client.SolverSpec{Mode: *solverMode}
	}
	if *remoteURL != "" {
		if *stage != "" || *naive {
			fmt.Fprintln(os.Stderr, "xbmc: -stage and -naive are local-only; they cannot combine with -remote")
			return 2
		}
		return runRemote(fs.Arg(0), *remoteURL, policyName, policyJSON, solverSpec, *incremental, *watchMode, *ndjsonOut, *timeout)
	}
	if *incremental && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "xbmc: -incremental requires -store (the dependency graph lives in the result store)")
		return 2
	}

	lvl, err := telemetry.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return 2
	}
	logger, err := telemetry.NewLogger(os.Stderr, lvl, *logFormat, telemetry.DefaultFlightRecorderSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return 2
	}
	var tel *telemetry.Telemetry
	if *traceFile != "" || *metricsAddr != "" {
		tel = telemetry.New()
		tel.Logs = logger.Recorder()
	}
	if *traceFile != "" {
		// Registered before anything that can fail below (the metrics
		// listener, store open, …) so an early error exit still leaves a
		// trace file of whatever spans were recorded.
		defer func() {
			if err := writeTraceFile(*traceFile, tel); err != nil {
				fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
			}
		}()
	}
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, tel.Metrics, tel.Logs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "xbmc: metrics served at http://%s/metrics\n", srv.Addr)
	}

	target := fs.Arg(0)
	logger.Debug("verifying", "target", target)
	if info, err := os.Stat(target); err == nil && info.IsDir() {
		if *stage != "" || *naive {
			fmt.Fprintln(os.Stderr, "xbmc: -stage and -naive need a single PHP file, not a directory")
			return 2
		}
		opts := []webssari.Option{webssari.WithLoopUnroll(*unroll)}
		switch {
		case policyJSON != "":
			opts = append(opts, webssari.WithPolicyJSON(policyName, []byte(policyJSON)))
		case policyName != "":
			opts = append(opts, webssari.WithPolicy(policyName))
		}
		if *jobs > 0 {
			opts = append(opts, webssari.WithParallelism(*jobs))
		}
		if *timeout > 0 {
			opts = append(opts, webssari.WithDeadline(*timeout))
		}
		if *solverMode != "" || *maxConf > 0 {
			opts = append(opts, webssari.WithSolverConfig(webssari.SolverConfig{
				Mode:         webssari.SolverMode(*solverMode),
				MaxConflicts: *maxConf,
			}))
		}
		if tel != nil {
			opts = append(opts, webssari.WithTelemetry(tel))
		}
		if *storeDir != "" {
			st, err := webssari.OpenStore(*storeDir, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xbmc: opening store: %v\n", err)
				return 2
			}
			opts = append(opts, webssari.WithStore(st))
		}
		if *incremental {
			opts = append(opts, webssari.WithIncremental())
		}
		return verifyDir(target, opts, *ndjsonOut, *verbose)
	}
	if *ndjsonOut || *storeDir != "" || *incremental {
		fmt.Fprintln(os.Stderr, "xbmc: -ndjson, -store, and -incremental apply to directory mode only")
		return 2
	}

	src, err := os.ReadFile(target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return 2
	}

	fopts := flow.Options{
		Prelude:    prelude.Default(),
		LoopUnroll: *unroll,
		Loader:     os.ReadFile,
	}
	if pc != nil {
		fopts.Prelude, fopts.Policy = nil, pc
	}

	if *stage != "" || *naive {
		prog, errs := flow.BuildSource(target, src, fopts)
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		}
		if prog == nil {
			return 2
		}
		switch *stage {
		case "ai":
			fmt.Print(prog.String())
			fmt.Printf("diameter=%d size=%d branches=%d asserts=%d\n",
				prog.Diameter(), prog.Size(), prog.Branches, len(prog.Asserts()))
			return 0
		case "renamed":
			fmt.Print(rename.Rename(prog).String())
			return 0
		case "constraints":
			fmt.Print(constraint.Build(rename.Rename(prog)).String())
			return 0
		case "cnf":
			sys := constraint.Build(rename.Rename(prog))
			for i := range sys.Checks {
				enc, err := cnf.EncodeCheck(sys, i, cnf.Options{})
				if err != nil {
					fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
					return 2
				}
				fmt.Printf("assert_%d: %d vars, %d clauses, %d branch vars\n",
					i, enc.F.NumVars, len(enc.F.Clauses), len(enc.BranchVars))
				if *outDir != "" {
					path := fmt.Sprintf("%s/assert_%d.cnf", *outDir, i)
					f, err := os.Create(path)
					if err != nil {
						fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
						return 2
					}
					if err := enc.F.WriteDIMACS(f); err != nil {
						fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
						return 2
					}
					if err := f.Close(); err != nil {
						fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
						return 2
					}
				}
			}
			return 0
		case "":
			// -naive verification below
		default:
			fmt.Fprintf(os.Stderr, "xbmc: unknown stage %q\n", *stage)
			return 2
		}
		exit := 0
		for i, a := range prog.Asserts() {
			violated, enc, err := core.VerifyAssertNaive(prog, a, sat.Options{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
				return 2
			}
			verdict := "HOLDS (unsat)"
			if violated {
				verdict = "VIOLATED"
				exit = 1
			}
			fmt.Printf("assert_%d %s at %s: %s  [xBMC0.1: %d vars, %d clauses, %d steps, %d state vars]\n",
				i, a.Fn, a.Site.Pos, verdict,
				enc.F.NumVars, len(enc.F.Clauses), enc.Steps, enc.StateVars)
		}
		return exit
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx = telemetry.WithTelemetry(ctx, tel)
	ctx, fsp := telemetry.StartRootSpan(ctx, "verify_file", "file", target)
	copts := core.Options{
		Flow:        fopts,
		Ctx:         ctx,
		Solver:      sat.Options{MaxConflicts: *maxConf},
		Parallelism: *jobs,
		Mode:        coreMode,
	}
	compileStart := time.Now()
	compiled, errs := core.Compile(target, src, copts)
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
	}
	if compiled == nil {
		fsp.End()
		return 2
	}
	compileTime := time.Since(compileStart)
	solveStart := time.Now()
	res := core.Solve(ctx, compiled, copts)
	fsp.End()
	if *verbose {
		fmt.Fprintf(os.Stderr, "xbmc: %s: compile %v, solve %v (%d assertion(s))\n",
			target, compileTime, time.Since(solveStart), len(res.PerAssert))
		cs := compiled.Stats
		fmt.Fprintf(os.Stderr, "xbmc: stages: parse %v, flow %v, rename %v, constraints %v\n",
			time.Duration(cs.ParseNS).Round(time.Microsecond),
			time.Duration(cs.FlowNS).Round(time.Microsecond),
			time.Duration(cs.RenameNS).Round(time.Microsecond),
			time.Duration(cs.ConstraintsNS).Round(time.Microsecond))
	}
	unsafeCount, unknownCount := 0, 0
	for i, ar := range res.PerAssert {
		verdict := "HOLDS (unsat)"
		switch {
		case len(ar.Counterexamples) > 0:
			verdict = fmt.Sprintf("VIOLATED: %d counterexample trace(s)", len(ar.Counterexamples))
			unsafeCount++
		case ar.Unknown:
			verdict = fmt.Sprintf("UNKNOWN (%s)", ar.Cause)
			unknownCount++
		}
		fmt.Printf("assert_%d %s at %s: %s  [%d vars, %d clauses; %s]\n",
			i, ar.Assert.Origin.Fn, ar.Assert.Origin.Site.Pos, verdict,
			ar.EncodedVars, ar.EncodedClauses, ar.SolverStats)
		if *verbose {
			fmt.Fprintf(os.Stderr, "xbmc: assert_%d: encode %v, search %v\n",
				i, ar.EncodeTime.Round(time.Microsecond), ar.SearchTime.Round(time.Microsecond))
		}
	}
	switch {
	case unsafeCount > 0:
		return 1
	case unknownCount > 0:
		fmt.Println("INCOMPLETE: some assertions are undecided; no safety claim")
		return 3
	default:
		fmt.Println("VERIFIED: program is safe")
		return 0
	}
}

// verifyDir checks every PHP file under dir through the public engine —
// the whole-project path exercises the compile cache and both fan-out
// levels, so it is where traces and metrics are most interesting. With
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
		return 2
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
	return verdictExit(pr.Verdict())
}

// verdictExit maps a three-valued verdict to the process exit code
// shared by local and remote modes: 0 safe, 1 unsafe, 3 incomplete.
func verdictExit(verdict string) int {
	switch verdict {
	case webssari.VerdictUnsafe:
		return 1
	case webssari.VerdictIncomplete:
		return 3
	default:
		return 0
	}
}

// resolveSolverMode maps the -solver-mode flag to the engine's dispatch
// mode, rejecting unknown names with the list of valid ones.
func resolveSolverMode(mode string) (core.SolveMode, error) {
	switch webssari.SolverMode(mode) {
	case "", webssari.SolverPerAssert:
		return core.ModePerAssert, nil
	case webssari.SolverShared:
		return core.ModeShared, nil
	default:
		return 0, fmt.Errorf("unknown -solver-mode %q (valid: %v)", mode, webssari.SolverModes())
	}
}

// runRemote verifies the target through a webssarid daemon via the
// typed client package, preserving the local exit-code contract. A file
// target has its source uploaded; a directory target must exist on the
// daemon's filesystem. Watch jobs stream until interrupted; Ctrl-C
// cancels the remote job before exiting.
func runRemote(target, base, policyName, policyJSON string, solver *client.SolverSpec, incremental, watch, ndjson bool, timeout time.Duration) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if timeout > 0 && !watch {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// A transient 429 (queue full) or 503 (draining) rejection retries
	// with backoff, honoring the daemon's Retry-After hint.
	c := client.New(base, client.WithRetryPolicy(client.DefaultRetryPolicy))

	info, statErr := os.Stat(target)
	if watch || (statErr == nil && info.IsDir()) {
		return runRemoteDir(ctx, c, target, policyName, policyJSON, solver, incremental, watch, ndjson)
	}

	src, err := os.ReadFile(target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return 2
	}
	sub, err := c.SubmitFile(ctx, client.SubmitFileRequest{
		Name: target, Source: string(src), Policy: policyName, PolicyJSON: policyJSON,
		Solver: solver,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return 2
	}
	if _, err := c.Wait(ctx, sub.Job); err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return 2
	}
	text, err := c.FileResultText(ctx, sub.Job)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return 2
	}
	fmt.Print(text)
	rep, err := c.FileResult(ctx, sub.Job)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return 2
	}
	return verdictExit(rep.Verdict)
}

// runRemoteDir submits one daemon-side directory job (one-shot or
// watch) and renders its outcome.
func runRemoteDir(ctx context.Context, c *client.Client, dir, policyName, policyJSON string, solver *client.SolverSpec, incremental, watch, ndjson bool) int {
	req := client.SubmitDirRequest{Dir: dir, Watch: watch, Policy: policyName, PolicyJSON: policyJSON, Solver: solver}
	if incremental {
		on := true
		req.Incremental = &on
	}
	sub, err := c.SubmitDir(ctx, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return 2
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
			return 2
		}
		if final, werr := c.Wait(cctx, sub.Job); werr == nil {
			st = final
		}
		fmt.Fprintf(os.Stderr, "xbmc: watch ended after %d round(s)\n", st.Rounds)
		return verdictExit(st.Verdict)
	}

	if _, err := c.Wait(ctx, sub.Job); err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return 2
	}
	pr, err := c.DirResult(ctx, sub.Job)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbmc: %v\n", err)
		return 2
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
	return verdictExit(pr.Verdict())
}

// writeTraceFile dumps the collected spans as Chrome trace-event JSON.
func writeTraceFile(path string, tel *telemetry.Telemetry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tel.Tracer.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resolvePolicy turns the -policy argument into its compiled form plus
// the wire fields a remote submission carries: a readable file is a
// policy JSON declaration, anything else must name a built-in policy.
func resolvePolicy(arg string) (pc *policy.Compiled, name, policyJSON string, err error) {
	if arg == "" {
		return nil, "", "", nil
	}
	if data, rerr := os.ReadFile(arg); rerr == nil {
		pc, err = policy.LoadJSON(arg, data)
		if err != nil {
			return nil, "", "", err
		}
		return pc, pc.Name(), string(data), nil
	}
	pc, err = policy.Lookup(arg)
	if err != nil {
		return nil, "", "", err
	}
	return pc, arg, "", nil
}
