// Command webssarid is the WebSSARI verification service: the engine of
// cmd/webssari behind an HTTP/JSON API, with a bounded job queue, NDJSON
// result streaming, and an optional persistent result store so repeated
// submissions of unchanged code answer from disk across restarts.
//
// Usage:
//
//	webssarid [flags]
//
// Flags:
//
//	-addr A            listen address for the API (default :8722; ":0"
//	                   picks a free port, printed to stderr)
//	-store DIR         persistent result store directory ("" disables)
//	-store-max-bytes N store size budget before LRU GC (0 = default
//	                   256 MiB, negative = unbounded)
//	-queue N           submission queue depth; a full queue answers 429
//	-workers N         concurrently running jobs (0 = GOMAXPROCS)
//	-j N               files a directory job verifies at once (0 =
//	                   GOMAXPROCS); file jobs ignore it
//	-timeout D         wall-clock deadline per verification unit
//	-max-conflicts N   SAT conflict budget per solver call (0 = unlimited)
//	-no-dirs           reject directory submissions (clients may then only
//	                   POST source text)
//	-incremental       default directory jobs to delta re-verification via
//	                   the persistent dependency graph (requires -store;
//	                   per-job "incremental" overrides this)
//	-watch-interval D  snapshot poll interval for watch-mode directory
//	                   jobs (default 2s)
//	-grace D           shutdown grace period for draining jobs (default 30s)
//	-metrics-addr A    serve /metrics, /debug/vars, /debug/pprof,
//	                   /debug/events on a second address (the API itself
//	                   always has /metrics and /debug/events)
//	-log-level L       structured log level: debug|info|warn|error
//	                   (default info)
//	-log-format F      structured log encoding: text|json (default text)
//	-slo D             latency objective for /v1 requests; slower requests
//	                   count in webssari_slo_breaches_total by route
//	                   (default 1s, 0 disables)
//	-slow-file D       log a warning (with trace ID) for any file whose
//	                   verification exceeds this (default 10s, 0 disables)
//	-policy P          default security policy: a built-in name
//	                   (default|xss-context|ssrf) or a policy JSON file;
//	                   per-job "policy"/"policy_json" fields override it
//	-version           print version and exit
//
// Cluster flags — a daemon is standalone by default; -coord makes it a
// coordinator, -join makes it a worker:
//
//	-coord             coordinator mode: accept worker registrations at
//	                   /v1/cluster and shard each job's files across live
//	                   workers (consistent hashing over file content).
//	                   The coordinator's -store serves repeat files
//	                   without asking a worker and keeps what workers
//	                   answer. With zero live workers jobs degrade to
//	                   local execution — they never fail for lack of a
//	                   cluster.
//	-join URL          worker mode: register with the coordinator at URL,
//	                   heartbeat, and deregister on shutdown
//	-advertise URL     base URL the coordinator should dispatch to
//	                   (default: http://<bound addr>; required when the
//	                   bound address is not reachable from the
//	                   coordinator)
//	-worker-name S     optional worker label in /v1/cluster status
//	-heartbeat D       heartbeat interval a coordinator expects (default 2s)
//	-heartbeat-misses N missed heartbeats before eviction (default 3)
//
// Workers must run with the same analysis options as the coordinator —
// registration carries a configuration fingerprint and mismatches are
// rejected — so that clustered verdicts stay byte-identical to local
// ones.
//
// API (JSON unless noted):
//
//	POST /v1/files            {"name","source"[,"dir","policy","policy_json","solver"]} → 202 {job,status,result,stream}
//	POST /v1/dirs             {"dir"[,"incremental","watch","watch_interval_ms","policy","policy_json","solver"]} → 202
//	GET  /v1/jobs             recent jobs, newest first
//	GET  /v1/jobs/{id}        one job's status
//	DELETE /v1/jobs/{id}      cancel a queued, running, or watch job
//	GET  /v1/jobs/{id}/result finished report (409 while running; ?text=1
//	                          for the human rendering of a file job,
//	                          ?envelope=1 for its binary result envelope)
//	GET  /v1/jobs/{id}/stream NDJSON, one report per file as it completes
//	                          (watch jobs add one summary line per round)
//	GET  /v1/jobs/{id}/trace  Chrome/Perfetto trace of the job (clustered
//	                          jobs include each worker's engine spans)
//	GET  /v1/version          build and schema version
//	GET  /healthz             liveness, queue occupancy, version, uptime
//	GET  /metrics             Prometheus exposition
//	GET  /debug/events        recent structured log events (flight recorder)
//
// Every job carries a distributed trace ID (the submitter's W3C
// traceparent header, or minted at admission): all spans and log lines
// for the job carry it, on the coordinator and on every worker it
// dispatches to.
//
// Every JSON response carries "schema": "v1"; request bodies with
// unknown fields are rejected with 400.
//
// On SIGTERM or SIGINT the daemon stops accepting work (503), lets
// queued and in-flight jobs finish (up to -grace), and exits 0 on a
// clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"webssari"
	"webssari/internal/buildinfo"
	"webssari/internal/cli"
	"webssari/internal/cluster"
	"webssari/internal/service"
	"webssari/internal/service/api"
	"webssari/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], nil))
}

// run is the testable daemon body. When ready is non-nil the bound API
// address is sent on it once the listener is up (integration tests bind
// ":0" and need the real port).
func run(args []string, ready chan<- string) int {
	fs := flag.NewFlagSet("webssarid", flag.ContinueOnError)
	sh := cli.Register(fs)
	var (
		addr      = fs.String("addr", ":8722", "API listen address (\":0\" picks a free port)")
		storeMax  = fs.Int64("store-max-bytes", 0, "store size budget before LRU GC (0 = 256 MiB, negative = unbounded)")
		queueSize = fs.Int("queue", service.DefaultQueueSize, "submission queue depth (full queue answers 429)")
		workers   = fs.Int("workers", 0, "concurrently running jobs (0 = GOMAXPROCS)")
		noDirs    = fs.Bool("no-dirs", false, "reject directory submissions")
		watchIvl  = fs.Duration("watch-interval", service.DefaultWatchInterval, "snapshot poll interval for watch-mode jobs")
		grace     = fs.Duration("grace", 30*time.Second, "shutdown grace period for draining jobs")
		slo       = fs.Duration("slo", time.Second, "latency objective for /v1 requests (0 disables breach counting)")
		slowFile  = fs.Duration("slow-file", 10*time.Second, "warn about files slower than this (0 disables)")

		coord      = fs.Bool("coord", false, "coordinator mode: accept worker registrations and shard jobs across them")
		joinURL    = fs.String("join", "", "worker mode: register with the coordinator at this URL")
		advertise  = fs.String("advertise", "", "base URL the coordinator dispatches to (default: the bound address)")
		workerName = fs.String("worker-name", "", "worker label shown in cluster status")
		heartbeat  = fs.Duration("heartbeat", cluster.DefaultHeartbeatInterval, "cluster heartbeat interval")
		hbMisses   = fs.Int("heartbeat-misses", cluster.DefaultHeartbeatMisses, "missed heartbeats before a worker is evicted")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitError
	}
	if sh.Version {
		fmt.Println(buildinfo.Version("webssarid"))
		return cli.ExitSafe
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "webssarid: unexpected arguments (the daemon takes submissions over HTTP)")
		return cli.ExitError
	}
	// Per-job policy and solver fields override the daemon defaults
	// validated here, so a bad default fails startup, not the first job.
	if err := sh.Validate(false); err != nil {
		return sh.Fail(err)
	}
	if *coord && *joinURL != "" {
		fmt.Fprintln(os.Stderr, "webssarid: -coord and -join are mutually exclusive (a daemon is a coordinator or a worker, not both)")
		return cli.ExitError
	}

	var st *store.Store
	if sh.Store != "" {
		var err error
		st, err = store.Open(sh.Store, store.Options{MaxBytes: *storeMax})
		if err != nil {
			return sh.Fail(fmt.Errorf("opening store: %w", err))
		}
		fmt.Fprintf(os.Stderr, "webssarid: result store at %s (%d entr(ies) resident)\n",
			sh.Store, st.Stats().Entries)
	}
	obs, err := sh.Start()
	if err != nil {
		return sh.Fail(err)
	}
	defer obs.Close()
	tel, logger := obs.Telemetry, obs.Logger

	// The verdict-shaping daemon configuration, fingerprinted so cluster
	// registration can reject a worker whose options differ from the
	// coordinator's (mismatched options would break verdict identity).
	// The policy is part of it: a worker running a different default
	// policy must not join. Fingerprint leaves out the options that
	// change only cost (-j, -incremental), so passing the
	// full config here is safe: such workers still fingerprint
	// identically to the coordinator.
	fingerprint := cluster.Fingerprint(webssari.WithConfig(sh.Config()))

	pol := sh.ResolvedPolicy()
	svcCfg := service.Config{
		Policy:           pol.Name,
		PolicyJSON:       pol.JSON,
		Store:            st,
		Telemetry:        tel,
		Logger:           logger,
		LatencyObjective: *slo,
		SlowFile:         *slowFile,
		Workers:          *workers,
		JobParallelism:   sh.Jobs,
		QueueSize:        *queueSize,
		JobDeadline:      sh.Timeout,
		Solver:           sh.Solver(),
		DisableDirs:      *noDirs,
		Incremental:      sh.Incremental,
		WatchInterval:    *watchIvl,
	}

	var coordinator *cluster.Coordinator
	if *coord {
		ccfg := cluster.Config{
			HeartbeatInterval: *heartbeat,
			HeartbeatMisses:   *hbMisses,
			Fingerprint:       fingerprint,
			Telemetry:         tel,
			Logger:            logger,
		}
		coordinator = cluster.New(ccfg)
		defer coordinator.Close()
		svcCfg.Runner = coordinator
		fmt.Fprintf(os.Stderr, "webssarid: coordinator mode (heartbeat %s, eviction after %d misses)\n",
			*heartbeat, *hbMisses)
	}

	svc := service.New(svcCfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "webssarid: listen %s: %v\n", *addr, err)
		return cli.ExitError
	}
	handler := svc.Handler()
	if coordinator != nil {
		// Cluster endpoints ride beside the service API.
		outer := http.NewServeMux()
		ch := coordinator.Handler()
		outer.Handle("/v1/cluster", ch)
		outer.Handle("/v1/cluster/", ch)
		outer.Handle("/", handler)
		handler = outer
	}
	srv := &http.Server{Handler: handler}
	fmt.Fprintf(os.Stderr, "webssarid: serving on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	var agent *cluster.Agent
	if *joinURL != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		jctx, jcancel := context.WithTimeout(context.Background(), 30*time.Second)
		agent, err = cluster.Join(jctx, *joinURL, api.RegisterWorkerRequest{
			Addr:        adv,
			Name:        *workerName,
			Fingerprint: fingerprint,
		}, nil)
		jcancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "webssarid: %v\n", err)
			return cli.ExitError
		}
		fmt.Fprintf(os.Stderr, "webssarid: joined cluster at %s as %s (advertising %s)\n",
			*joinURL, agent.ID(), adv)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigs)

	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "webssarid: %v: draining (grace %s)\n", sig, *grace)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "webssarid: serve: %v\n", err)
		return cli.ExitError
	}

	// Drain: leave the cluster first (so the coordinator reroutes new
	// work instead of dispatching into the drain), then stop accepting
	// (503 via the service, connection refusal via the listener
	// shutdown), finish accepted jobs, and exit.
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if agent != nil {
		if err := agent.Close(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "webssarid: leaving cluster: %v\n", err)
		} else {
			fmt.Fprintln(os.Stderr, "webssarid: left cluster")
		}
	}
	drained := svc.Drain(ctx)
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "webssarid: shutdown: %v\n", err)
	}
	if drained != nil {
		fmt.Fprintf(os.Stderr, "webssarid: drain incomplete after %s: %v\n", *grace, drained)
		return cli.ExitError
	}
	fmt.Fprintln(os.Stderr, "webssarid: drained cleanly")
	return cli.ExitSafe
}
