// Package cli is the command-line front shared by the webssari, xbmc and
// webssarid binaries: the flags they have in common, their validation
// at startup, the logger → telemetry → trace → metrics setup, and the
// exit-code contract. Each binary registers its own flags beside these
// and keeps only its mode-specific checks.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"webssari"
	"webssari/internal/policy"
	"webssari/internal/telemetry"
)

// Exit codes shared by every binary. By severity an error outranks a
// finding, a finding outranks an incomplete run, which outranks safe.
const (
	ExitSafe       = 0
	ExitUnsafe     = 1
	ExitError      = 2
	ExitIncomplete = 3
)

// VerdictExit maps a three-valued report verdict to its exit code.
func VerdictExit(verdict string) int {
	switch verdict {
	case webssari.VerdictUnsafe:
		return ExitUnsafe
	case webssari.VerdictIncomplete:
		return ExitIncomplete
	default:
		return ExitSafe
	}
}

// Worse merges an exit code into the accumulated one, keeping the more
// severe of the two (error > unsafe > incomplete > safe).
func Worse(cur, next int) int {
	rank := map[int]int{ExitSafe: 0, ExitIncomplete: 1, ExitUnsafe: 2, ExitError: 3}
	if rank[next] > rank[cur] {
		return next
	}
	return cur
}

// Flags holds the shared flags of one binary. Register defines the
// ten every binary has; RegisterBatch adds the four the batch CLIs
// (webssari and xbmc) share.
type Flags struct {
	Version      bool
	Timeout      time.Duration
	Store        string
	MaxConflicts uint64
	Policy       string
	MetricsAddr  string
	LogLevel     string
	LogFormat    string
	Jobs         int
	Incremental  bool

	// The batch flags; zero for the daemon.
	Verbose bool
	Trace   string
	Unroll  int
	DumpIR  bool

	prog     string
	batch    bool
	resolved Policy
	logger   *telemetry.Logger
}

// Policy is the resolved -policy argument: a readable file is a policy
// JSON declaration, anything else must name a built-in policy.
type Policy struct {
	// Name is the built-in policy's name or the file's declared name.
	Name string
	// JSON is the declaration read from a policy file ("" for a built-in).
	JSON string
	// Compiled is the loaded policy; nil when -policy is unset.
	Compiled *policy.Compiled
}

// Register defines the flags every binary shares on fs. Errors are
// reported under fs.Name().
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{prog: fs.Name()}
	fs.BoolVar(&f.Version, "version", false, "print version and exit")
	fs.DurationVar(&f.Timeout, "timeout", 0, "wall-clock deadline per verification unit (0 = none)")
	fs.StringVar(&f.Store, "store", "", "persistent result store directory (\"\" disables)")
	fs.Uint64Var(&f.MaxConflicts, "max-conflicts", 0, "SAT conflict budget per solver call (0 = unlimited)")
	fs.StringVar(&f.Policy, "policy", "", "security policy: a built-in name or a policy JSON file")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof on this address (\":0\" picks a free port)")
	fs.StringVar(&f.LogLevel, "log-level", "info", "structured log level: debug|info|warn|error")
	fs.StringVar(&f.LogFormat, "log-format", "text", "structured log encoding: text|json")
	fs.IntVar(&f.Jobs, "j", 0, "files of a directory verified at once (0 = GOMAXPROCS; a single file ignores it)")
	fs.BoolVar(&f.Incremental, "incremental", false, "directory runs: delta re-verification via the persistent dependency graph (requires -store)")
	return f
}

// RegisterBatch is Register plus the flags of the batch CLIs.
func RegisterBatch(fs *flag.FlagSet) *Flags {
	f := Register(fs)
	f.batch = true
	fs.BoolVar(&f.Verbose, "v", false, "print the run profile to stderr")
	fs.StringVar(&f.Trace, "trace", "", "write Chrome trace-event JSON to this file")
	fs.IntVar(&f.Unroll, "unroll", 1, "loop deconstruction factor")
	fs.BoolVar(&f.DumpIR, "dump-ir", false, "print each input's typed flow IR and exit (no solving)")
	return f
}

// Fail reports err under the binary's name and returns ExitError.
func (f *Flags) Fail(err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.prog, err)
	return ExitError
}

// Validate checks and resolves the shared flags. Call it once, before
// any listener starts or any input is read. storeElsewhere reports that
// a result store reaches the run by other means (xbmc's -remote
// daemon), which satisfies -incremental.
func (f *Flags) Validate(storeElsewhere bool) error {
	if f.Jobs < 0 {
		return fmt.Errorf("-j must be ≥ 0, got %d", f.Jobs)
	}
	if f.batch && f.Unroll < 1 {
		return fmt.Errorf("-unroll must be ≥ 1, got %d", f.Unroll)
	}
	if f.Incremental && f.Store == "" && !storeElsewhere {
		return errors.New("-incremental requires -store (the dependency graph lives in the result store)")
	}
	if err := f.resolvePolicy(); err != nil {
		return fmt.Errorf("-policy %s: %w", f.Policy, err)
	}
	lvl, err := telemetry.ParseLogLevel(f.LogLevel)
	if err != nil {
		return err
	}
	f.logger, err = telemetry.NewLogger(os.Stderr, lvl, f.LogFormat, telemetry.DefaultFlightRecorderSize)
	return err
}

func (f *Flags) resolvePolicy() error {
	if f.Policy == "" {
		return nil
	}
	if data, err := os.ReadFile(f.Policy); err == nil {
		pc, err := policy.LoadJSON(f.Policy, data)
		if err != nil {
			return err
		}
		f.resolved = Policy{Name: pc.Name(), JSON: string(data), Compiled: pc}
		return nil
	}
	pc, err := policy.Lookup(f.Policy)
	if err != nil {
		return err
	}
	f.resolved = Policy{Name: f.Policy, Compiled: pc}
	return nil
}

// ResolvedPolicy is the policy Validate resolved.
func (f *Flags) ResolvedPolicy() Policy { return f.resolved }

// Solver is the solver configuration -max-conflicts selects.
func (f *Flags) Solver() webssari.SolverConfig {
	return webssari.SolverConfig{MaxConflicts: f.MaxConflicts}
}

// Config is the engine configuration the shared flags select, without
// the result store and -incremental, which each binary attaches its own
// way.
func (f *Flags) Config() webssari.Config {
	return webssari.Config{
		Policy:      f.resolved.Name,
		PolicyJSON:  f.resolved.JSON,
		LoopUnroll:  f.Unroll,
		Deadline:    f.Timeout,
		Solver:      f.Solver(),
		Parallelism: f.Jobs,
	}
}

// Options is a batch CLI's engine option list: Config plus the -store
// result store, -incremental, and the run's telemetry.
func (f *Flags) Options(r *Run) ([]webssari.Option, error) {
	cfg := f.Config()
	cfg.Incremental = f.Incremental
	cfg.Telemetry = r.Telemetry
	if f.Store != "" {
		st, err := webssari.OpenStore(f.Store, 0)
		if err != nil {
			return nil, fmt.Errorf("opening store: %w", err)
		}
		cfg.Store = st
	}
	return []webssari.Option{webssari.WithConfig(cfg)}, nil
}

// Run is one invocation's observability: the structured logger, the
// telemetry sink, the -metrics-addr listener and the -trace output.
type Run struct {
	Logger *telemetry.Logger
	// Telemetry is nil for a batch run with neither -trace nor
	// -metrics-addr; the daemon always collects it.
	Telemetry *telemetry.Telemetry

	prog    string
	trace   string
	metrics *telemetry.Server
}

// Start sets up the run's telemetry and starts the -metrics-addr
// listener. Close must run on every exit path after a successful Start:
// it writes the -trace file, so an early error exit still leaves the
// spans recorded so far. When Start fails it has already closed what it
// opened.
func (f *Flags) Start() (*Run, error) {
	r := &Run{Logger: f.logger, prog: f.prog, trace: f.Trace}
	if !f.batch || f.Trace != "" || f.MetricsAddr != "" {
		r.Telemetry = telemetry.New()
		r.Telemetry.Logs = f.logger.Recorder()
	}
	if f.MetricsAddr != "" {
		srv, err := webssari.ServeMetrics(f.MetricsAddr, r.Telemetry)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.metrics = srv
		fmt.Fprintf(os.Stderr, "%s: metrics served at http://%s/metrics\n", f.prog, srv.Addr)
	}
	return r, nil
}

// Close stops the metrics listener and writes the -trace file.
func (r *Run) Close() {
	if r.metrics != nil {
		r.metrics.Close()
	}
	if r.trace == "" {
		return
	}
	out, err := os.Create(r.trace)
	if err == nil {
		err = webssari.WriteTrace(r.Telemetry, out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", r.prog, err)
	}
}
