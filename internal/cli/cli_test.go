package cli

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webssari"
	"webssari/internal/policy"
)

func parse(t *testing.T, batch bool, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	register := Register
	if batch {
		register = RegisterBatch
	}
	f := register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRegisterDefinesSharedFlags(t *testing.T) {
	shared := []string{"version", "timeout", "store", "max-conflicts", "policy",
		"metrics-addr", "log-level", "log-format", "j", "incremental"}
	batch := []string{"v", "trace", "unroll", "dump-ir"}

	daemon := flag.NewFlagSet("d", flag.ContinueOnError)
	Register(daemon)
	cli := flag.NewFlagSet("c", flag.ContinueOnError)
	RegisterBatch(cli)
	for _, name := range shared {
		if daemon.Lookup(name) == nil || cli.Lookup(name) == nil {
			t.Errorf("-%s not registered on both flag sets", name)
		}
	}
	if daemon.Lookup("solver-mode") != nil || cli.Lookup("solver-mode") != nil {
		t.Error("-solver-mode is registered; the solver has one dispatch loop")
	}
	for _, name := range batch {
		if cli.Lookup(name) == nil {
			t.Errorf("batch flag -%s not registered", name)
		}
		if daemon.Lookup(name) != nil {
			t.Errorf("batch flag -%s registered on the daemon", name)
		}
	}
	f := parse(t, true)
	if f.Unroll != 1 || f.LogLevel != "info" || f.LogFormat != "text" || f.Jobs != 0 {
		t.Errorf("defaults: %+v", f)
	}
}

func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-j", "-1"}, "-j must be ≥ 0"},
		{[]string{"-unroll", "0"}, "-unroll must be ≥ 1"},
		{[]string{"-incremental"}, "-incremental requires -store"},
		{[]string{"-policy", "bogus"}, "-policy bogus"},
		{[]string{"-log-level", "bogus"}, "unknown log level"},
		{[]string{"-log-format", "bogus"}, "unknown log format"},
	} {
		err := parse(t, true, tc.args...).Validate(false)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
	if err := parse(t, true, "-incremental").Validate(true); err != nil {
		t.Errorf("-incremental with a store elsewhere: %v", err)
	}
}

func TestValidateResolvesPolicy(t *testing.T) {
	f := parse(t, false, "-policy", "ssrf")
	if err := f.Validate(false); err != nil {
		t.Fatal(err)
	}
	if p := f.ResolvedPolicy(); p.Name != "ssrf" || p.JSON != "" || p.Compiled == nil {
		t.Errorf("built-in policy: %+v", p)
	}

	pc, err := policy.Lookup("xss-context")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f = parse(t, false, "-policy", path)
	if err := f.Validate(false); err != nil {
		t.Fatal(err)
	}
	if p := f.ResolvedPolicy(); p.Name != pc.Name() || p.JSON != string(data) || p.Compiled == nil {
		t.Errorf("policy file: name %q, %d JSON bytes", p.Name, len(p.JSON))
	}
	cc, err := webssari.ExportConfig(webssari.WithConfig(f.Config()))
	if err != nil || cc.Policy != pc.Name() {
		t.Errorf("Config round trip: policy %q, err %v", cc.Policy, err)
	}
}

func TestExitCodes(t *testing.T) {
	for verdict, want := range map[string]int{
		webssari.VerdictSafe:       ExitSafe,
		webssari.VerdictUnsafe:     ExitUnsafe,
		webssari.VerdictIncomplete: ExitIncomplete,
	} {
		if got := VerdictExit(verdict); got != want {
			t.Errorf("VerdictExit(%q) = %d, want %d", verdict, got, want)
		}
	}
	if Worse(ExitIncomplete, ExitUnsafe) != ExitUnsafe || Worse(ExitError, ExitUnsafe) != ExitError ||
		Worse(ExitIncomplete, ExitSafe) != ExitIncomplete {
		t.Error("Worse does not keep the more severe code")
	}
}

// TestFailedStartStillWritesTrace checks the -trace file is written
// when the metrics listener cannot start.
func TestFailedStartStillWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	f := parse(t, true, "-trace", path, "-metrics-addr", "no-such-host-or-port")
	if err := f.Validate(false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Start(); err == nil {
		t.Fatal("Start succeeded on a bad -metrics-addr")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if !json.Valid(data) {
		t.Fatalf("trace is not JSON: %s", data)
	}
}
