package webssari_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"webssari"
	"webssari/internal/corpus"
)

// writeProject materializes a deterministic synthetic corpus project on
// disk and returns its directory.
func writeProject(t testing.TB, prof corpus.Profile, seed uint64) string {
	t.Helper()
	dir := t.TempDir()
	proj := corpus.Generate(prof, seed)
	for _, name := range proj.FileNames() {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, proj.Sources[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// projectJSON renders a ProjectReport the way the CLI's -json mode does,
// making "byte-identical" a meaningful comparison. Run profiles are
// stripped first: their wall-clock fields are the one intentionally
// nondeterministic part of a report, so the determinism contract is
// "byte-identical with profiles removed".
func projectJSON(t *testing.T, pr *webssari.ProjectReport) string {
	t.Helper()
	stripProfiles(pr)
	data, err := json.MarshalIndent(pr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// stripProfiles removes the (timing-bearing, nondeterministic) profiles
// from a project report and all its file reports in place.
func stripProfiles(pr *webssari.ProjectReport) {
	pr.Profile = nil
	for _, rep := range pr.Files {
		rep.Profile = nil
	}
}

// TestParallelVerifyDirDeterminism is the PR's central acceptance test:
// VerifyDir with 8 workers over a corpus project produces byte-identical
// ProjectReport JSON to the fully sequential run, including the counts
// of compiled files.
func TestParallelVerifyDirDeterminism(t *testing.T) {
	dir := writeProject(t, corpus.Profile{
		Name: "determinism", TS: 14, BMC: 5, Files: 8, Statements: 400,
	}, 2004)
	// An unparseable file exercises failure determinism too.
	if err := os.WriteFile(filepath.Join(dir, "broken.php"), []byte("<?php if ("), 0o644); err != nil {
		t.Fatal(err)
	}

	seq, err := webssari.VerifyDir(dir, webssari.WithParallelism(1))
	if err != nil {
		t.Fatalf("sequential VerifyDir: %v", err)
	}
	seqJSON := projectJSON(t, seq)

	par, err := webssari.VerifyDir(dir, webssari.WithParallelism(8))
	if err != nil {
		t.Fatalf("parallel VerifyDir: %v", err)
	}
	parJSON := projectJSON(t, par)

	if seqJSON != parJSON {
		t.Fatalf("parallel report differs from sequential:\n--- sequential ---\n%s\n--- parallel (j=8) ---\n%s",
			seqJSON, parJSON)
	}
	if len(seq.Files) == 0 || seq.VulnerableFiles == 0 {
		t.Fatalf("degenerate corpus: %d files, %d vulnerable — determinism check proved nothing",
			len(seq.Files), seq.VulnerableFiles)
	}
}

// TestParallelVerifyDirDeadlineDegrades: per-file deadlines expiring
// while the pool is running 8 workers must degrade every file to an
// Incomplete verdict (the CLI's exit code 3) — never deadlock, never
// claim Safe, never error out the project.
func TestParallelVerifyDirDeadlineDegrades(t *testing.T) {
	dir := writeProject(t, corpus.Profile{
		Name: "deadline", TS: 10, BMC: 4, Files: 6, Statements: 300,
	}, 7)

	done := make(chan struct{})
	var pr *webssari.ProjectReport
	var err error
	go func() {
		defer close(done)
		pr, err = webssari.VerifyDir(dir,
			webssari.WithParallelism(8),
			webssari.WithDeadline(time.Nanosecond))
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("VerifyDir deadlocked under mid-pool deadline expiry")
	}
	if err != nil {
		t.Fatalf("VerifyDir errored instead of degrading: %v", err)
	}
	if got := pr.Verdict(); got != webssari.VerdictIncomplete {
		t.Fatalf("project verdict = %q, want %q (exit code 3)", got, webssari.VerdictIncomplete)
	}
	if pr.VulnerableFiles != 0 {
		t.Fatalf("%d files reported vulnerable though no assertion was ever decided", pr.VulnerableFiles)
	}
	// Every file with assertions must have degraded; only sink-free filler
	// files may legitimately still read Safe.
	if pr.IncompleteFiles == 0 {
		t.Fatal("no file degraded to Incomplete under an instantly-expired deadline")
	}
}

// TestParallelVerifyDirCancelledBeforeDispatch: a parent context already
// cancelled when dispatch begins records every file as a deadline failure
// instead of blocking on pool slots — the PR-1 fault-isolation contract
// under the new concurrent dispatcher.
func TestParallelVerifyDirCancelledBeforeDispatch(t *testing.T) {
	dir := writeProject(t, corpus.Profile{
		Name: "cancelmid", TS: 8, BMC: 3, Files: 12, Statements: 400,
	}, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pr, err := webssari.VerifyDirContext(ctx, dir, webssari.WithParallelism(4))
	if err != nil {
		t.Fatalf("cancelled VerifyDirContext errored: %v", err)
	}
	if len(pr.Failures) == 0 {
		t.Fatal("cancelled run recorded no failures")
	}
	for _, fail := range pr.Failures {
		if fail.Stage != "deadline" {
			t.Fatalf("failure stage = %q, want deadline: %+v", fail.Stage, fail)
		}
	}
	if got := pr.Verdict(); got != webssari.VerdictIncomplete {
		t.Fatalf("verdict = %q, want %q", got, webssari.VerdictIncomplete)
	}
}

// TestParallelVerifyDirBoundsWorkers: at WithParallelism(2) exactly two
// files are ever verified at once over examples/php. Each stubbed
// verification holds its worker until a second one is running (or a
// timeout passes), so a run that never reaches two fails as surely as
// one that exceeds it; the profile's fan-out section agrees.
func TestParallelVerifyDirBoundsWorkers(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	reached := make(chan struct{})
	gaveUp, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	verify := func(ctx context.Context, src []byte, name string, opts ...webssari.Option) (*webssari.Report, error) {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
			if peak == 2 {
				close(reached)
			}
		}
		mu.Unlock()
		select {
		case <-reached:
		case <-gaveUp.Done():
		}
		time.Sleep(2 * time.Millisecond) // widen the window for a third worker
		defer func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}()
		return webssari.VerifyContext(ctx, src, name, opts...)
	}
	pr, err := webssari.VerifyDir("examples/php",
		webssari.WithParallelism(2), webssari.WithFileVerifier(verify))
	if err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Fatalf("peak concurrent verifications = %d at -j 2, want 2", peak)
	}
	if len(pr.Files) != 9 {
		t.Fatalf("%d file reports, want 9 (failures %v)", len(pr.Files), pr.Failures)
	}
	if p := pr.Profile.Pool; p == nil || p.Capacity != 2 || p.Acquires != 9 || p.MaxInUse != 2 || p.MaxWaiting != 0 {
		t.Fatalf("pool profile = %+v, want capacity 2, 9 acquires, 2 in use, 0 waiting", p)
	}
}

// TestParallelismIgnoredForSingleFile: a single file's assertions are
// checked in order whatever WithParallelism says, so a file with many
// independent assertions yields the identical report at -j 8.
func TestParallelismIgnoredForSingleFile(t *testing.T) {
	src := "<?php\n"
	for i := 0; i < 10; i++ {
		src += fmt.Sprintf("$v%d = $_GET['k%d'];\nif ($c%d) { $v%d = htmlspecialchars($v%d); }\necho $v%d;\n",
			i, i, i, i, i, i)
	}
	seq, err := webssari.Verify([]byte(src), "many.php")
	if err != nil {
		t.Fatal(err)
	}
	par, err := webssari.Verify([]byte(src), "many.php", webssari.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	// Profile timings are the one nondeterministic report field; the rest
	// must match byte-for-byte.
	seq.Profile, par.Profile = nil, nil
	seqJSON, _ := json.Marshal(seq)
	parJSON, _ := json.Marshal(par)
	if string(seqJSON) != string(parJSON) {
		t.Fatalf("WithParallelism(8) changed a single-file report:\n%s\nvs\n%s", seqJSON, parJSON)
	}
}
