package webssari_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webssari"
	"webssari/internal/telemetry"
)

// TestRepeatVerifyRunsEveryStage: every Verify compiles its file, so a
// second Verify of the same source in one process runs, and profiles,
// each front-end stage once, as the first did.
func TestRepeatVerifyRunsEveryStage(t *testing.T) {
	src := []byte("<?php\n$name = $_GET['name'];\necho $name;\n")
	for run := 1; run <= 2; run++ {
		rep, err := webssari.Verify(src, "repeat.php")
		if err != nil {
			t.Fatal(err)
		}
		for _, stage := range []string{"parse", "lower", "flow", "rename", "constraints"} {
			if st, ok := stageOf(rep.Profile, stage); !ok || st.Count != 1 {
				t.Errorf("run %d: stage %s = %+v (present %v), want ×1", run, stage, st, ok)
			}
		}
	}
}

// TestEmptyDirRecordsNoFile: a project run over no files records no
// file and no stage sample; its profile is a project's, not a file's.
func TestEmptyDirRecordsNoFile(t *testing.T) {
	tel := webssari.NewTelemetry()
	pr, err := webssari.VerifyDir(t.TempDir(), webssari.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Files) != 0 {
		t.Fatalf("verified %d files in an empty directory", len(pr.Files))
	}
	for name := range tel.Metrics.Snapshot() {
		if name == telemetry.MetricFilesVerified || name == telemetry.MetricFilesFailed ||
			strings.HasPrefix(name, telemetry.MetricStageSeconds) {
			t.Errorf("empty project recorded %s", name)
		}
	}
}

// TestVerifyDirCountsCompiledFiles: a project run counts the files it
// compiled, none of them cache hits; over a warm result store it
// compiles none.
func TestVerifyDirCountsCompiledFiles(t *testing.T) {
	dir := filepath.Join("examples", "php")
	s, err := webssari.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{9, 0} {
		webssari.ResetCompileCache()
		pr, err := webssari.VerifyDir(dir, webssari.WithStore(s))
		if err != nil {
			t.Fatal(err)
		}
		if pr.CacheHits != 0 || pr.CacheMisses != want {
			t.Errorf("report: %d hits, %d misses; want 0 and %d", pr.CacheHits, pr.CacheMisses, want)
		}
		if hits, misses := webssari.CompileCacheStats(); hits != 0 || misses != int64(want) {
			t.Errorf("CompileCacheStats: %d hits, %d compiles; want 0 and %d", hits, misses, want)
		}
	}
}

// TestIncludeEditReverified: a Program is built with its includes
// spliced in, so an edited include, or a missing one that appears on
// disk, changes the verdict of an unchanged entry file in the same
// process.
func TestIncludeEditReverified(t *testing.T) {
	dir := t.TempDir()
	lib := filepath.Join(dir, "lib.php")
	main := []byte("<?php\ninclude 'lib.php';\necho $x;\n")
	if err := os.WriteFile(lib, []byte("<?php\n$x = 'constant';\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := webssari.Verify(main, filepath.Join(dir, "main.php"), webssari.WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != webssari.VerdictSafe {
		t.Fatalf("constant include judged %q, want %q", rep.Verdict, webssari.VerdictSafe)
	}

	// The entry source is untouched, but the included file now taints $x.
	if err := os.WriteFile(lib, []byte("<?php\n$x = $_GET['q'];\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = webssari.Verify(main, filepath.Join(dir, "main.php"), webssari.WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != webssari.VerdictUnsafe {
		t.Fatalf("after include edit: verdict %q, want %q", rep.Verdict, webssari.VerdictUnsafe)
	}

	// A previously missing include that appears on disk is read too.
	missing := []byte("<?php\ninclude 'extra.php';\necho $y;\n")
	if _, err := webssari.Verify(missing, filepath.Join(dir, "m2.php"), webssari.WithDir(dir)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "extra.php"), []byte("<?php\n$y = $_GET['q'];\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = webssari.Verify(missing, filepath.Join(dir, "m2.php"), webssari.WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != webssari.VerdictUnsafe {
		t.Fatalf("newly resolvable include: verdict %q, want %q", rep.Verdict, webssari.VerdictUnsafe)
	}
}
