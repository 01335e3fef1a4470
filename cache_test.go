package webssari_test

import (
	"os"
	"path/filepath"
	"testing"

	"webssari"
)

// TestPatchReusesCompileCache is the cache satellite's acceptance test:
// a Verify followed by a Patch of the same source must reuse the cached
// Program front end — the second compile is a cache hit, so the pipeline
// runs parse/flow/AI/rename/constraints exactly once.
func TestPatchReusesCompileCache(t *testing.T) {
	src := []byte("<?php\n$name = $_GET['name'];\necho $name;\n")

	webssari.ResetCompileCache()
	rep, err := webssari.Verify(src, "reuse.php")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profile.CacheHit {
		t.Fatal("first Verify on a cold cache reported a cache hit")
	}
	if hits, misses := webssari.CompileCacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("after cold Verify: %d hits / %d misses, want 0/1", hits, misses)
	}

	_, prep, err := webssari.Patch(src, "reuse.php")
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Profile.CacheHit {
		t.Fatal("Patch after Verify recompiled instead of hitting the compile cache")
	}
	if hits, misses := webssari.CompileCacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("after Patch: %d hits / %d misses, want 1/1", hits, misses)
	}
	if prep.Verdict != webssari.VerdictUnsafe {
		t.Fatalf("cached Patch verdict = %q, want %q", prep.Verdict, webssari.VerdictUnsafe)
	}
}

// TestCompileCacheKeyedByOptions: the same source compiled under
// different flow options must not share a cache entry — the key covers
// everything that feeds the deterministic front end.
func TestCompileCacheKeyedByOptions(t *testing.T) {
	src := []byte("<?php\n$v = $_GET['x'];\nwhile ($c) { $v = htmlspecialchars($v); }\necho $v;\n")

	webssari.ResetCompileCache()
	if _, err := webssari.Verify(src, "opts.php"); err != nil {
		t.Fatal(err)
	}
	if _, err := webssari.Verify(src, "opts.php", webssari.WithLoopUnroll(3)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := webssari.CompileCacheStats(); hits != 0 || misses != 2 {
		t.Fatalf("distinct unroll factors shared a cache entry: %d hits / %d misses, want 0/2", hits, misses)
	}
	// Same options again: now it hits.
	rep, err := webssari.Verify(src, "opts.php", webssari.WithLoopUnroll(3))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Profile.CacheHit {
		t.Fatal("identical (source, options) pair missed the cache")
	}
}

// TestCompileCacheIncludeInvalidation: a cached Program snapshots the
// hashes of every include it resolved; editing an included file on disk
// must invalidate the entry, or the verifier would report stale verdicts
// for unchanged entry points.
func TestCompileCacheIncludeInvalidation(t *testing.T) {
	dir := t.TempDir()
	lib := filepath.Join(dir, "lib.php")
	main := []byte("<?php\ninclude 'lib.php';\necho $x;\n")
	if err := os.WriteFile(lib, []byte("<?php\n$x = 'constant';\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	webssari.ResetCompileCache()
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
	if rep.Profile.CacheHit {
		t.Fatal("stale cache hit: edited include was not revalidated")
	}
	if rep.Verdict != webssari.VerdictUnsafe {
		t.Fatalf("after include edit: verdict %q, want %q (stale Program served from cache?)",
			rep.Verdict, webssari.VerdictUnsafe)
	}

	// A previously-missing include appearing on disk must also invalidate.
	webssari.ResetCompileCache()
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
	if rep.Profile.CacheHit {
		t.Fatal("stale cache hit: include that newly appeared on disk was not re-probed")
	}
	if rep.Verdict != webssari.VerdictUnsafe {
		t.Fatalf("newly-resolvable include: verdict %q, want %q", rep.Verdict, webssari.VerdictUnsafe)
	}
}
