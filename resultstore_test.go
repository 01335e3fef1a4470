package webssari_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"webssari"
)

const vulnerableSrc = `<?php
$name = $_GET['name'];
echo "<p>Hello, $name</p>";
mysql_query("SELECT * FROM t WHERE who = '$name'");
?>`

// TestResultStoreSecondTier drives the WithStore tier end to end: a
// fresh verification populates the store, a second process (modeled by
// a second OpenStore over the same directory plus a compile-cache
// reset) is served from disk, and the served report is byte-identical
// to the computed one once profiles are stripped.
func TestResultStoreSecondTier(t *testing.T) {
	dir := t.TempDir()
	s1, err := webssari.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := webssari.Verify([]byte(vulnerableSrc), "page.php", webssari.WithStore(s1))
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Profile.StoreHit {
		t.Fatal("first verification claimed a store hit")
	}
	if st := s1.Stats(); st.Puts != 1 {
		t.Fatalf("first verification did not persist: %+v", st)
	}

	// "Restart": new store handle over the same root, cold compile cache.
	webssari.ResetCompileCache()
	s2, err := webssari.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := webssari.Verify([]byte(vulnerableSrc), "page.php", webssari.WithStore(s2))
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Profile.StoreHit {
		t.Fatal("second verification missed the store")
	}
	if rep2.Profile.CacheHit {
		t.Fatal("store hit also claimed a compile-cache hit")
	}
	if st := s2.Stats(); st.Hits != 1 {
		t.Fatalf("store counters after hit: %+v", st)
	}
	if rep2.Text != rep1.Text {
		t.Fatalf("rendered text diverged:\n%s\nvs\n%s", rep2.Text, rep1.Text)
	}
	j1, j2 := marshalStripped(t, rep1), marshalStripped(t, rep2)
	if string(j1) != string(j2) {
		t.Fatalf("stored report diverged from computed one:\n%s\nvs\n%s", j1, j2)
	}
	if rep2.Verdict != webssari.VerdictUnsafe || len(rep2.Findings) == 0 {
		t.Fatalf("served report lost its findings: verdict %s, %d findings",
			rep2.Verdict, len(rep2.Findings))
	}
}

// marshalStripped renders a report as JSON with the (intentionally
// nondeterministic) profile removed.
func marshalStripped(t *testing.T, rep *webssari.Report) []byte {
	t.Helper()
	clone := *rep
	clone.Profile = nil
	data, err := json.Marshal(&clone)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestResultStoreKeyedByConfig ensures a configuration change misses:
// the same source under a different option set must not be served the
// old verdict.
func TestResultStoreKeyedByConfig(t *testing.T) {
	s, err := webssari.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := webssari.Verify([]byte(vulnerableSrc), "page.php", webssari.WithStore(s)); err != nil {
		t.Fatal(err)
	}
	rep, err := webssari.Verify([]byte(vulnerableSrc), "page.php",
		webssari.WithStore(s), webssari.WithPaperEnumeration())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profile.StoreHit {
		t.Fatal("different configuration was served the cached verdict")
	}
	// And a source change misses too.
	rep, err = webssari.Verify([]byte(vulnerableSrc+"\n"), "page.php", webssari.WithStore(s))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profile.StoreHit {
		t.Fatal("changed source was served the cached verdict")
	}
}

// TestResultStoreSkipsIncomplete pins the soundness rule: a degraded
// run must not be persisted, so a later unconstrained run recomputes.
func TestResultStoreSkipsIncomplete(t *testing.T) {
	s, err := webssari.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := webssari.Verify([]byte(vulnerableSrc), "slow.php",
		webssari.WithStore(s), webssari.WithDeadline(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != webssari.VerdictIncomplete {
		t.Skipf("nanosecond deadline did not degrade the run (verdict %s)", rep.Verdict)
	}
	if st := s.Stats(); st.Puts != 0 {
		t.Fatalf("incomplete report was persisted: %+v", st)
	}
}

// TestResultStoreIncludeInvalidation edits an include file between two
// runs; the stored entry must be invalidated, not served stale.
func TestResultStoreIncludeInvalidation(t *testing.T) {
	proj := t.TempDir()
	inc := filepath.Join(proj, "lib.php")
	main := filepath.Join(proj, "index.php")
	if err := os.WriteFile(inc, []byte("<?php $greet = 'hi'; ?>"), 0o644); err != nil {
		t.Fatal(err)
	}
	mainSrc := []byte("<?php include 'lib.php'; echo $greet; ?>")
	if err := os.WriteFile(main, mainSrc, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := webssari.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := []webssari.Option{webssari.WithStore(s), webssari.WithDir(proj)}
	rep1, err := webssari.Verify(mainSrc, main, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Profile.StoreHit {
		t.Fatal("first run hit")
	}
	// Unchanged include: the second run is a hit.
	rep2, err := webssari.Verify(mainSrc, main, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Profile.StoreHit {
		t.Skip("include snapshot not persisted for this shape; nothing to invalidate")
	}
	// Edit the include: now the tainted value flows into echo.
	if err := os.WriteFile(inc, []byte("<?php $greet = $_GET['g']; ?>"), 0o644); err != nil {
		t.Fatal(err)
	}
	webssari.ResetCompileCache()
	rep3, err := webssari.Verify(mainSrc, main, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Profile.StoreHit {
		t.Fatal("edited include served the stale verdict")
	}
	if st := s.Stats(); st.Stale == 0 {
		t.Fatalf("stale entry not counted: %+v", st)
	}
	if reflect.DeepEqual(rep3.Findings, rep1.Findings) && rep3.Verdict == rep1.Verdict {
		t.Fatal("edited include produced an identical report — invalidation untestable")
	}
}

// TestVerifyDirStoreCounts checks the project-level store counters and
// the observer streaming hook together.
func TestVerifyDirStoreCounts(t *testing.T) {
	proj := t.TempDir()
	for name, src := range map[string]string{
		"a.php": `<?php echo $_GET['x']; ?>`,
		"b.php": `<?php echo "static"; ?>`,
	} {
		if err := os.WriteFile(filepath.Join(proj, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := webssari.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pr1, err := webssari.VerifyDir(proj, webssari.WithStore(s))
	if err != nil {
		t.Fatal(err)
	}
	if pr1.StoreHits != 0 || pr1.StoreMisses != 2 {
		t.Fatalf("cold run store counts: hits %d, misses %d", pr1.StoreHits, pr1.StoreMisses)
	}
	var streamed int
	var mu = make(chan struct{}, 1)
	pr2, err := webssari.VerifyDir(proj, webssari.WithStore(s),
		webssari.WithFileObserver(func(rep *webssari.Report) {
			mu <- struct{}{}
			streamed++
			<-mu
		}))
	if err != nil {
		t.Fatal(err)
	}
	if pr2.StoreHits != 2 || pr2.StoreMisses != 0 {
		t.Fatalf("warm run store counts: hits %d, misses %d", pr2.StoreHits, pr2.StoreMisses)
	}
	if streamed != 2 {
		t.Fatalf("observer saw %d reports, want 2", streamed)
	}
	if pr2.CacheHits != 0 || pr2.CacheMisses != 0 {
		t.Fatalf("store-served files counted against the compile cache: %+v", pr2)
	}
}
