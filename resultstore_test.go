package webssari_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"webssari"
	"webssari/internal/corpus"
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
// to the computed one once profiles are stripped. A store written under
// the previous envelope schema reads as a miss once: the entry is
// invalidated, re-verified and persisted again under the current schema.
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
	assertSameReport(t, rep1, rep2)
	if rep2.Verdict != webssari.VerdictUnsafe || len(rep2.Findings) == 0 {
		t.Fatalf("served report lost its findings: verdict %s, %d findings",
			rep2.Verdict, len(rep2.Findings))
	}

	// An envelope of the previous schema is a miss: invalidated,
	// re-verified, and persisted again under the current schema.
	if envelopes, _ := addParentKeys(t, s2); envelopes != 1 {
		t.Fatalf("rewrote %d envelopes, want 1", envelopes)
	}
	webssari.ResetCompileCache()
	s3, err := webssari.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := webssari.Verify([]byte(vulnerableSrc), "page.php", webssari.WithStore(s3))
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Profile.StoreHit {
		t.Fatal("a schema-1 envelope was served")
	}
	if st := s3.Stats(); st.Stale != 1 || st.Puts != 1 {
		t.Fatalf("schema-1 envelope not invalidated and re-persisted: %+v", st)
	}
	assertSameReport(t, rep1, rep3)
	if got := envelopeSchemas(t, s3); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("envelope schemas after re-verification = %v, want [2]", got)
	}
	rep4, err := webssari.Verify([]byte(vulnerableSrc), "page.php", webssari.WithStore(s3))
	if err != nil {
		t.Fatal(err)
	}
	if !rep4.Profile.StoreHit {
		t.Fatal("re-persisted envelope was not served")
	}
	assertSameReport(t, rep1, rep4)
}

// assertSameReport fails unless got renders the same text and, profiles
// stripped, the same JSON as want.
func assertSameReport(t *testing.T, want, got *webssari.Report) {
	t.Helper()
	if got.Text != want.Text {
		t.Fatalf("rendered text diverged:\n%s\nvs\n%s", got.Text, want.Text)
	}
	if jw, jg := marshalStripped(t, want), marshalStripped(t, got); string(jw) != string(jg) {
		t.Fatalf("report JSON diverged:\n%s\nvs\n%s", jg, jw)
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

// parentKeys are the per-assertion reuse fields that older builds wrote
// into every result envelope and dependency-graph node: function
// fingerprints and the check fingerprints of safe assertions.
var parentKeys = map[string]any{
	"funcs":        map[string]any{"<main>": "9c1185a5c5e9fc54", "render": "2c624232cdd221e6"},
	"safe_asserts": []any{"6b86b273ff34fce19d6b804e", "d4735e3a265e16eee03f5971"},
}

// addParentKeys rewrites every blob in st as an older build wrote it:
// result envelopes and the nodes of dependency graphs gain parentKeys,
// under the schema version 1 that build wrote. Graphs are still at
// schema 1 and must keep planning; result envelopes are at schema 2, so
// callers see them read as misses. It returns how many envelopes and
// graphs it rewrote.
func addParentKeys(t *testing.T, st *webssari.ResultStore) (envelopes, graphs int) {
	t.Helper()
	for key, payload := range storeBlobs(t, st) {
		var doc map[string]any
		if err := json.Unmarshal(payload, &doc); err != nil {
			t.Fatalf("blob %s: %v", key, err)
		}
		switch files, _ := doc["files"].(map[string]any); {
		case doc["report"] != nil:
			for k, v := range parentKeys {
				doc[k] = v
			}
			envelopes++
		case files != nil:
			for _, node := range files {
				for k, v := range parentKeys {
					node.(map[string]any)[k] = v
				}
			}
			graphs++
		default:
			continue
		}
		doc["schema"] = 1
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(key, out); err != nil {
			t.Fatal(err)
		}
	}
	return envelopes, graphs
}

// storeBlobs reads every blob in st, keyed by store key.
func storeBlobs(t *testing.T, st *webssari.ResultStore) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(st.Root(), "objects", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	blobs := make(map[string][]byte, len(paths))
	for _, path := range paths {
		key := filepath.Base(path)
		if strings.HasPrefix(key, ".tmp-") {
			continue
		}
		payload, ok := st.Get(key)
		if !ok {
			t.Fatalf("blob %s unreadable", key)
		}
		blobs[key] = payload
	}
	return blobs
}

// envelopeSchemas returns the schema version of every result envelope
// in st, sorted.
func envelopeSchemas(t *testing.T, st *webssari.ResultStore) []int {
	t.Helper()
	var schemas []int
	for key, payload := range storeBlobs(t, st) {
		var doc struct {
			Schema int             `json:"schema"`
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(payload, &doc); err != nil {
			t.Fatalf("blob %s: %v", key, err)
		}
		if doc.Report != nil {
			schemas = append(schemas, doc.Schema)
		}
	}
	sort.Ints(schemas)
	return schemas
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

// TestStoreServedMatchesCold checks that a fully store-served incremental
// run renders exactly what a cold run does: the JSON report, profiles
// stripped, and every file's text, which the store does not persist but
// renders again on serve. It covers a slice of the §5 corpus, the bundled
// examples and the branchy fixtures, with no policy and under every
// built-in one, in both solver modes.
func TestStoreServedMatchesCold(t *testing.T) {
	dirs := []string{writeCorpusSlice(t), "examples/php", "testdata/branchy"}
	for _, dir := range dirs {
		for _, pol := range append([]string{""}, webssari.Policies()...) {
			for _, mode := range webssari.SolverModes() {
				opts := []webssari.Option{
					webssari.WithSolverConfig(webssari.SolverConfig{Mode: webssari.SolverMode(mode)}),
				}
				if pol != "" {
					opts = append(opts, webssari.WithPolicy(pol))
				}
				cold, err := webssari.VerifyDir(dir, opts...)
				if err != nil {
					t.Fatal(err)
				}
				st, err := webssari.OpenStore(t.TempDir(), 0)
				if err != nil {
					t.Fatal(err)
				}
				incOpts := append([]webssari.Option{webssari.WithStore(st), webssari.WithIncremental()}, opts...)
				if _, err := webssari.VerifyDir(dir, incOpts...); err != nil {
					t.Fatal(err)
				}
				served, err := webssari.VerifyDir(dir, incOpts...)
				if err != nil {
					t.Fatal(err)
				}
				if served.StoreHits != len(served.Files) || len(served.Files) == 0 {
					t.Fatalf("%s policy %q mode %s: %d of %d files served from the store",
						dir, pol, mode, served.StoreHits, len(served.Files))
				}
				assertSameProject(t, cold, served)
			}
		}
	}
}

// writeCorpusSlice writes every tenth project of the §5 corpus at a small
// scale, one directory per project, and returns the tree's root.
func writeCorpusSlice(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	for i, prof := range corpus.FullCorpus(0.02) {
		if i%10 != 0 {
			continue
		}
		proj := corpus.Generate(prof, 2004)
		for _, name := range proj.FileNames() {
			path := filepath.Join(root, fmt.Sprintf("p%03d", i), name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, proj.Sources[name], 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return root
}

// assertSameProject fails unless got matches want file by file in text
// and, profiles and cache counters stripped, in JSON.
func assertSameProject(t *testing.T, want, got *webssari.ProjectReport) {
	t.Helper()
	if !bytes.Equal(marshalProjectStripped(t, want), marshalProjectStripped(t, got)) {
		t.Fatalf("project report JSON diverged from the cold run's")
	}
	for i, f := range got.Files {
		if f.Text != want.Files[i].Text {
			t.Fatalf("%s: text diverged from the cold run's:\n%s\nvs\n%s", f.File, f.Text, want.Files[i].Text)
		}
	}
}
