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
	"webssari/internal/ai"
	"webssari/internal/corpus"
	"webssari/internal/report"
)

const vulnerableSrc = `<?php
$name = $_GET['name'];
echo "<p>Hello, $name</p>";
mysql_query("SELECT * FROM t WHERE who = '$name'");
?>`

// TestResultStoreSecondTier drives the WithStore tier end to end: a
// fresh verification populates the store, a second process (modeled by
// a second OpenStore over the same directory) is served from disk, and
// the served report is byte-identical to the computed one once profiles
// are stripped. A store written under the previous envelope schema reads
// as a miss once: the entry is invalidated, re-verified and persisted
// again under the current schema.
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

	// "Restart": new store handle over the same root.
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
	if envelopes := downgradeEnvelopes(t, s2, dir); envelopes != 1 {
		t.Fatalf("rewrote %d envelopes, want 1", envelopes)
	}
	s3, err := webssari.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := webssari.Verify([]byte(vulnerableSrc), "page.php", webssari.WithStore(s3))
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Profile.StoreHit {
		t.Fatal("a schema-2 envelope was served")
	}
	if st := s3.Stats(); st.Stale != 1 || st.Puts != 1 {
		t.Fatalf("schema-2 envelope not invalidated and re-persisted: %+v", st)
	}
	assertSameReport(t, rep1, rep3)
	if got := envelopeSchemas(t, s3, dir); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("envelope schemas after re-verification = %v, want [3]", got)
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
	if got.String() != want.String() {
		t.Fatalf("rendered text diverged:\n%s\nvs\n%s", got.String(), want.String())
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

// downgradeEnvelopes rewrites every result envelope in st, opened on
// root, as the schema-2 JSON envelope of the build before schema 3
// (schema2Envelope). Envelopes are at schema 3, so callers see the
// schema-2 ones read as misses. Other blobs are left as they are. It
// returns how many envelopes it rewrote.
func downgradeEnvelopes(t *testing.T, st *webssari.ResultStore, root string) (envelopes int) {
	t.Helper()
	for key, payload := range storeBlobs(t, st, root) {
		rep, ok := webssari.DecodeEnvelope(payload)
		if !ok {
			continue
		}
		if err := st.Put(key, schema2Envelope(t, rep, report.Includes(rep))); err != nil {
			t.Fatal(err)
		}
		envelopes++
	}
	return envelopes
}

// schema2Envelope is the JSON envelope the build before schema 3 wrote
// for rep: each distinct trace step once, in steps, and each finding's
// trace as indices into it.
func schema2Envelope(t *testing.T, rep *webssari.Report, inc ai.Includes) []byte {
	t.Helper()
	type finding struct {
		webssari.Finding
		Trace []int `json:"trace"`
	}
	var env struct {
		Schema int    `json:"schema"`
		Name   string `json:"name"`
		ai.Includes
		Steps  []webssari.TraceStep `json:"steps,omitempty"`
		Traces []report.Trace       `json:"traces,omitempty"`
		Report struct {
			*webssari.Report
			Findings []finding `json:"findings,omitempty"`
		} `json:"report"`
	}
	env.Schema, env.Name, env.Includes, env.Traces = 2, rep.File, inc, report.Traces(rep)
	body := *rep
	body.Profile = nil
	env.Report.Report = &body
	index := make(map[webssari.TraceStep]int)
	for _, f := range rep.Findings {
		sf := finding{Finding: f}
		for _, step := range f.Trace {
			id, ok := index[step]
			if !ok {
				id = len(env.Steps)
				index[step] = id
				env.Steps = append(env.Steps, step)
			}
			sf.Trace = append(sf.Trace, id)
		}
		env.Report.Findings = append(env.Report.Findings, sf)
	}
	out, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// storeBlobs reads every blob in st, opened on root, keyed by store key.
func storeBlobs(t *testing.T, st *webssari.ResultStore, root string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, "objects", "*", "*"))
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
// in st, sorted: the current one for each blob the codec decodes, and
// the declared one for each JSON envelope of an older build. Blobs that
// are neither, the dependency graphs, are not envelopes and are left
// out.
func envelopeSchemas(t *testing.T, st *webssari.ResultStore, root string) []int {
	t.Helper()
	var schemas []int
	for _, payload := range storeBlobs(t, st, root) {
		if _, ok := webssari.DecodeEnvelope(payload); ok {
			schemas = append(schemas, webssari.ResultSchema)
			continue
		}
		var doc struct {
			Schema int             `json:"schema"`
			Report json.RawMessage `json:"report"`
		}
		if json.Unmarshal(payload, &doc) == nil && doc.Report != nil {
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
}

// TestStoreServedMatchesCold checks that a fully store-served incremental
// run renders exactly what a cold run does: the JSON report, profiles
// stripped, and every file's text, which the store does not persist but
// renders again on serve. It covers a slice of the §5 corpus, the bundled
// examples and the branchy fixtures, with no policy and under every
// built-in one.
func TestStoreServedMatchesCold(t *testing.T) {
	dirs := []string{writeCorpusSlice(t), "examples/php", "testdata/branchy"}
	for _, dir := range dirs {
		for _, pol := range append([]string{""}, webssari.Policies()...) {
			var opts []webssari.Option
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
				t.Fatalf("%s policy %q: %d of %d files served from the store",
					dir, pol, served.StoreHits, len(served.Files))
			}
			assertSameProject(t, cold, served)
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
		if f.String() != want.Files[i].String() {
			t.Fatalf("%s: text diverged from the cold run's:\n%s\nvs\n%s", f.File, f.String(), want.Files[i].String())
		}
	}
}
