package webssari_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"webssari"
	"webssari/internal/incremental"
	"webssari/internal/telemetry"
)

// writeCorpus lays out the incremental test project: one shared include
// with two dependent pages (one vulnerable through the include, one
// sanitizing) and one standalone file, so the reverse-dependency closure
// of an include edit is a strict subset of the project.
func writeCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, dir, "shared.php", "<?php $greeting = $_GET['q']; ?>\n")
	writeFile(t, dir, "a.php", "<?php include 'shared.php'; echo $greeting; ?>\n")
	writeFile(t, dir, "b.php", "<?php include 'shared.php'; echo htmlspecialchars($greeting); ?>\n")
	writeFile(t, dir, "solo.php", "<?php echo \"static page\"; ?>\n")
	return dir
}

func writeFile(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// incrementalOpts builds one incremental configuration over a fresh
// store and telemetry pair.
func incrementalOpts(t *testing.T) ([]webssari.Option, *webssari.Telemetry) {
	t.Helper()
	st, err := webssari.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tel := webssari.NewTelemetry()
	return []webssari.Option{
		webssari.WithStore(st),
		webssari.WithIncremental(),
		webssari.WithTelemetry(tel),
	}, tel
}

// incProfile pulls the incremental section out of a project profile.
func incProfile(t *testing.T, pr *webssari.ProjectReport) *telemetry.IncrementalProfile {
	t.Helper()
	if pr.Profile == nil || pr.Profile.Incremental == nil {
		t.Fatalf("project profile lacks an incremental section: %+v", pr.Profile)
	}
	return pr.Profile.Incremental
}

// marshalStripped renders a project report with every run-relative field
// (profiles, compile and store counters) removed, for byte comparison.
func marshalProjectStripped(t *testing.T, pr *webssari.ProjectReport) []byte {
	t.Helper()
	raw, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	var strip func(any) any
	strip = func(v any) any {
		switch node := v.(type) {
		case map[string]any:
			delete(node, "profile")
			delete(node, "store_hits")
			delete(node, "store_misses")
			delete(node, "cache_misses")
			for k, child := range node {
				node[k] = strip(child)
			}
		case []any:
			for i, child := range node {
				node[i] = strip(child)
			}
		}
		return v
	}
	out, err := json.Marshal(strip(tree))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestIncrementalUnchangedRunDoesZeroWork pins the warm-path guarantee:
// re-verifying an unchanged project performs no SAT work at all — the
// plan is empty, every file is served from the store, and the
// assertions-checked counter does not move.
func TestIncrementalUnchangedRunDoesZeroWork(t *testing.T) {
	dir := writeCorpus(t)
	storeRoot := t.TempDir()
	st, err := webssari.OpenStore(storeRoot, 0)
	if err != nil {
		t.Fatal(err)
	}
	tel := webssari.NewTelemetry()
	opts := []webssari.Option{webssari.WithStore(st), webssari.WithIncremental(), webssari.WithTelemetry(tel)}

	pr1, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	inc1 := incProfile(t, pr1)
	if !inc1.Full || inc1.Planned != 4 || inc1.Skipped != 0 {
		t.Fatalf("cold run incremental profile = %+v, want full run of 4", inc1)
	}
	checkedAfterCold := tel.Metrics.Counter(telemetry.MetricAssertionsChecked).Value()
	if checkedAfterCold == 0 {
		t.Fatal("cold run checked no assertions; corpus is broken")
	}

	pr2, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	inc2 := incProfile(t, pr2)
	if inc2.Planned != 0 || inc2.Skipped != 4 || inc2.Invalidated != 0 || inc2.Full {
		t.Fatalf("warm run incremental profile = %+v, want 0 planned / 4 skipped", inc2)
	}
	if pr2.StoreHits != 4 {
		t.Fatalf("warm run store hits = %d, want 4", pr2.StoreHits)
	}
	if got := tel.Metrics.Counter(telemetry.MetricAssertionsChecked).Value(); got != checkedAfterCold {
		t.Fatalf("warm run solved: assertions checked went %d → %d, want no movement",
			checkedAfterCold, got)
	}
	for _, rep := range pr2.Files {
		if !rep.Profile.StoreHit {
			t.Fatalf("%s not served from the store on the warm run", rep.File)
		}
	}
	if !bytes.Equal(marshalProjectStripped(t, pr1), marshalProjectStripped(t, pr2)) {
		t.Fatal("graph-served report diverged from the computed one")
	}

	// A store written by older builds holds schema-2 JSON envelopes and
	// a JSON graph under graph schema 1. The graph reads as foreign, so
	// the run plans a full run, and every schema-2 envelope reads as a
	// miss: the four files are re-verified and persisted again under the
	// current schemas, and the next run is served whole.
	if envelopes := downgradeEnvelopes(t, st, storeRoot); envelopes != 4 {
		t.Fatalf("rewrote %d envelopes, want 4", envelopes)
	}
	downgradeGraph(t, st, dir, opts...)
	pr3, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if inc3 := incProfile(t, pr3); inc3.Planned != 4 || inc3.Skipped != 0 || inc3.Invalidated != 0 || !inc3.Full {
		t.Fatalf("older store: incremental profile = %+v, want a full run of 4", inc3)
	}
	if pr3.StoreHits != 0 {
		t.Fatalf("older store: store hits = %d, want 0", pr3.StoreHits)
	}
	if got := envelopeSchemas(t, st, storeRoot); !reflect.DeepEqual(got, []int{3, 3, 3, 3}) {
		t.Fatalf("older store: envelope schemas after the run = %v, want four at 3", got)
	}
	assertSameProject(t, pr1, pr3)
	checkedAfterUpgrade := tel.Metrics.Counter(telemetry.MetricAssertionsChecked).Value()
	pr4, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if inc4 := incProfile(t, pr4); inc4.Planned != 0 || inc4.Skipped != 4 || inc4.Full {
		t.Fatalf("run after the upgrade: incremental profile = %+v, want 0 planned / 4 skipped", inc4)
	}
	if pr4.StoreHits != 4 {
		t.Fatalf("run after the upgrade: store hits = %d, want 4", pr4.StoreHits)
	}
	if got := tel.Metrics.Counter(telemetry.MetricAssertionsChecked).Value(); got != checkedAfterUpgrade {
		t.Fatalf("run after the upgrade solved: assertions checked went %d → %d, want no movement",
			checkedAfterUpgrade, got)
	}
	assertSameProject(t, pr1, pr4)
}

// TestIncrementalJSONGraphPlansFullRunFromStore upgrades a store written
// by the build before graph schema 2: current envelopes beside a JSON
// graph. The first run plans a full run, since the graph reads as
// foreign, but answers every file from the result store without
// solving; the graph it writes plans the next run with zero work.
func TestIncrementalJSONGraphPlansFullRunFromStore(t *testing.T) {
	dir := writeCorpus(t)
	storeRoot := t.TempDir()
	st, err := webssari.OpenStore(storeRoot, 0)
	if err != nil {
		t.Fatal(err)
	}
	tel := webssari.NewTelemetry()
	opts := []webssari.Option{webssari.WithStore(st), webssari.WithIncremental(), webssari.WithTelemetry(tel)}
	pr1, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	downgradeGraph(t, st, dir, opts...)
	checked := tel.Metrics.Counter(telemetry.MetricAssertionsChecked).Value()

	pr2, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if inc := incProfile(t, pr2); !inc.Full || inc.Planned != 4 || inc.Skipped != 0 || inc.Invalidated != 0 {
		t.Fatalf("run over a JSON graph: incremental profile = %+v, want a full run of 4", inc)
	}
	if pr2.StoreHits != 4 {
		t.Fatalf("run over a JSON graph: store hits = %d, want 4", pr2.StoreHits)
	}
	if got := tel.Metrics.Counter(telemetry.MetricAssertionsChecked).Value(); got != checked {
		t.Fatalf("run over a JSON graph solved: assertions checked went %d → %d", checked, got)
	}
	assertSameProject(t, pr1, pr2)

	pr3, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if inc := incProfile(t, pr3); inc.Full || inc.Planned != 0 || inc.Skipped != 4 {
		t.Fatalf("run after the upgrade: incremental profile = %+v, want 0 planned / 4 skipped", inc)
	}
	assertSameProject(t, pr1, pr3)
}

// downgradeGraph rewrites dir's dependency graph in st as the build
// before graph schema 2 wrote it: JSON, under schema 1.
func downgradeGraph(t *testing.T, st *webssari.ResultStore, dir string, opts ...webssari.Option) {
	t.Helper()
	key, err := webssari.GraphKey(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := webssari.ConfigFingerprint(append([]webssari.Option{webssari.WithDir(dir)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := st.Get(key)
	if !ok {
		t.Fatal("no dependency graph in the store")
	}
	g, err := incremental.Decode(payload, filepath.Clean(dir), fp)
	if err != nil {
		t.Fatal(err)
	}
	type node struct {
		Size      int64    `json:"size"`
		MTimeNS   int64    `json:"mtime_ns"`
		Hash      string   `json:"hash"`
		ResultKey string   `json:"result_key,omitempty"`
		Deps      []string `json:"deps,omitempty"`
		Misses    []string `json:"misses,omitempty"`
	}
	type dep struct {
		Size    int64  `json:"size"`
		MTimeNS int64  `json:"mtime_ns"`
		Hash    string `json:"hash"`
	}
	doc := struct {
		Schema int             `json:"schema"`
		Dir    string          `json:"dir"`
		Config string          `json:"config"`
		Files  map[string]node `json:"files"`
		Deps   map[string]dep  `json:"deps,omitempty"`
	}{Schema: 1, Dir: g.Dir, Config: g.Config, Files: map[string]node{}, Deps: map[string]dep{}}
	for path, n := range g.Files {
		doc.Files[path] = node{n.Size, n.MTimeNS, n.Hash, n.ResultKey, n.Deps, n.Misses}
	}
	for path, m := range g.Deps {
		doc.Deps[path] = dep{m.Size, m.MTimeNS, m.Hash}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, out); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalSharedEditReverifiesExactlyDependents edits the shared
// include and checks the delta is its reverse-dependency closure — the
// include itself plus both dependents, while the standalone file is
// still served from the store — with verdicts byte-identical to a cold
// full run over the edited tree.
func TestIncrementalSharedEditReverifiesExactlyDependents(t *testing.T) {
	dir := writeCorpus(t)
	opts, tel := incrementalOpts(t)

	pr1, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if pr1.VulnerableFiles != 1 {
		t.Fatalf("cold run vulnerable files = %d, want 1 (a.php through the include)", pr1.VulnerableFiles)
	}

	// The edit sanitizes the include's assignment; the content length
	// changes, so even a filesystem with coarse mtimes cannot mask it.
	writeFile(t, dir, "shared.php", "<?php $greeting = htmlspecialchars($_GET['q']); ?>\n")

	checkedBefore := tel.Metrics.Counter(telemetry.MetricAssertionsChecked).Value()
	pr2, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	inc := incProfile(t, pr2)
	if inc.Planned != 3 || inc.Skipped != 1 || inc.Invalidated != 3 || inc.Full {
		t.Fatalf("delta profile = %+v, want 3 planned (shared + 2 dependents) / 1 skipped", inc)
	}
	if pr2.StoreHits != 1 {
		t.Fatalf("delta run store hits = %d, want 1 (solo.php)", pr2.StoreHits)
	}
	if got := tel.Metrics.Counter(telemetry.MetricAssertionsChecked).Value(); got == checkedBefore {
		t.Fatal("delta run checked no assertions; the dependents were not re-verified")
	}
	// The sanitizing edit flips the through-include vulnerability.
	if pr2.VulnerableFiles != 0 {
		t.Fatalf("post-edit vulnerable files = %d, want 0", pr2.VulnerableFiles)
	}

	// Same verdicts as a cold full run over the edited tree.
	coldOpts, _ := incrementalOpts(t)
	prCold, err := webssari.VerifyDir(dir, coldOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalProjectStripped(t, pr2), marshalProjectStripped(t, prCold)) {
		t.Fatalf("delta run diverged from cold run:\n%s\nvs\n%s",
			marshalProjectStripped(t, pr2), marshalProjectStripped(t, prCold))
	}

	// One more unchanged run settles back to zero work.
	pr3, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if inc3 := incProfile(t, pr3); inc3.Planned != 0 || inc3.Skipped != 4 {
		t.Fatalf("post-delta warm run = %+v, want 0 planned / 4 skipped", inc3)
	}
}

// TestIncrementalGraphCorruptionDegradesToFullRun damages the persisted
// graph two ways — bytes flipped on disk (store-level corruption) and a
// validly framed blob with garbage JSON (decode-level corruption) — and
// checks both degrade to a full re-verification with unchanged verdicts,
// never an error or a wrong answer.
func TestIncrementalGraphCorruptionDegradesToFullRun(t *testing.T) {
	dir := writeCorpus(t)
	storeRoot := t.TempDir()
	st, err := webssari.OpenStore(storeRoot, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := []webssari.Option{webssari.WithStore(st), webssari.WithIncremental()}

	pr1, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalProjectStripped(t, pr1)

	gkey, err := webssari.GraphKey(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}

	// Corruption 1: flip the blob's bytes on disk. The store's checksum
	// catches it, the planner sees no graph, the run is full.
	blob := filepath.Join(storeRoot, "objects", gkey[:2], gkey)
	if _, err := os.Stat(blob); err != nil {
		t.Fatalf("graph blob not at the documented path: %v", err)
	}
	if err := os.WriteFile(blob, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	pr2, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatalf("corrupted graph must degrade, not error: %v", err)
	}
	if inc := incProfile(t, pr2); !inc.Full {
		t.Fatalf("corrupted graph planned a delta: %+v", inc)
	}
	if !bytes.Equal(want, marshalProjectStripped(t, pr2)) {
		t.Fatal("corrupted-graph run changed verdicts")
	}

	// Corruption 2: a well-framed store entry whose payload is not a
	// graph. Decode rejects it and the run is again full.
	if err := st.Put(gkey, []byte("not a graph")); err != nil {
		t.Fatal(err)
	}
	pr3, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatalf("undecodable graph must degrade, not error: %v", err)
	}
	if inc := incProfile(t, pr3); !inc.Full {
		t.Fatalf("undecodable graph planned a delta: %+v", inc)
	}
	if !bytes.Equal(want, marshalProjectStripped(t, pr3)) {
		t.Fatal("undecodable-graph run changed verdicts")
	}

	// The degraded runs rewrote a healthy graph: the next run is a clean
	// delta again.
	pr4, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if inc := incProfile(t, pr4); inc.Full || inc.Planned != 0 || inc.Skipped != 4 {
		t.Fatalf("recovery run = %+v, want 0 planned / 4 skipped", inc)
	}
}

// TestIncrementalWithoutStoreIsPlainRun checks WithIncremental alone
// (no store) silently runs the ordinary full path — no profile section,
// no error.
func TestIncrementalWithoutStoreIsPlainRun(t *testing.T) {
	dir := writeCorpus(t)
	pr, err := webssari.VerifyDir(dir, webssari.WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	if pr.Profile != nil && pr.Profile.Incremental != nil {
		t.Fatalf("storeless incremental run grew an incremental profile: %+v", pr.Profile.Incremental)
	}
	if pr.VulnerableFiles != 1 {
		t.Fatalf("vulnerable files = %d, want 1", pr.VulnerableFiles)
	}
}

// TestIncrementalFunctionEditMatchesColdRun edits the body of one
// function in a file that defines two, re-verifies incrementally, and
// checks the report is byte-identical (run-relative fields stripped) to
// a cold run over the edited tree. CI runs this by name.
func TestIncrementalFunctionEditMatchesColdRun(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "page.php", `<?php
function head($x) { echo htmlspecialchars($x); }
head($_GET['a']);
function tail($y) { echo htmlspecialchars($y); }
tail($_GET['b']);
`)
	opts, _ := incrementalOpts(t)
	pr1, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr1.Files) != 1 || !pr1.Files[0].Safe {
		t.Fatalf("cold run: %+v, want one safe file", pr1.Files)
	}

	// Routing tail's sanitized value through a local changes its
	// equations, not just its source text.
	writeFile(t, dir, "page.php", `<?php
function head($x) { echo htmlspecialchars($x); }
head($_GET['a']);
function tail($y) { $t = htmlspecialchars($y); echo $t; }
tail($_GET['b']);
`)
	pr2, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if inc := incProfile(t, pr2); inc.Planned != 1 || inc.Invalidated != 1 || inc.Full {
		t.Fatalf("edited run = %+v, want 1 planned / 1 invalidated", inc)
	}

	coldOpts, _ := incrementalOpts(t)
	prCold, err := webssari.VerifyDir(dir, coldOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalProjectStripped(t, pr2), marshalProjectStripped(t, prCold); !bytes.Equal(got, want) {
		t.Fatalf("incremental run diverged from cold run:\n%s\nvs\n%s", got, want)
	}
}

// TestIncrementalTouchedViolationKeepsFindings re-verifies a vulnerable
// file after a whitespace-only touch: the violation and its findings
// must come back from the re-verification.
func TestIncrementalTouchedViolationKeepsFindings(t *testing.T) {
	dir := t.TempDir()
	const src = `<?php
function render($x) { echo $x; }
render($_GET['a']);
function safe($y) { echo htmlspecialchars($y); }
safe($_GET['b']);
`
	writeFile(t, dir, "bad.php", src)
	opts, _ := incrementalOpts(t)
	pr1, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if pr1.Files[0].Safe || len(pr1.Files[0].Findings) == 0 {
		t.Fatal("corpus is broken: expected a violation with findings")
	}

	// A blank line changes the content hash and shifts every position.
	writeFile(t, dir, "bad.php", strings.Replace(src, "<?php\n", "<?php\n\n", 1))
	pr2, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if inc := incProfile(t, pr2); inc.Planned != 1 {
		t.Fatalf("planned %d, want 1", inc.Planned)
	}
	if pr2.Files[0].Safe {
		t.Fatal("violation disappeared after the touch")
	}
	if got, want := len(pr2.Files[0].Findings), len(pr1.Files[0].Findings); got != want {
		t.Fatalf("re-verified file has %d findings, want %d", got, want)
	}
}

// TestIncrementalServeMissFallsBackOnWorker damages two reused files'
// blobs: one is removed, as GC eviction would, and one no longer
// decodes. The file workers verify both instead of serving them, the
// undecodable blob is invalidated, the observer still receives every
// file, and the verdicts match the cold run's. With the run's context
// already cancelled, the intact files are still served, while the two
// missed ones fail at the deadline stage.
func TestIncrementalServeMissFallsBackOnWorker(t *testing.T) {
	dir := writeCorpus(t)
	storeRoot := t.TempDir()
	st, err := webssari.OpenStore(storeRoot, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var observed []string
	opts := []webssari.Option{webssari.WithStore(st), webssari.WithIncremental(),
		webssari.WithFileObserver(func(rep *webssari.Report) {
			mu.Lock()
			observed = append(observed, filepath.Base(rep.File))
			mu.Unlock()
		})}
	pr1, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	damage := func() {
		t.Helper()
		observed = nil
		for key, payload := range storeBlobs(t, st, storeRoot) {
			rep, ok := webssari.DecodeEnvelope(payload)
			if !ok {
				continue
			}
			switch filepath.Base(rep.File) {
			case "a.php":
				if err := os.Remove(filepath.Join(storeRoot, "objects", key[:2], key)); err != nil {
					t.Fatal(err)
				}
			case "solo.php":
				if err := st.Put(key, []byte("not an envelope")); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	damage()
	stale := st.Stats().Stale
	pr2, err := webssari.VerifyDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if inc := incProfile(t, pr2); inc.Planned != 2 || inc.Skipped != 2 || inc.Invalidated != 2 || inc.Full {
		t.Fatalf("incremental profile = %+v, want 2 planned / 2 skipped / 2 invalidated", inc)
	}
	if pr2.StoreHits != 2 {
		t.Fatalf("store hits = %d, want 2", pr2.StoreHits)
	}
	if got := st.Stats().Stale; got != stale+1 {
		t.Fatalf("stale entries went %d → %d, want the undecodable blob invalidated", stale, got)
	}
	sort.Strings(observed)
	if want := []string{"a.php", "b.php", "shared.php", "solo.php"}; !reflect.DeepEqual(observed, want) {
		t.Fatalf("observer received %v, want %v", observed, want)
	}
	assertSameProject(t, pr1, pr2)

	damage()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pr3, err := webssari.VerifyDirContext(ctx, dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if pr3.StoreHits != 2 || len(pr3.Files) != 2 {
		t.Fatalf("cancelled run: %d store hits, %d files, want the 2 intact files served", pr3.StoreHits, len(pr3.Files))
	}
	var failed []string
	for _, f := range pr3.Failures {
		if f.Stage != "deadline" {
			t.Fatalf("cancelled run: %s failed at %q, want the deadline stage", f.File, f.Stage)
		}
		failed = append(failed, filepath.Base(f.File))
	}
	sort.Strings(failed)
	if want := []string{"a.php", "solo.php"}; !reflect.DeepEqual(failed, want) {
		t.Fatalf("cancelled run failed %v, want %v", failed, want)
	}
	sort.Strings(observed)
	if want := []string{"b.php", "shared.php"}; !reflect.DeepEqual(observed, want) {
		t.Fatalf("cancelled run: observer received %v, want %v", observed, want)
	}
}
