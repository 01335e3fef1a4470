package incremental

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// fakeFS backs the planner Env with an in-memory file table.
type fakeFS struct {
	files map[string]FileMeta // path → stat
	hash  map[string]string   // path → content hash
	reads map[string]int      // path → Hash() call count
}

func newFakeFS() *fakeFS {
	return &fakeFS{
		files: make(map[string]FileMeta),
		hash:  make(map[string]string),
		reads: make(map[string]int),
	}
}

func (f *fakeFS) set(path, hash string, size, mtime int64) {
	f.files[path] = FileMeta{Path: path, Size: size, MTimeNS: mtime}
	f.hash[path] = hash
}

func (f *fakeFS) env() Env {
	return Env{
		Hash: func(path string) (string, bool) {
			f.reads[path]++
			h, ok := f.hash[path]
			return h, ok
		},
		Stat: func(path string) (int64, int64, bool) {
			fm, ok := f.files[path]
			return fm.Size, fm.MTimeNS, ok
		},
	}
}

// snapshot builds a Snapshot of the named entry files, in given order.
func (f *fakeFS) snapshot(paths ...string) Snapshot {
	var s Snapshot
	for _, p := range paths {
		s.Files = append(s.Files, f.files[p])
	}
	return s
}

// graphFor records every named entry in a fresh graph, with deps wired
// per the edges map (entry → transitive include paths).
func graphFor(f *fakeFS, edges map[string][]string, entries ...string) *Graph {
	g := New("/proj", "cfg")
	for _, e := range entries {
		fm := f.files[e]
		g.Files[e] = &FileNode{
			Size: fm.Size, MTimeNS: fm.MTimeNS, Hash: f.hash[e],
			ResultKey: "key-" + e,
			Deps:      edges[e],
		}
		for _, dep := range edges[e] {
			dm := f.files[dep]
			g.Deps[dep] = &DepMeta{Size: dm.Size, MTimeNS: dm.MTimeNS, Hash: f.hash[dep]}
		}
	}
	return g
}

func TestPlanDeltaNilGraphIsFull(t *testing.T) {
	f := newFakeFS()
	f.set("a.php", "ha", 10, 1)
	f.set("b.php", "hb", 20, 2)
	p := PlanDelta(nil, f.snapshot("a.php", "b.php"), f.env())
	if !p.Full {
		t.Fatal("nil graph must plan a full run")
	}
	if len(p.Verify) != 2 || len(p.Reuse) != 0 || p.Invalidated != 0 {
		t.Fatalf("full plan = %+v", p)
	}
}

func TestPlanDeltaUnchangedReusesEverythingWithoutReads(t *testing.T) {
	f := newFakeFS()
	f.set("a.php", "ha", 10, 1)
	f.set("lib.php", "hl", 5, 1)
	g := graphFor(f, map[string][]string{"a.php": {"lib.php"}}, "a.php")

	p := PlanDelta(g, f.snapshot("a.php"), f.env())
	if len(p.Verify) != 0 || p.Invalidated != 0 || p.Full {
		t.Fatalf("unchanged plan = %+v", p)
	}
	if p.Reuse["a.php"] != "key-a.php" {
		t.Fatalf("reuse = %v", p.Reuse)
	}
	// The whole point of the stat fast path: zero content reads.
	for path, n := range f.reads {
		if n > 0 {
			t.Fatalf("unchanged plan hashed %s %d time(s)", path, n)
		}
	}
}

func TestPlanDeltaSharedIncludeInvalidatesExactlyDependents(t *testing.T) {
	f := newFakeFS()
	f.set("shared.php", "hs", 5, 1)
	f.set("a.php", "ha", 10, 1)
	f.set("b.php", "hb", 20, 2)
	f.set("c.php", "hc", 30, 3)
	edges := map[string][]string{
		"a.php": {"shared.php"},
		"b.php": {"shared.php"},
		// c.php includes nothing.
	}
	g := graphFor(f, edges, "a.php", "b.php", "c.php")

	// Edit the shared include: new hash, new stat.
	f.set("shared.php", "hs2", 6, 9)

	p := PlanDelta(g, f.snapshot("a.php", "b.php", "c.php"), f.env())
	if strings.Join(p.Verify, ",") != "a.php,b.php" {
		t.Fatalf("verify = %v, want the two dependents of shared.php", p.Verify)
	}
	if p.Invalidated != 2 {
		t.Fatalf("invalidated = %d, want 2", p.Invalidated)
	}
	if p.Reuse["c.php"] != "key-c.php" {
		t.Fatalf("independent file not reused: %v", p.Reuse)
	}
	// Shared-dependency memoization: the edited include was hashed once,
	// not once per dependent.
	if f.reads["shared.php"] != 1 {
		t.Fatalf("shared.php hashed %d time(s), want 1", f.reads["shared.php"])
	}
}

func TestPlanDeltaTouchedButIdenticalStaysReused(t *testing.T) {
	f := newFakeFS()
	f.set("a.php", "ha", 10, 1)
	g := graphFor(f, nil, "a.php")

	// Touch without an edit: mtime moves, content identical.
	f.set("a.php", "ha", 10, 99)

	p := PlanDelta(g, f.snapshot("a.php"), f.env())
	if len(p.Verify) != 0 {
		t.Fatalf("touched-but-identical file invalidated: %v", p.Verify)
	}
	// The refreshed stat is handed back so the next graph takes the fast
	// path again.
	dm := p.Deps["a.php"]
	if dm == nil || dm.MTimeNS != 99 {
		t.Fatalf("plan.Deps[a.php] = %+v, want refreshed mtime 99", dm)
	}
	if f.reads["a.php"] != 1 {
		t.Fatalf("a.php hashed %d time(s), want exactly 1", f.reads["a.php"])
	}
}

func TestPlanDeltaAppearedMissInvalidates(t *testing.T) {
	f := newFakeFS()
	f.set("a.php", "ha", 10, 1)
	g := graphFor(f, nil, "a.php")
	g.Files["a.php"].Misses = []string{"optional.php"}

	// Still missing: reuse.
	p := PlanDelta(g, f.snapshot("a.php"), f.env())
	if len(p.Verify) != 0 {
		t.Fatalf("missing candidate invalidated while still absent: %v", p.Verify)
	}

	// The probed-but-missing include appears: the model would now splice
	// it in, so the file must re-verify.
	f.set("optional.php", "ho", 3, 5)
	p = PlanDelta(g, f.snapshot("a.php"), f.env())
	if strings.Join(p.Verify, ",") != "a.php" || p.Invalidated != 1 {
		t.Fatalf("appeared miss: plan = %+v", p)
	}
}

func TestPlanDeltaConservativeFallbacks(t *testing.T) {
	f := newFakeFS()
	f.set("known.php", "hk", 10, 1)
	f.set("new.php", "hn", 5, 2)
	f.set("nokey.php", "h0", 7, 3)
	f.set("badep.php", "hd", 9, 4)
	g := graphFor(f, nil, "known.php", "nokey.php", "badep.php")
	g.Files["nokey.php"].ResultKey = "" // last run was incomplete
	g.Files["badep.php"].Deps = []string{"ghost.php"}
	// ghost.php has no DepMeta: unknown provenance.

	p := PlanDelta(g, f.snapshot("known.php", "new.php", "nokey.php", "badep.php"), f.env())
	if strings.Join(p.Verify, ",") != "badep.php,new.php,nokey.php" {
		t.Fatalf("verify = %v", p.Verify)
	}
	// A file the graph never saw is work, but not an invalidation.
	if p.Invalidated != 2 {
		t.Fatalf("invalidated = %d, want 2 (nokey + badep, not new)", p.Invalidated)
	}
	if p.Reuse["known.php"] != "key-known.php" {
		t.Fatalf("reuse = %v", p.Reuse)
	}

	// A dependency that vanished outright also invalidates.
	delete(f.files, "ghost.php")
	g2 := graphFor(f, map[string][]string{"known.php": {"gone.php"}}, "known.php")
	g2.Deps["gone.php"] = &DepMeta{Size: 1, MTimeNS: 1, Hash: "hg"}
	delete(f.files, "gone.php")
	delete(f.hash, "gone.php")
	p2 := PlanDelta(g2, f.snapshot("known.php"), f.env())
	if strings.Join(p2.Verify, ",") != "known.php" {
		t.Fatalf("vanished dep: verify = %v", p2.Verify)
	}
}

// TestDecodeRejectsForeignGraphs round-trips a graph and checks that
// Decode refuses what is not this build's graph of this directory under
// this configuration: a foreign schema, dir or config, a truncated
// payload, trailing bytes, and the JSON graph that builds before schema 2
// wrote, which must read as foreign so that the next run plans a full
// run.
func TestDecodeRejectsForeignGraphs(t *testing.T) {
	g := New("/proj", "cfg")
	g.Files["a.php"] = &FileNode{Size: 10, MTimeNS: 1, Hash: "h", ResultKey: "k", Deps: []string{"inc.php"}}
	g.Deps["inc.php"] = &DepMeta{Size: 3, MTimeNS: 2, Hash: "hi"}
	payload := g.Encode()

	decoded, err := Decode(payload, "/proj", "cfg")
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !reflect.DeepEqual(decoded, g) {
		t.Fatalf("round trip: decoded %+v, want %+v", decoded, g)
	}
	f := newFakeFS()
	f.set("a.php", "h", 10, 1)
	f.set("inc.php", "hi", 3, 2)
	if p := PlanDelta(decoded, f.snapshot("a.php"), f.env()); len(p.Verify) != 0 || p.Reuse["a.php"] != "k" {
		t.Fatalf("unchanged plan = %+v", p)
	}
	if _, err := Decode(payload, "/other", "cfg"); err == nil {
		t.Fatal("foreign dir accepted")
	}
	if _, err := Decode(payload, "/proj", "cfg2"); err == nil {
		t.Fatal("foreign config accepted")
	}
	foreign := append([]byte{Schema + 1}, payload[1:]...)
	if _, err := Decode(foreign, "/proj", "cfg"); err == nil {
		t.Fatal("foreign schema accepted")
	}
	for cut := range len(payload) {
		if _, err := Decode(payload[:cut], "/proj", "cfg"); err == nil {
			t.Fatalf("payload cut to %d of %d bytes accepted", cut, len(payload))
		}
	}
	if _, err := Decode(append(payload, 0), "/proj", "cfg"); err == nil {
		t.Fatal("trailing byte accepted")
	}
	parent := []byte(`{"schema":1,"dir":"/proj","config":"cfg","files":{"a.php":{` +
		`"size":10,"mtime_ns":1,"hash":"h","result_key":"k"}}}`)
	if _, err := Decode(parent, "/proj", "cfg"); err == nil {
		t.Fatal("a schema-1 JSON graph was accepted")
	}
}

// FuzzGraphDecode feeds arbitrary payloads to Decode, the boundary where
// a graph blob from disk becomes the planner's input: it must never
// panic, and any graph it accepts must re-encode to the same bytes.
func FuzzGraphDecode(f *testing.F) {
	g := New("/proj", "cfg")
	g.Files["a.php"] = &FileNode{Size: 10, MTimeNS: 1, Hash: "h", ResultKey: "k",
		Deps: []string{"inc.php", "lib/x.php"}, Misses: []string{"gone.php"}}
	g.Files["b.php"] = &FileNode{Size: -1, MTimeNS: 1 << 62, Hash: "h", Deps: []string{"inc.php"}}
	g.Deps["inc.php"] = &DepMeta{Size: 3, MTimeNS: 2, Hash: "hi"}
	g.Deps["lib/x.php"] = &DepMeta{Hash: "hx"}
	f.Add(g.Encode())
	f.Add(New("/proj", "cfg").Encode())
	f.Add([]byte(`{"schema":1,"dir":"/proj","config":"cfg","files":{}}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		g, err := Decode(payload, "/proj", "cfg")
		if err != nil {
			return
		}
		if again := g.Encode(); !bytes.Equal(again, payload) {
			t.Fatalf("accepted graph re-encodes to %x, want %x", again, payload)
		}
	})
}
