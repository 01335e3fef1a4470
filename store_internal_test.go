package webssari

// Internal tests of the persisted result envelope: they decode and serve
// blobs through the unexported storeDecode and serveStored, so they live
// inside the package.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// memStore is an in-memory StoreBackend holding the blobs one test
// writes; it is not safe for concurrent use.
type memStore map[string][]byte

func (m memStore) Get(key string) ([]byte, bool) { p, ok := m[key]; return p, ok }

func (m memStore) Put(key string, payload []byte) error { m[key] = payload; return nil }

func (m memStore) Invalidate(key string) { delete(m, key) }

// persist verifies the file at path with a fresh memStore attached and
// returns the report and the one envelope it persisted.
func persist(t testing.TB, path string, opts ...Option) (*Report, []byte) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mem := memStore{}
	opts = append([]Option{WithDir(filepath.Dir(path)), WithStoreBackend(mem)}, opts...)
	rep, err := Verify(src, path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(mem) != 1 {
		t.Fatalf("%s: persisted %d blobs, want 1", path, len(mem))
	}
	var payload []byte
	for _, p := range mem {
		payload = p
	}
	return rep, payload
}

// FuzzStoredEnvelope feeds arbitrary payloads through the envelope
// decoder and the serve path, the boundary where bytes from disk (or a
// remote store) become a report. A payload must either read as a miss,
// and be invalidated, or serve a whole report; it must never panic.
func FuzzStoredEnvelope(f *testing.F) {
	_, safe := persist(f, "examples/php/static.php")
	_, branchy := persist(f, "testdata/branchy/b8_three_roots.php")
	_, attr := persist(f, "examples/php/widget.php", WithPolicy("xss-context"))
	if !strings.Contains(string(attr), `"context":"attr"`) {
		f.Fatalf("xss-context seed lacks an [attr] trace: %s", attr)
	}
	for _, seed := range [][]byte{safe, branchy, attr} {
		f.Add(seed)
	}
	f.Add([]byte(`{"schema":2,"report":{"file":"x.php","findings":[{"trace":[0]}]}}`))
	f.Add([]byte(`{"schema":2,"report":{"patches":[{"findings":-1}]},"traces":[{"finding":0}]}`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		mem := memStore{"k": payload}
		env, ok := storeDecode(&config{resultStore: mem}, "k")
		if !ok {
			if _, kept := mem["k"]; kept {
				t.Fatal("rejected envelope was not invalidated")
			}
			return
		}
		rep := serveStored(env)
		if rep.Profile == nil || !rep.Profile.StoreHit {
			t.Fatal("served report not marked as a store hit")
		}
		if !strings.HasPrefix(rep.Text, "== WebSSARI report for ") {
			t.Fatalf("served text lacks its header: %q", rep.Text)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("served report does not marshal: %v", err)
		}
	})
}

// TestStoredEnvelopeStoresStepsOnce persists the report of the branchy
// fixture with the most findings and checks that the envelope holds each
// distinct trace step once and no rendered text: its step table has one
// entry per distinct step, and the whole payload is smaller than the
// report's text.
func TestStoredEnvelopeStoresStepsOnce(t *testing.T) {
	paths, err := filepath.Glob("testdata/branchy/*.php")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no branchy fixtures: %v", err)
	}
	var rep *Report
	var payload []byte
	for _, path := range paths {
		r, p := persist(t, path)
		if rep == nil || len(r.Findings) > len(rep.Findings) {
			rep, payload = r, p
		}
	}
	distinct := make(map[TraceStep]bool)
	steps := 0
	for _, f := range rep.Findings {
		for _, s := range f.Trace {
			distinct[s] = true
			steps++
		}
	}
	var env storedEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Steps) != len(distinct) {
		t.Fatalf("%s: step table has %d entries, want %d (the distinct steps of %d findings' %d)",
			rep.File, len(env.Steps), len(distinct), len(rep.Findings), steps)
	}
	if len(payload) >= len(rep.Text) {
		t.Fatalf("%s: envelope is %d bytes, not smaller than the %d-byte text it no longer stores",
			rep.File, len(payload), len(rep.Text))
	}
	t.Logf("%s: %d findings, %d steps (%d distinct); envelope %d bytes, text %d bytes",
		rep.File, len(rep.Findings), steps, len(distinct), len(payload), len(rep.Text))
}
