package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"webssari/internal/telemetry"
)

func open(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, Options{})
	key := Key("name.php", "source", "prelude")
	payload := []byte(`{"verdict":"unsafe"}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("Get before Put hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("Stats = %+v; want 1 hit, 1 miss, 1 put, 1 entry", st)
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	key := Key("page.php", "src")
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(key, []byte("report-blob")); err != nil {
		t.Fatal(err)
	}
	// A second Open simulates a process restart: the entry must be
	// indexed and readable with no in-memory state carried over.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok || string(got) != "report-blob" {
		t.Fatalf("after reopen Get = %q, %v", got, ok)
	}
	if s2.Stats().Entries != 1 {
		t.Fatalf("after reopen Len = %d, want 1", s2.Stats().Entries)
	}
}

// TestCorruptionDegradesToMiss flips, truncates, and garbage-fills a
// stored blob; every mutation must read as a miss (never an error) and
// remove the bad file so it cannot fail twice.
func TestCorruptionDegradesToMiss(t *testing.T) {
	mutations := map[string]func([]byte) []byte{
		"bit flip in payload": func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-1] ^= 0x40
			return out
		},
		"bit flip in header": func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[20] ^= 0x01 // inside the checksum
			return out
		},
		"truncated mid-payload": func(b []byte) []byte { return b[:len(b)-3] },
		"truncated mid-header":  func(b []byte) []byte { return b[:headerSize-5] },
		"empty file":            func([]byte) []byte { return nil },
		"foreign magic": func(b []byte) []byte {
			out := append([]byte(nil), b...)
			copy(out[0:4], "EVIL")
			return out
		},
		"length mismatch": func(b []byte) []byte {
			out := append([]byte(nil), b...)
			binary.LittleEndian.PutUint64(out[8:16], 1<<40)
			return out
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			s := open(t, Options{})
			key := Key("k", name)
			if err := s.Put(key, []byte("a perfectly good verification report payload")); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(s.path(key))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.path(key), mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupted blob served as hit: %q", got)
			}
			if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
				t.Fatalf("corrupted blob not removed (stat err = %v)", err)
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Hits != 0 {
				t.Fatalf("Stats = %+v; want Corrupt 1, Hits 0", st)
			}
		})
	}
}

// TestSchemaBumpInvalidates writes a blob under an older schema version
// and requires the current store to treat it as a miss and remove it.
func TestSchemaBumpInvalidates(t *testing.T) {
	s := open(t, Options{})
	key := Key("old-schema")
	old := encodeBlob(SchemaVersion-1, []byte("written by yesterday's binary"))
	if err := os.MkdirAll(filepath.Dir(s.path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("old-schema blob served as hit")
	}
	if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
		t.Fatal("old-schema blob not removed")
	}
	// The same key is immediately reusable under the current schema.
	if err := s.Put(key, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || string(got) != "fresh" {
		t.Fatalf("re-Put after schema miss: Get = %q, %v", got, ok)
	}
}

func TestInvalidate(t *testing.T) {
	s := open(t, Options{})
	key := Key("stale-includes")
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s.Invalidate(key)
	if _, ok := s.Get(key); ok {
		t.Fatal("invalidated entry served as hit")
	}
	if st := s.Stats(); st.Stale != 1 || st.Entries != 0 {
		t.Fatalf("Stats = %+v; want Stale 1, Entries 0", st)
	}
}

// TestGCRespectsBudget fills the store past its byte budget and checks
// the LRU collector brings it back under, evicting the oldest entries
// first. Entries age by write order alone: each Put is more recent than
// the one before it.
func TestGCRespectsBudget(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 1024)
	blobSize := int64(headerSize + len(payload))
	s := open(t, Options{MaxBytes: 4 * blobSize})
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("entry-%d", i))
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
	}
	s.GC()
	st := s.Stats()
	if st.Bytes > 4*blobSize {
		t.Fatalf("after GC store holds %d bytes, budget %d", st.Bytes, 4*blobSize)
	}
	if st.GCEvictions == 0 || st.GCBytes == 0 {
		t.Fatalf("GC evicted nothing: %+v", st)
	}
	// The most recently written entries must have survived.
	for _, key := range keys[len(keys)-2:] {
		if _, ok := s.Get(key); !ok {
			t.Fatalf("recently used entry %s evicted before older ones", key)
		}
	}
	// The oldest entries must be gone.
	for _, key := range keys[:2] {
		if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
			t.Fatalf("oldest entry %s survived GC", key)
		}
	}
}

// TestGCEvictsLeastRecentlyHit hits the oldest entry of a full store
// and then writes two more: the hit entry survives, and the two entries
// written after it but never read are evicted in its place.
func TestGCEvictsLeastRecentlyHit(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 1024)
	blobSize := int64(headerSize + len(payload))
	s := open(t, Options{MaxBytes: 4 * blobSize})
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("entry-%d", i))
	}
	for _, key := range keys[:4] {
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("oldest entry missing before the budget was reached")
	}
	for _, key := range keys[4:] {
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i, key := range keys {
		_, err := os.Stat(s.path(key))
		if evicted := i == 1 || i == 2; evicted != os.IsNotExist(err) {
			t.Errorf("entry %d: on disk %v, want evicted %v", i, err == nil, evicted)
		}
	}
	if st := s.Stats(); st.GCEvictions != 2 || st.Entries != 4 {
		t.Fatalf("Stats = %+v; want 2 evictions, 4 entries", st)
	}
}

// TestRecencySurvivesReopen checks that a hit in one process orders GC
// in the next: the blobs are backdated as if written long ago, a second
// Store hits the oldest, and a third Store, opened under a budget that
// holds one entry fewer, evicts the oldest entry that was not hit.
func TestRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1024)
	blobSize := int64(headerSize + len(payload))
	writer, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 4)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("entry-%d", i))
		if err := writer.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		at := time.Now().Add(time.Duration(i-len(keys)) * time.Hour)
		if err := os.Chtimes(writer.path(keys[i]), at, at); err != nil {
			t.Fatal(err)
		}
	}
	reader, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reader.Get(keys[0]); !ok {
		t.Fatal("reopened store missed the oldest entry")
	}
	collector, err := Open(dir, Options{MaxBytes: 3 * blobSize})
	if err != nil {
		t.Fatal(err)
	}
	collector.GC()
	for i, key := range keys {
		_, err := os.Stat(collector.path(key))
		if evicted := i == 1; evicted != os.IsNotExist(err) {
			t.Errorf("entry %d: on disk %v, want evicted %v", i, err == nil, evicted)
		}
	}
}

func TestUnboundedStoreNeverEvicts(t *testing.T) {
	s := open(t, Options{MaxBytes: -1})
	for i := 0; i < 32; i++ {
		if err := s.Put(Key(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("y"), 2048)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.GCEvictions != 0 || st.Entries != 32 {
		t.Fatalf("unbounded store evicted: %+v", st)
	}
}

// TestConcurrentReadersWriters hammers one store from many goroutines —
// overlapping keys, rewrites, invalidations, GCs — and is meaningful
// under -race. Every successful Get must return a payload some writer
// actually stored under that key.
func TestConcurrentReadersWriters(t *testing.T) {
	s := open(t, Options{MaxBytes: 64 << 10})
	const (
		workers = 8
		keys    = 16
		rounds  = 50
	)
	valid := func(key string, payload []byte) bool {
		return strings.HasPrefix(string(payload), "payload:"+key+":")
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := Key(fmt.Sprintf("k%d", (w+r)%keys))
				switch r % 4 {
				case 0, 1:
					payload := fmt.Sprintf("payload:%s:worker%d:round%d", key, w, r)
					if err := s.Put(key, []byte(payload)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 2:
					if got, ok := s.Get(key); ok && !valid(key, got) {
						t.Errorf("Get(%s) returned foreign payload %q", key, got)
						return
					}
				case 3:
					if r%12 == 3 {
						s.Invalidate(key)
					} else {
						s.GC()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Puts == 0 {
		t.Fatalf("no puts recorded: %+v", st)
	}
	if st.Bytes > 64<<10 {
		t.Fatalf("store over budget after concurrent run: %+v", st)
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	objDir := filepath.Join(dir, "objects", "ab")
	if err := os.MkdirAll(objDir, 0o755); err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(objDir, tmpPrefix+"crashed-writer")
	if err := os.WriteFile(leftover, []byte("half a blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatal("Open did not sweep the crashed writer's temp file")
	}
	if s.Stats().Entries != 0 {
		t.Fatalf("temp file indexed as entry: Len = %d", s.Stats().Entries)
	}
}

func TestInstrumentMirrorsCounters(t *testing.T) {
	s := open(t, Options{})
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	key := Key("observed")
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s.Get(key)
	s.Get(Key("absent"))
	snap := reg.Snapshot()
	checks := map[string]float64{
		telemetry.MetricStoreHits:    1,
		telemetry.MetricStoreMisses:  1,
		telemetry.MetricStorePuts:    1,
		telemetry.MetricStoreEntries: 1,
	}
	for name, want := range checks {
		if got := snap[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if snap[telemetry.MetricStoreBytes] <= 0 {
		t.Errorf("%s = %g, want > 0", telemetry.MetricStoreBytes, snap[telemetry.MetricStoreBytes])
	}
}

func TestKeyIsContentSensitive(t *testing.T) {
	base := Key("a", "b", "c")
	if Key("a", "b", "c") != base {
		t.Fatal("Key not deterministic")
	}
	// Length-prefixing means re-chunked parts must not collide.
	if Key("ab", "c") == Key("a", "bc") || Key("abc") == base {
		t.Fatal("Key collides across part boundaries")
	}
}

// TestInstrumentAfterOpenShowsCorrupt: a blob Open drops for being
// shorter than a header is counted once, and /metrics reads that count
// even though Instrument came after Open.
func TestInstrumentAfterOpenShowsCorrupt(t *testing.T) {
	dir := t.TempDir()
	key := Key("undersized")
	shard := filepath.Join(dir, "objects", key[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard, key), []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	if got := s.Stats().Corrupt; got != 1 {
		t.Fatalf("Stats().Corrupt = %d, want 1", got)
	}
	if text := reg.PrometheusText(); !strings.Contains(text, telemetry.MetricStoreCorrupt+" 1\n") {
		t.Fatalf("/metrics lacks %s 1:\n%s", telemetry.MetricStoreCorrupt, text)
	}
}

// TestIndexKeepsNoCallerKey checks that neither Put nor Get leaves the
// caller's key string in the index. A caller's key may be a substring of
// a much larger string, such as a decoded dependency graph's string
// table, which the index would otherwise keep alive for as long as the
// entry lives.
func TestIndexKeepsNoCallerKey(t *testing.T) {
	s := open(t, Options{})
	table := strings.Repeat("k", 1<<10) + Key("entry")
	key := table[len(table)-64:]
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(table[len(table)-64:]); !ok {
		t.Fatal("Get missed the entry just put")
	}
	for k := range s.index {
		if unsafe.StringData(k) == unsafe.StringData(key) {
			t.Fatal("the index keeps the caller's key string")
		}
	}
}
