// Package store is a crash-safe, content-addressed on-disk result store,
// the engine's one cache tier: it persists finished verification Reports
// across process restarts, keyed by a content fingerprint (source bytes +
// prelude + model-shaping options), so a service re-verifying an
// unchanged file answers from disk without compiling or solving anything.
//
// Durability discipline:
//
//   - Writes are atomic: a blob is written to a temporary file in the
//     store root and renamed into place, so a reader never observes a
//     half-written entry and a crash mid-Put leaves at most a stray temp
//     file (swept on Open).
//   - Every blob carries a fixed header — magic, schema version, payload
//     length, SHA-256 of the payload — verified on every read. A
//     truncated, corrupted, or foreign file degrades to a miss (and is
//     deleted); it is never an error and never a wrong answer.
//   - A schema-version bump invalidates every existing entry the same
//     way: old blobs read as misses and are garbage collected.
//   - The store is bounded by bytes, not entries: when Put pushes the
//     total past MaxBytes, least-recently-used blobs are evicted until
//     the total fits again. Recency lives in the in-memory index, a
//     logical clock that Get and Put advance; Open seeds it in blob
//     mtime order. A key's first hit in a process refreshes its blob's
//     mtime, so recency survives a restart without a metadata write per
//     hit.
//
// The store is safe for concurrent use by any number of goroutines in
// one process. Cross-process sharing of a root directory is tolerated —
// atomic renames keep blobs internally consistent — but the byte
// accounting is per-process, so dedicate one root per daemon.
package store

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"webssari/internal/telemetry"
)

// SchemaVersion is the on-disk blob format version. Bumping it
// invalidates every previously written entry: old blobs read as misses
// and are removed on contact or by GC.
const SchemaVersion = 1

// DefaultMaxBytes bounds the store when Options.MaxBytes is zero:
// 256 MiB, far above the paper's whole corpus, present only so an
// unattended daemon cannot grow a disk without bound.
const DefaultMaxBytes = 256 << 20

// blob header: magic (4) + schema (4, LE) + payload length (8, LE) +
// SHA-256 of payload (32).
var blobMagic = [4]byte{'W', 'S', 'S', 'R'}

const headerSize = 4 + 4 + 8 + sha256.Size

// Backend is the interface the engine's result-store plumbing runs
// against: the content-addressed Get/Put/Invalidate surface of a Store,
// without tying callers to the on-disk implementation. *Store is the
// canonical local backend; callers can substitute another (an
// in-memory one, or one that times each call). Implementations must be
// safe for concurrent use and must degrade, never error, on damaged or
// unreachable storage: Get answers false, Put's error is advisory,
// Invalidate is best-effort.
type Backend interface {
	// Get returns the payload stored under key; false on any miss.
	Get(key string) ([]byte, bool)
	// Put stores payload under key.
	Put(key string, payload []byte) error
	// Invalidate removes an entry whose payload was intact but failed
	// the caller's revalidation.
	Invalidate(key string)
}

// Options configures Open.
type Options struct {
	// MaxBytes bounds the total size of retained blobs (headers
	// included). Zero means DefaultMaxBytes; negative disables the bound.
	MaxBytes int64
}

// Stats is a snapshot of the store's cumulative counters.
type Stats struct {
	// Hits counts Gets served a valid payload; Misses counts Gets that
	// found nothing usable (absent, corrupt, or old-schema entries all
	// count here — a degraded read is a miss, never an error).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts successful writes.
	Puts int64 `json:"puts"`
	// Corrupt counts blobs dropped for failing header or checksum
	// verification (a subset of Misses).
	Corrupt int64 `json:"corrupt"`
	// Stale counts entries invalidated by the caller (Invalidate): the
	// blob itself was intact but its revalidation — e.g. an include-hash
	// snapshot — failed.
	Stale int64 `json:"stale"`
	// GCEvictions counts blobs removed by the LRU-by-size collector;
	// GCBytes sums their sizes.
	GCEvictions int64 `json:"gc_evictions"`
	GCBytes     int64 `json:"gc_bytes"`
	// Entries and Bytes describe current occupancy.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Store is a content-addressed blob store rooted at one directory.
type Store struct {
	root     string
	maxBytes int64

	// The store's counts: Stats reads them, and so does /metrics once
	// Instrument has registered them.
	hits        telemetry.CounterMetric
	misses      telemetry.CounterMetric
	puts        telemetry.CounterMetric
	corrupt     telemetry.CounterMetric
	stale       telemetry.CounterMetric
	gcEvictions telemetry.CounterMetric

	// mu guards the index, the clock, the byte total and GC.
	mu      sync.Mutex
	index   map[string]*entry
	clock   uint64 // the last recency stamp handed out
	bytes   int64
	gcBytes int64
}

// entry is one blob in the index. Entries are updated in place: a map
// assignment would replace the stored key with the caller's, which may
// be a substring of a much larger string (a decoded dependency graph)
// that the index would then keep alive.
type entry struct {
	size int64 // on disk, header included
	// stamp orders recency: GC evicts the smallest first.
	stamp uint64
	// touched is set once a Get in this process has refreshed the
	// blob's mtime, which is what the next Open seeds recency from.
	touched bool
}

// Open opens (creating if needed) a store rooted at dir, sweeps
// leftover temp files from crashed writers, and indexes the existing
// blobs, stamping their recency in mtime order. Blobs that fail the
// cheapest validity check (size smaller than a header) are removed
// during indexing; deeper corruption is detected lazily on Get.
func Open(dir string, opts Options) (*Store, error) {
	objDir := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		root:     dir,
		maxBytes: opts.MaxBytes,
		index:    make(map[string]*entry),
	}
	if s.maxBytes == 0 {
		s.maxBytes = DefaultMaxBytes
	}
	type found struct {
		key   string
		size  int64
		mtime time.Time
	}
	var blobs []found
	err := filepath.WalkDir(objDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), tmpPrefix) {
			// A writer crashed between create and rename; the entry was
			// never visible, so removing the temp loses nothing.
			_ = os.Remove(path)
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		if info.Size() < headerSize {
			_ = os.Remove(path)
			s.corrupt.Inc()
			return nil
		}
		blobs = append(blobs, found{d.Name(), info.Size(), info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: indexing %s: %w", dir, err)
	}
	slices.SortFunc(blobs, func(a, b found) int {
		if c := a.mtime.Compare(b.mtime); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	for _, b := range blobs {
		s.clock++
		s.index[b.key] = &entry{size: b.size, stamp: s.clock}
		s.bytes += b.size
	}
	return s, nil
}

// Instrument exposes the store's counts on reg, so a daemon's /metrics
// page shows the store's effectiveness live: every scrape reads the
// counters Stats reads, and the occupancy from the index. A nil registry
// is a no-op.
func (s *Store) Instrument(reg *telemetry.Registry) {
	reg.CounterOf(telemetry.MetricStoreHits, &s.hits)
	reg.CounterOf(telemetry.MetricStoreMisses, &s.misses)
	reg.CounterOf(telemetry.MetricStorePuts, &s.puts)
	reg.CounterOf(telemetry.MetricStoreCorrupt, &s.corrupt)
	reg.CounterOf(telemetry.MetricStoreStale, &s.stale)
	reg.CounterOf(telemetry.MetricStoreGCEvictions, &s.gcEvictions)
	reg.GaugesOf(s, func(emit func(string, int64)) {
		st := s.Stats()
		emit(telemetry.MetricStoreEntries, int64(st.Entries))
		emit(telemetry.MetricStoreBytes, st.Bytes)
	})
}

// Key derives a content address from an ordered list of parts: a
// SHA-256 over the length-prefixed concatenation, hex encoded. Callers
// build keys from everything that shapes the stored result (source
// bytes, prelude fingerprint, option summary) so distinct inputs can
// never collide on an address.
func Key(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

const tmpPrefix = ".tmp-"

// path maps a key to its blob path, sharded by the first byte to keep
// directory fan-out bounded on large stores.
func (s *Store) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.root, "objects", shard, key)
}

// Get returns the payload stored under key. The second result is false
// on any miss — absent, truncated, corrupted, or written under a
// different schema version — and a bad blob is deleted so it cannot
// fail again. Get never returns an error: a store that degrades is a
// cold cache, not a broken verifier. A hit makes the key the most
// recently used; the key's first hit in this process also refreshes its
// blob's mtime, so the next Open orders it the same way.
func (s *Store) Get(key string) ([]byte, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Inc()
		return nil, false
	}
	payload, ok := decodeBlob(data)
	if !ok {
		s.corrupt.Inc()
		s.drop(key)
		s.misses.Inc()
		return nil, false
	}
	s.mu.Lock()
	e := s.index[key]
	first := e == nil || !e.touched
	if e != nil {
		s.clock++
		e.stamp, e.touched = s.clock, true
	}
	s.mu.Unlock()
	if first {
		now := time.Now()
		_ = os.Chtimes(s.path(key), now, now) // best-effort; recency across restarts
	}
	s.hits.Inc()
	return payload, true
}

// Put stores payload under key, atomically: the blob becomes visible
// only when complete. When the write pushes the store past its byte
// budget, least-recently-used entries are evicted until it fits.
func (s *Store) Put(key string, payload []byte) error {
	blob := encodeBlob(SchemaVersion, payload)
	dir := filepath.Dir(s.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.puts.Inc()

	s.mu.Lock()
	s.clock++
	if e := s.index[key]; e != nil {
		s.bytes -= e.size
		e.size, e.stamp = int64(len(blob)), s.clock
	} else {
		s.index[strings.Clone(key)] = &entry{size: int64(len(blob)), stamp: s.clock}
	}
	s.bytes += int64(len(blob))
	s.gcLocked()
	s.mu.Unlock()
	return nil
}

// Invalidate removes an entry whose blob was intact but whose content
// failed the caller's revalidation (a stale include snapshot). It is
// counted separately from corruption.
func (s *Store) Invalidate(key string) {
	s.stale.Inc()
	s.drop(key)
}

// drop removes a blob file and its index entry.
func (s *Store) drop(key string) {
	_ = os.Remove(s.path(key))
	s.mu.Lock()
	if e := s.index[key]; e != nil {
		s.bytes -= e.size
		delete(s.index, key)
	}
	s.mu.Unlock()
}

// GC evicts least-recently-used blobs until the store fits its byte
// budget; Stats counts what it removed. Put runs the same collection
// automatically; GC exists for callers that shrink the budget of a live
// store or want a scheduled sweep.
func (s *Store) GC() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked()
}

// gcLocked is the LRU-by-size collector; the caller holds s.mu. It
// evicts in recency-stamp order, oldest first.
func (s *Store) gcLocked() {
	if s.maxBytes < 0 || s.bytes <= s.maxBytes {
		return
	}
	type aged struct {
		key string
		*entry
	}
	entries := make([]aged, 0, len(s.index))
	for key, e := range s.index {
		entries = append(entries, aged{key, e})
	}
	slices.SortFunc(entries, func(a, b aged) int { return cmp.Compare(a.stamp, b.stamp) })
	for _, e := range entries {
		if s.bytes <= s.maxBytes {
			break
		}
		_ = os.Remove(s.path(e.key))
		delete(s.index, e.key)
		s.bytes -= e.size
		s.gcEvictions.Inc()
		s.gcBytes += e.size
	}
}

// Stats returns a snapshot of the store's counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:        s.hits.Value(),
		Misses:      s.misses.Value(),
		Puts:        s.puts.Value(),
		Corrupt:     s.corrupt.Value(),
		Stale:       s.stale.Value(),
		GCEvictions: s.gcEvictions.Value(),
		GCBytes:     s.gcBytes,
		Entries:     len(s.index),
		Bytes:       s.bytes,
	}
}

// A Namespace re-addresses keys under a label so one backend can hold
// independent kinds of blobs (verification results, dependency graphs)
// without key collisions: every operation maps key → NamespacedKey
// before hitting the backend, so namespaced blobs share the framing,
// crash-safety, GC budget, and telemetry of the store they live in.
type Namespace struct {
	s     Backend
	label string
}

// NamespaceOf returns a view of b whose keys are re-addressed under
// label. The empty label is the backend's root namespace.
func NamespaceOf(b Backend, label string) Namespace { return Namespace{s: b, label: label} }

// NamespacedKey maps a caller key into a namespace: the final content
// address of a blob stored via Namespace{label}.Put(key, …). Exposed so
// tests and tooling can locate namespaced blobs on disk.
func NamespacedKey(label, key string) string {
	if label == "" {
		return key
	}
	return Key("namespace", label, key)
}

// Get returns the payload stored under key within the namespace.
func (n Namespace) Get(key string) ([]byte, bool) { return n.s.Get(NamespacedKey(n.label, key)) }

// Put stores the payload under key within the namespace.
func (n Namespace) Put(key string, payload []byte) error {
	return n.s.Put(NamespacedKey(n.label, key), payload)
}

// Invalidate removes the entry stored under key within the namespace.
func (n Namespace) Invalidate(key string) { n.s.Invalidate(NamespacedKey(n.label, key)) }

// encodeBlob frames a payload under the given schema version.
func encodeBlob(version uint32, payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	copy(out[0:4], blobMagic[:])
	binary.LittleEndian.PutUint32(out[4:8], version)
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[16:16+sha256.Size], sum[:])
	copy(out[headerSize:], payload)
	return out
}

// decodeBlob verifies a blob's frame and returns its payload. Any
// mismatch — short file, wrong magic, foreign schema version, length
// disagreement, checksum failure — reads as invalid.
func decodeBlob(data []byte) ([]byte, bool) {
	if len(data) < headerSize {
		return nil, false
	}
	if !bytes.Equal(data[0:4], blobMagic[:]) {
		return nil, false
	}
	if binary.LittleEndian.Uint32(data[4:8]) != SchemaVersion {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	payload := data[headerSize:]
	if uint64(len(payload)) != n {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[16:16+sha256.Size]) {
		return nil, false
	}
	return payload, true
}
