package webssari

// This file wires the on-disk result store (internal/store) into the
// verification entry points. It is the one cache tier: it persists
// finished Reports across process restarts, keyed by a content
// fingerprint of everything that shapes a verdict: the source bytes,
// the trust environment (prelude fingerprint), and every model- or
// solver-shaping option. Re-verifying an unchanged file under an
// unchanged configuration is a disk read — no parse, no SAT.
//
// Soundness rules:
//
//   - Only complete reports are persisted. A degraded run (deadline,
//     conflict budget, resource ceiling, parse errors) depends on
//     transient pressure; caching it would pin incompleteness.
//   - A stored report remembers the include files spliced into its
//     model (path → hash, plus probed-but-missing candidates). A hit is
//     revalidated against the current loader before being served; an
//     edited or newly appeared include invalidates the entry.
//   - Corruption, truncation, and schema-version changes degrade to a
//     miss inside internal/store — a damaged store is a cold cache,
//     never a wrong answer. So does an envelope of another schema, or
//     one that does not decode whole (decodeEnvelope, envelope.go): a
//     report is served whole or not at all.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"

	"webssari/internal/ai"
	"webssari/internal/report"
	"webssari/internal/store"
	"webssari/internal/telemetry"
)

// ResultStore is the persistent, content-addressed result store. Open one with OpenStore and attach it with WithStore; one
// ResultStore is safe for concurrent use across a whole daemon.
type ResultStore = store.Store

// OpenStore opens (creating if needed) a result store rooted at dir,
// retaining at most maxBytes of blobs (0 = store.DefaultMaxBytes,
// negative = unbounded).
func OpenStore(dir string, maxBytes int64) (*ResultStore, error) {
	return store.Open(dir, store.Options{MaxBytes: maxBytes})
}

// WithStore attaches a persistent result store: Verify (and VerifyDir,
// which funnels through it) first consults the store and, on a valid
// hit, returns the persisted report without compiling or solving;
// complete fresh reports are written back. Patch and VerifyToHTML
// bypass the store: they need the compiled artifacts, not just the
// verdict.
func WithStore(s *ResultStore) Option {
	return func(c *config) error {
		if s != nil {
			c.resultStore = s
		}
		return nil
	}
}

// StoreBackend is the abstract result-store surface: the local
// on-disk *ResultStore implements it, and so can any other backend
// (an in-memory one, or one that times each call).
type StoreBackend = store.Backend

// WithStoreBackend attaches an arbitrary result-store backend. It is
// WithStore generalized: everything said there — soundness rules,
// include revalidation, degrade-to-miss on damage — holds for any
// backend.
func WithStoreBackend(b StoreBackend) Option {
	return func(c *config) error {
		if b != nil {
			c.resultStore = b
		}
		return nil
	}
}

// FileVerifier replaces the engine invocation for each entry file of a
// project run (VerifyDir/VerifyDirContext): instead of calling
// VerifyContext, the project walker calls fn with exactly the per-file
// options a local worker would use. The cluster coordinator's fn calls
// VerifyRemote with those options, so the result store, the dependency
// graph and the fallbacks stay the engine's. The contract is strict: fn
// must return a report identical to what VerifyContext(ctx, src, name,
// opts...) would produce, or an equivalent error, so project verdicts
// stay byte-identical (profiles aside) however files are placed. fn is
// invoked from multiple worker goroutines concurrently.
type FileVerifier func(ctx context.Context, src []byte, name string, opts ...Option) (*Report, error)

// WithFileVerifier installs a FileVerifier for project runs. Single-file
// entry points (Verify, Patch) ignore it — they are already the unit the
// verifier would dispatch.
func WithFileVerifier(fn FileVerifier) Option {
	return func(c *config) error {
		c.fileVerifier = fn
		return nil
	}
}

// WithFileObserver registers a callback invoked with each file's
// finished report during VerifyDir, in completion order, as soon as the
// file's verification ends — the hook behind NDJSON streaming in the
// xbmc CLI and the webssarid service. The callback may be invoked from
// multiple worker goroutines concurrently; it must be safe for that.
// Failed files (ProjectReport.Failures) do not produce a call.
func WithFileObserver(fn func(*Report)) Option {
	return func(c *config) error {
		c.observer = fn
		return nil
	}
}

// resultKey fingerprints one verification request: every input that can
// change the produced Report — the entry name, the source bytes, and
// the verdict-shaping configuration (configFingerprint, shared with the
// dependency-graph address). Deadlines, parallelism, and telemetry are
// deliberately excluded — they change whether a run completes, not what
// a complete run concludes, and incomplete runs are never persisted.
func resultKey(name string, src []byte, cfg *config) string {
	return store.Key(
		"webssari-result-v1",
		name,
		string(src),
		cfg.configFingerprint(),
	)
}

// storeGet consults the result store for a finished report. A hit is decoded and
// revalidated (envelope schema, include snapshot); any failure reads as
// a miss. The returned report is marked StoreHit with a minimal fresh
// profile — the persisted run's timings belong to the run that paid
// them. The persisted include resolution rides along on the report
// (report.Includes) so callers can record it into the dependency graph.
func storeGet(ctx context.Context, cfg *config, name, key string) (*Report, bool) {
	_, sp := telemetry.StartSpan(ctx, "store_get", "file", name)
	defer sp.End()
	rep, ok := storeDecode(cfg, key)
	if ok && !report.Includes(rep).Current(cfg.loader) {
		cfg.resultStore.Invalidate(key)
		return nil, false
	}
	return rep, ok
}

// storeGetTrusted serves a persisted report by key without revalidating
// its include snapshot — the incremental planner's reuse path, where the
// delta plan has already proved (via the dependency graph's fingerprints)
// that neither the entry file nor any spliced include changed. This is
// what makes an unchanged subtree cost one disk read per file instead of
// one read per include edge.
func storeGetTrusted(ctx context.Context, cfg *config, name, key string) (*Report, bool) {
	_, sp := telemetry.StartSpan(ctx, "store_get", "file", name)
	defer sp.End()
	return storeDecode(cfg, key)
}

// storeDecode fetches and decodes one envelope (decodeEnvelope); a blob
// that does not decode is invalidated and reads as a miss.
func storeDecode(cfg *config, key string) (*Report, bool) {
	payload, ok := cfg.resultStore.Get(key)
	if !ok {
		return nil, false
	}
	rep, ok := decodeEnvelope(payload, false)
	if !ok {
		cfg.resultStore.Invalidate(key)
	}
	return rep, ok
}

// depRecord is what one file's verification teaches the dependency
// graph: the entry's content hash, the store key its report lives
// under, and the include resolution its model was built from.
type depRecord struct {
	Name       string
	SourceHash string
	ResultKey  string
	Includes   ai.Includes
}

// recordDeps reports one finished file, with the include resolution of
// its model (fresh or persisted), to the configured dependency recorder
// (set internally by incremental VerifyDir). No-op without a recorder.
func (c *config) recordDeps(name string, src []byte, key string, inc ai.Includes) {
	if c.depRecorder == nil {
		return
	}
	sum := sha256.Sum256(src)
	c.depRecorder(depRecord{Name: name, SourceHash: hex.EncodeToString(sum[:]), ResultKey: key, Includes: inc})
}

// withDepRecorder registers the internal callback incremental VerifyDir
// uses to collect each verified file's include resolution and store key.
// Invoked from worker goroutines; the callback must be concurrency-safe.
func withDepRecorder(fn func(depRecord)) Option {
	return func(c *config) error {
		c.depRecorder = fn
		return nil
	}
}

// storePut persists a finished report, wherever it was analyzed.
// Incomplete reports are skipped (their shape depends on transient
// pressure); store write failures are deliberately swallowed — a full
// or read-only disk degrades the cache, not the verification. The
// envelope keeps rep's render records and include snapshot, so a served
// report renders the same text and is revalidated the same way, and
// leaves out the profile, which is per run, not per content, so
// identical verdicts persist identically.
func storePut(ctx context.Context, cfg *config, name, key string, rep *Report) {
	if rep.Incomplete {
		return
	}
	_, sp := telemetry.StartSpan(ctx, "store_put", "file", name)
	defer sp.End()
	if payload := encodeEnvelope(name, rep, false); payload != nil {
		_ = cfg.resultStore.Put(key, payload)
	}
}
