package webssari

// This file wires the on-disk result store (internal/store) into the
// verification entry points as a second cache tier. Tier 1 is the
// in-process compile cache (compiled Programs, gone at exit); tier 2
// persists finished Reports across process restarts, keyed by a content
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
//     never a wrong answer.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"

	"webssari/internal/core"
	"webssari/internal/store"
	"webssari/internal/telemetry"
)

// ResultStore is the persistent, content-addressed result store
// (tier 2). Open one with OpenStore and attach it with WithStore; one
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
// bypass tier 2 — they need the compiled artifacts, not just the
// verdict — but still benefit from the tier-1 compile cache.
func WithStore(s *ResultStore) Option {
	return func(c *config) error {
		if s != nil {
			c.resultStore = s
		}
		return nil
	}
}

// StoreBackend is the abstract result-store surface (tier 2): the local
// on-disk *ResultStore implements it, and so can a shared or remote
// backend — the cluster's workers attach one pointing at the
// coordinator's store so any worker can serve any cached verdict.
type StoreBackend = store.Backend

// WithStoreBackend attaches an arbitrary result-store backend. It is
// WithStore generalized: everything said there — soundness rules,
// include revalidation, degrade-to-miss on damage — holds for any
// backend, which must additionally tolerate an unreachable remote by
// degrading to a cold cache.
func WithStoreBackend(b StoreBackend) Option {
	return func(c *config) error {
		if b != nil {
			c.resultStore = b
		}
		return nil
	}
}

// FileVerifier replaces the engine invocation for each entry file of a
// project run (VerifyDir/VerifyDirContext): instead of verifying src in
// process, the project walker calls fn with exactly the per-file options
// a local worker would use. It is the cluster dispatch seam — the
// coordinator's implementation ships the source to a worker daemon and
// decodes the returned report — and the contract is strict: fn must
// return a report identical to what VerifyContext(ctx, src, name,
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

// resultSchema versions the envelope layout inside store blobs,
// independent of the store's own framing version. Bump it when the
// Report JSON shape changes incompatibly.
const resultSchema = 1

// storedEnvelope is the persisted form of one verification result: the
// report plus what is needed to revalidate and re-render it.
type storedEnvelope struct {
	Schema int    `json:"schema"`
	Name   string `json:"name"`
	// IncludeHashes and IncludeMisses snapshot the include resolution
	// the model was built under (see core.CompileCache revalidation).
	IncludeHashes map[string]string `json:"include_hashes,omitempty"`
	IncludeMisses []string          `json:"include_misses,omitempty"`
	// Funcs maps function key → IR fingerprint of the entry file's
	// lowered unit (see ir.Unit.Fingerprints); SafeAsserts lists the
	// check fingerprints proved safe by this result. Both feed the
	// incremental planner's function-level delta.
	Funcs       map[string]string `json:"funcs,omitempty"`
	SafeAsserts []string          `json:"safe_asserts,omitempty"`
	// Text is the rendered human-readable report, persisted separately
	// because Report excludes it from JSON.
	Text   string  `json:"text"`
	Report *Report `json:"report"`
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

// storeGet consults tier 2 for a finished report. A hit is decoded and
// revalidated (envelope schema, include snapshot); any failure reads as
// a miss. The returned report is marked StoreHit with a minimal fresh
// profile — the persisted run's timings belong to the run that paid
// them. The decoded envelope rides along so callers can record the
// persisted include resolution into the dependency graph.
func storeGet(ctx context.Context, cfg *config, name, key string) (*Report, *storedEnvelope, bool) {
	_, sp := telemetry.StartSpan(ctx, "store_get", "file", name)
	defer sp.End()
	env, ok := storeDecode(cfg, key)
	if !ok {
		return nil, nil, false
	}
	if !storedIncludesCurrent(env, cfg) {
		cfg.resultStore.Invalidate(key)
		return nil, nil, false
	}
	return serveStored(env), env, true
}

// storeGetTrusted serves a persisted report by key without revalidating
// its include snapshot — the incremental planner's reuse path, where the
// delta plan has already proved (via the dependency graph's fingerprints)
// that neither the entry file nor any spliced include changed. This is
// what makes an unchanged subtree cost one disk read per file instead of
// one read per include edge.
func storeGetTrusted(ctx context.Context, cfg *config, name, key string) (*Report, *storedEnvelope, bool) {
	_, sp := telemetry.StartSpan(ctx, "store_get", "file", name)
	defer sp.End()
	env, ok := storeDecode(cfg, key)
	if !ok {
		return nil, nil, false
	}
	return serveStored(env), env, true
}

// storeDecode fetches and decodes one envelope; undecodable or
// foreign-schema blobs are invalidated and read as a miss.
func storeDecode(cfg *config, key string) (*storedEnvelope, bool) {
	payload, ok := cfg.resultStore.Get(key)
	if !ok {
		return nil, false
	}
	var env storedEnvelope
	if err := json.Unmarshal(payload, &env); err != nil || env.Schema != resultSchema || env.Report == nil {
		cfg.resultStore.Invalidate(key)
		return nil, false
	}
	return &env, true
}

// serveStored prepares a decoded envelope's report for return: rendered
// text restored and a minimal fresh profile marking the store hit.
func serveStored(env *storedEnvelope) *Report {
	rep := env.Report
	rep.Text = env.Text
	rep.Profile = &RunProfile{StoreHit: true}
	return rep
}

// storedIncludesCurrent revalidates a persisted report's include
// snapshot against the current loader, mirroring the compile cache's
// includesCurrent: every spliced include must still hash the same and
// every probed-but-missing candidate must still be missing.
func storedIncludesCurrent(env *storedEnvelope, cfg *config) bool {
	if len(env.IncludeHashes) == 0 && len(env.IncludeMisses) == 0 {
		return true
	}
	if cfg.loader == nil {
		return false
	}
	for path, want := range env.IncludeHashes {
		data, err := cfg.loader(path)
		if err != nil {
			return false
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != want {
			return false
		}
	}
	for _, cand := range env.IncludeMisses {
		if _, err := cfg.loader(cand); err == nil {
			return false
		}
	}
	return true
}

// depRecord is what one file's verification teaches the dependency
// graph: the entry's content hash, the store key its report lives
// under, and the include resolution its model was built from.
type depRecord struct {
	Name       string
	SourceHash string
	ResultKey  string
	// Includes maps resolved include path → hex content hash; Misses
	// lists probed-but-absent candidates (sorted).
	Includes map[string]string
	Misses   []string
	// Funcs maps function key → IR fingerprint of the entry's lowered
	// unit; SafeAsserts lists check fingerprints this run proved safe.
	// Together they let a later run skip the SAT search for assertions
	// whose constraint slice an edit did not touch.
	Funcs       map[string]string
	SafeAsserts []string
}

// priorHint is what the incremental planner knows about a dirty file
// from its previous verification: the function fingerprints of its old
// IR and the check fingerprints proved safe then. runAnalysis seeds
// Options.KnownSafeChecks from it when at least one function fingerprint
// still matches (absent or fully changed fingerprints fall back to
// whole-file re-verification).
type priorHint struct {
	Funcs       map[string]string
	SafeAsserts []string
}

// knownSafeChecks decides whether the hint applies to the freshly
// compiled Program and, if so, returns the prior safe set for
// Options.KnownSafeChecks. The gate is the IR's function fingerprints:
// at least one function must hash identically to the prior unit —
// otherwise (fingerprints absent, or every function changed) the edit's
// blast radius is unknown and the file re-verifies in full. The check
// fingerprints themselves remain the per-assertion soundness test; the
// gate only avoids hashing constraint slices that cannot match.
func (h priorHint) knownSafeChecks(prog *core.Program) map[string]bool {
	if len(h.SafeAsserts) == 0 || len(h.Funcs) == 0 || prog.Unit == nil {
		return nil
	}
	cur := prog.Unit.Fingerprints()
	shared := false
	for key, fp := range h.Funcs {
		if cur[key] == fp {
			shared = true
			break
		}
	}
	if !shared {
		return nil
	}
	known := make(map[string]bool, len(h.SafeAsserts))
	for _, fp := range h.SafeAsserts {
		known[fp] = true
	}
	return known
}

// withPriorHints registers per-file prior verification hints for a
// project run (set internally by incremental VerifyDir).
func withPriorHints(hints map[string]priorHint) Option {
	return func(c *config) error {
		c.priorHints = hints
		return nil
	}
}

// safeAssertFPs extracts the check fingerprints of every assertion the
// result proved safe. Incomplete results yield nothing: their formulas
// may reflect a truncated model, and the incremental reuse path must
// only ever carry over verdicts a complete run stood behind.
func safeAssertFPs(res *core.Result) []string {
	if res == nil || res.System == nil || res.Incomplete() {
		return nil
	}
	var out []string
	for i, ar := range res.PerAssert {
		if !ar.Unknown && len(ar.Counterexamples) == 0 {
			out = append(out, core.CheckFingerprint(res.System, i))
		}
	}
	return out
}

// recordDeps reports one finished file to the configured dependency
// recorder (set internally by incremental VerifyDir). Exactly one of
// res (fresh verification) and env (store hit) carries the include
// resolution. No-op without a recorder.
func (c *config) recordDeps(name string, src []byte, key string, res *core.Result, env *storedEnvelope) {
	if c.depRecorder == nil {
		return
	}
	sum := sha256.Sum256(src)
	r := depRecord{Name: name, SourceHash: hex.EncodeToString(sum[:]), ResultKey: key}
	switch {
	case res != nil && res.AI != nil:
		if len(res.AI.IncludeHashes) > 0 {
			r.Includes = make(map[string]string, len(res.AI.IncludeHashes))
			for path, h := range res.AI.IncludeHashes {
				r.Includes[path] = h
			}
		}
		for cand := range res.AI.IncludeMisses {
			r.Misses = append(r.Misses, cand)
		}
		sort.Strings(r.Misses)
		if res.Unit != nil {
			r.Funcs = res.Unit.Fingerprints()
		}
		r.SafeAsserts = safeAssertFPs(res)
	case env != nil:
		if len(env.IncludeHashes) > 0 {
			r.Includes = make(map[string]string, len(env.IncludeHashes))
			for path, h := range env.IncludeHashes {
				r.Includes[path] = h
			}
		}
		r.Misses = append([]string(nil), env.IncludeMisses...)
		r.Funcs = env.Funcs
		r.SafeAsserts = append([]string(nil), env.SafeAsserts...)
	}
	c.depRecorder(r)
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

// storePut persists a finished report. Incomplete reports are skipped
// (their shape depends on transient pressure); store write failures are
// deliberately swallowed — a full or read-only disk degrades the cache,
// not the verification.
func storePut(ctx context.Context, cfg *config, name, key string, rep *Report, res *core.Result) {
	if rep.Incomplete {
		return
	}
	_, sp := telemetry.StartSpan(ctx, "store_put", "file", name)
	defer sp.End()
	env := storedEnvelope{
		Schema: resultSchema,
		Name:   name,
		Text:   rep.Text,
		Report: rep,
	}
	if res != nil && res.AI != nil {
		if len(res.AI.IncludeHashes) > 0 {
			env.IncludeHashes = make(map[string]string, len(res.AI.IncludeHashes))
			for path, sum := range res.AI.IncludeHashes {
				env.IncludeHashes[path] = sum
			}
		}
		for cand := range res.AI.IncludeMisses {
			env.IncludeMisses = append(env.IncludeMisses, cand)
		}
		sort.Strings(env.IncludeMisses)
	}
	if res != nil {
		if res.Unit != nil {
			env.Funcs = res.Unit.Fingerprints()
		}
		env.SafeAsserts = safeAssertFPs(res)
	}
	// The profile is per-run, not per-content: strip it from the blob so
	// identical verdicts persist identically (and blobs stay small).
	saved := rep.Profile
	rep.Profile = nil
	payload, err := json.Marshal(&env)
	rep.Profile = saved
	if err != nil {
		return
	}
	_ = cfg.resultStore.Put(key, payload)
}
