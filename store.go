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
//     never a wrong answer. So does an envelope of another schema, or
//     one whose step indices or trace listing do not add up
//     (storeDecode): a report is served whole or not at all.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"

	"webssari/internal/core"
	"webssari/internal/php/token"
	"webssari/internal/report"
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
// envelope or the Report JSON shape changes incompatibly; blobs of any
// other schema read as a miss.
const resultSchema = 2

// storedEnvelope is the persisted form of one verification result: the
// report plus what is needed to revalidate and re-render it. The traces
// of one file pass through the same assignments, so each distinct trace
// step is stored once, in Steps, and findings name their steps by index.
// The text report is not stored: serving renders it again from the
// report and Traces.
type storedEnvelope struct {
	Schema int    `json:"schema"`
	Name   string `json:"name"`
	// IncludeHashes and IncludeMisses snapshot the include resolution
	// the model was built under (see core.CompileCache revalidation).
	IncludeHashes map[string]string `json:"include_hashes,omitempty"`
	IncludeMisses []string          `json:"include_misses,omitempty"`
	// Steps is the file's table of distinct trace steps.
	Steps []TraceStep `json:"steps,omitempty"`
	// Traces lists one entry per finding in the text report's order:
	// group by group, each group's traces in repair order.
	Traces []storedTrace `json:"traces,omitempty"`
	Report storedReport  `json:"report"`
}

// storedReport is the Report JSON with each finding's trace replaced by
// indices into storedEnvelope.Steps.
type storedReport struct {
	*Report
	Findings []storedFinding `json:"findings,omitempty"`
}

// storedFinding is a Finding whose trace is a list of step indices.
type storedFinding struct {
	Finding
	Trace []int `json:"trace"`
}

// storedTrace carries what a finding's lines of the text report need
// and the Report lacks: which finding it is, the sink's output context
// and the branch path.
type storedTrace struct {
	Finding int    `json:"finding"`
	Context string `json:"context,omitempty"`
	Path    string `json:"path,omitempty"`
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

// storeDecode fetches and decodes one envelope; undecodable,
// foreign-schema or inconsistent blobs are invalidated and read as a
// miss.
func storeDecode(cfg *config, key string) (*storedEnvelope, bool) {
	payload, ok := cfg.resultStore.Get(key)
	if !ok {
		return nil, false
	}
	var env storedEnvelope
	if err := json.Unmarshal(payload, &env); err != nil || env.Schema != resultSchema || !env.consistent() {
		cfg.resultStore.Invalidate(key)
		return nil, false
	}
	return &env, true
}

// consistent reports whether a decoded envelope can be served whole:
// every step index names a table entry, and Traces lists each finding
// exactly once, group by group, in the counts the patches declare.
func (env *storedEnvelope) consistent() bool {
	if env.Report.Report == nil {
		return false
	}
	findings := env.Report.Findings
	for _, f := range findings {
		for _, s := range f.Trace {
			if s < 0 || s >= len(env.Steps) {
				return false
			}
		}
	}
	if len(env.Traces) != len(findings) {
		return false
	}
	listed := make([]bool, len(findings))
	next := 0
	for g, p := range env.Report.Patches {
		if p.Findings < 0 || p.Findings > len(env.Traces)-next {
			return false
		}
		for _, t := range env.Traces[next : next+p.Findings] {
			if t.Finding < 0 || t.Finding >= len(findings) || listed[t.Finding] || findings[t.Finding].Group != g {
				return false
			}
			listed[t.Finding] = true
		}
		next += p.Findings
	}
	return next == len(env.Traces)
}

// serveStored prepares a consistent envelope's report for return: each
// finding's trace rebuilt from the step table, the text rendered again,
// and a minimal fresh profile marking the store hit.
func serveStored(env *storedEnvelope) *Report {
	rep := env.Report.Report
	total := 0
	for _, f := range env.Report.Findings {
		total += len(f.Trace)
	}
	// One backing array for every trace; each finding's slice is capped
	// so an append to it cannot overwrite the next finding's steps.
	steps := make([]TraceStep, 0, total)
	if len(env.Report.Findings) > 0 {
		rep.Findings = make([]Finding, len(env.Report.Findings))
	}
	for i, sf := range env.Report.Findings {
		f := sf.Finding
		if len(sf.Trace) > 0 {
			start := len(steps)
			for _, s := range sf.Trace {
				steps = append(steps, env.Steps[s])
			}
			f.Trace = steps[start:len(steps):len(steps)]
		}
		rep.Findings[i] = f
	}
	rep.Text = storedText(rep, env.Traces)
	rep.Profile = &RunProfile{StoreHit: true}
	return rep
}

// storedText renders a served report's text with the same line emitters
// Report.String uses, into one buffer sized up front.
func storedText(rep *Report, traces []storedTrace) string {
	size := 160 + len(rep.File)
	for _, l := range rep.Limits {
		size += 2 + len(l)
	}
	for _, p := range rep.Patches {
		size += 64 + len(p.Description)
	}
	for _, t := range traces {
		f := &rep.Findings[t.Finding]
		size += 48 + len(f.Class) + len(f.Sink) + len(t.Context) + len(f.Location.File) + len(t.Path)
		for _, s := range f.Trace {
			size += 40 + len(s.Location.File) + len(s.Var) + len(s.Value)
		}
	}
	for _, w := range rep.Warnings {
		size += 8 + len(w)
	}
	b := make([]byte, 0, size)
	b = report.AppendHeader(b, rep.File, rep.Safe, rep.Incomplete, rep.Limits, rep.Symptoms, rep.Groups)
	next := 0
	for g, p := range rep.Patches {
		b = report.AppendGroup(b, g, p.Description, p.Findings)
		for _, t := range traces[next : next+p.Findings] {
			f := &rep.Findings[t.Finding]
			b = report.AppendTrace(b, f.Class, f.Sink, t.Context, f.Location.pos())
			for _, s := range f.Trace {
				b = report.AppendStep(b, s.Location.pos(), s.Var, s.Value)
			}
			if t.Path != "" {
				b = report.AppendPath(b, t.Path)
			}
		}
		next += p.Findings
	}
	return string(report.AppendWarnings(b, rep.Warnings))
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
	case env != nil:
		if len(env.IncludeHashes) > 0 {
			r.Includes = make(map[string]string, len(env.IncludeHashes))
			for path, h := range env.IncludeHashes {
				r.Includes[path] = h
			}
		}
		r.Misses = append([]string(nil), env.IncludeMisses...)
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
// not the verification. irep is the internal report rep was derived
// from; it supplies the output contexts and branch paths the text needs.
func storePut(ctx context.Context, cfg *config, name, key string, rep *Report, irep *report.Report, res *core.Result) {
	if rep.Incomplete {
		return
	}
	_, sp := telemetry.StartSpan(ctx, "store_put", "file", name)
	defer sp.End()
	env := storedEnvelope{
		Schema: resultSchema,
		Name:   name,
		Traces: storedTraces(rep, irep),
	}
	// The profile is per-run, not per-content: strip it from the blob so
	// identical verdicts persist identically (and blobs stay small).
	body := *rep
	body.Profile = nil
	env.Report.Report = &body
	if len(rep.Findings) > 0 {
		index := make(map[TraceStep]int)
		env.Report.Findings = make([]storedFinding, len(rep.Findings))
		for i, f := range rep.Findings {
			sf := storedFinding{Finding: f}
			for _, step := range f.Trace {
				id, ok := index[step]
				if !ok {
					id = len(env.Steps)
					index[step] = id
					env.Steps = append(env.Steps, step)
				}
				sf.Trace = append(sf.Trace, id)
			}
			env.Report.Findings[i] = sf
		}
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
	payload, err := json.Marshal(&env)
	if err != nil {
		return
	}
	_ = cfg.resultStore.Put(key, payload)
}

// storedTraces lists, in the text report's group-major order, which of
// rep.Findings each of irep's counterexamples became, with its output
// context and branch path. buildReport appends findings in that order
// and then stable-sorts them by sink position; sorting the same keys the
// same way recovers where each one went.
func storedTraces(rep *Report, irep *report.Report) []storedTrace {
	if len(rep.Findings) == 0 {
		return nil
	}
	traces := make([]storedTrace, 0, len(rep.Findings))
	locs := make([]token.Pos, 0, len(rep.Findings))
	for _, g := range irep.Groups {
		for _, cex := range g.Cexs {
			locs = append(locs, cex.Assert.Origin.Site.Pos)
			t := storedTrace{Context: cex.Assert.Origin.Context}
			if len(cex.Branches) > 0 {
				t.Path = string(report.AppendBranches(nil, cex.Branches))
			}
			traces = append(traces, t)
		}
	}
	order := make([]int, len(traces))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := locs[order[i]], locs[order[j]]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	for k, i := range order {
		traces[i].Finding = k
	}
	return traces
}

// pos converts a Location to the token position the text report's line
// emitters print.
func (l Location) pos() token.Pos { return token.Pos{File: l.File, Line: l.Line, Col: l.Col} }
