package webssari

// This file orchestrates incremental project verification
// (WithIncremental + WithStore): load the persisted include-dependency
// graph, plan the delta against the directory snapshot, serve unchanged
// files from the result store by their remembered keys, verify the
// rest, and persist a rebuilt graph for the next run. See
// internal/incremental for the graph and planner, DESIGN.md §11 for the
// invalidation rules.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"webssari/internal/incremental"
	"webssari/internal/store"
	"webssari/internal/telemetry"
)

// GraphNamespace is the result-store namespace incremental VerifyDir
// keeps dependency-graph blobs under (see store.Namespace): graph blobs
// share the store's crash-safe framing, GC budget, and telemetry but
// can never collide with verification results.
const GraphNamespace = "depgraph"

// graphKey addresses one directory's dependency graph: the project root
// plus the fingerprint of every verdict-shaping option, so two
// configurations never read each other's graphs.
func graphKey(dir, configFP string) string {
	return store.Key("webssari-depgraph-v1", filepath.Clean(dir), configFP)
}

// GraphKey returns the final result-store key (within GraphNamespace)
// under which an incremental VerifyDir(dir, opts...) persists its
// include-dependency graph — exposed for tests and tooling that need to
// locate or invalidate the blob.
func GraphKey(dir string, opts ...Option) (string, error) {
	fp, err := ConfigFingerprint(append([]Option{WithDir(dir)}, opts...)...)
	if err != nil {
		return "", err
	}
	return store.NamespacedKey(GraphNamespace, graphKey(dir, fp)), nil
}

// ConfigFingerprint returns the fingerprint of every verdict-shaping
// option in opts: the non-content part of each result-store and
// dependency-graph key. Options that change only cost — parallelism,
// incremental mode, store and telemetry handles — and the deadline (only
// complete reports are stored) do not participate.
func ConfigFingerprint(opts ...Option) (string, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return "", err
	}
	return c.configFingerprint(), nil
}

// configFingerprint summarizes every verdict-shaping option — exactly
// the non-content parts of resultKey. Runs whose fingerprints differ
// can share neither stored results nor a dependency graph.
func (c *config) configFingerprint() string {
	// The policy fingerprint covers context rules, sanitizer variants,
	// sink classes, and guards — verdict-shaping state the prelude
	// fingerprint alone cannot see (two policies may share a prelude yet
	// disagree on context bounds). Folding it in keeps runs under
	// different policies from ever sharing stored results or graphs.
	policyFP := ""
	if c.policy != nil {
		policyFP = c.policy.Fingerprint()
	}
	return store.Key(
		"webssari-config-v1",
		c.pre.Fingerprint(),
		"policy="+policyFP,
		fmt.Sprintf("dir=%s unroll=%d loader=%t", c.dir, c.unroll, c.loader != nil),
		fmt.Sprintf("paper=%t blockall=%t maxcex=%d routine=%s",
			c.paperMode, c.blockAll, c.maxCEX, c.routine),
		// Solver settings are enumerated explicitly rather than %+v'd:
		// only the verdict-shaping fields participate (budgets, which
		// decide whether assertions degrade to Unknown, and the search
		// feature switches).
		// Options.Interrupt is a live func (never set at config time) and
		// must never be formatted into a persistent key.
		fmt.Sprintf("solver=conflicts:%d,restarts:%d,novsids:%t,nolearn:%t,norestart:%t",
			c.solver.MaxConflicts, c.solver.MaxRestarts, c.solver.DisableVSIDS, c.solver.DisableLearning, c.solver.DisableRestarts),
		fmt.Sprintf("limits=%+v", c.limits),
	)
}

// fsEnv is the planner's real filesystem view.
var fsEnv = incremental.Env{
	Hash: func(path string) (string, bool) {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", false
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:]), true
	},
	Stat: func(path string) (int64, int64, bool) {
		info, err := os.Stat(path)
		if err != nil || info.IsDir() {
			return 0, 0, false
		}
		return info.Size(), info.ModTime().UnixNano(), true
	},
}

// verifyDirIncremental is VerifyDirContext's incremental mode. The
// planner only ever shrinks work: any file it cannot prove unchanged —
// and any file whose remembered store entry has been evicted — is
// verified in full, so verdicts are byte-identical (profiles aside) to
// a cold full run.
func verifyDirIncremental(ctx context.Context, dir string, snap incremental.Snapshot, walkFails []FileFailure, opts []Option, cfg *config) (*ProjectReport, error) {
	tctx := telemetry.WithTelemetry(ctx, cfg.telemetry)

	// Fingerprint under the same effective config the per-file workers
	// see (VerifyDir prepends WithDir before user options).
	fcfg, err := buildConfig(append([]Option{WithDir(dir)}, opts...))
	if err != nil {
		// Unbuildable options: let the plain path surface the per-file
		// errors exactly as a non-incremental run would.
		pr, _, err := verifyDirFiles(ctx, dir, snap, walkFails, nil, opts)
		return pr, err
	}
	configFP := fcfg.configFingerprint()
	ns := store.NamespaceOf(cfg.resultStore, GraphNamespace)
	gkey := graphKey(dir, configFP)

	_, psp := telemetry.StartSpan(tctx, "plan_delta", "dir", dir)
	var g *incremental.Graph
	if payload, ok := ns.Get(gkey); ok {
		g, err = incremental.Decode(payload, filepath.Clean(dir), configFP)
		if err != nil {
			// Undecodable or foreign graph: drop it and run full — a
			// damaged graph is a cold planner, never a wrong verdict.
			ns.Invalidate(gkey)
			g = nil
		}
	}
	plan := incremental.PlanDelta(g, snap, fsEnv)
	psp.End()

	// Collect each verified file's include resolution and store key from
	// the workers; reused files keep their carried-over graph nodes.
	var recMu sync.Mutex
	records := make(map[string]depRecord)
	recOpts := append([]Option{withDepRecorder(func(r depRecord) {
		recMu.Lock()
		records[r.Name] = r
		recMu.Unlock()
	})}, opts...)

	// The workers serve the reuse set by remembered key; a missing blob
	// (GC eviction) moves the file back into the verify set.
	pr, missed, err := verifyDirFiles(ctx, dir, snap, walkFails, plan.Reuse, recOpts)
	if err != nil {
		return nil, err
	}
	for _, path := range missed {
		delete(plan.Reuse, path)
	}

	inc := &telemetry.IncrementalProfile{
		Planned:     len(plan.Verify) + len(missed),
		Skipped:     len(plan.Reuse),
		Invalidated: plan.Invalidated + len(missed),
		Full:        plan.Full,
	}
	if pr.Profile != nil {
		pr.Profile.Incremental = inc
	}

	// Persist the rebuilt graph. Failures are swallowed like result-store
	// writes: a read-only disk degrades the next plan, not this verdict.
	ng := rebuildGraph(filepath.Clean(dir), configFP, snap, g, plan, records)
	_ = ns.Put(gkey, ng.Encode())
	return pr, nil
}

// rebuildGraph assembles the next run's graph: freshly verified files
// from their worker records (authoritative include resolution), reused
// files from their previous nodes with stat fingerprints refreshed from
// this snapshot, dependency fingerprints from the planner's validated
// metas overlaid with freshly observed include hashes. plan.Reuse holds
// exactly the files served. Files that failed outright get no node and
// are re-planned next run.
func rebuildGraph(dir, configFP string, snap incremental.Snapshot, old *incremental.Graph, plan *incremental.Plan, records map[string]depRecord) *incremental.Graph {
	g := incremental.New(dir, configFP)
	for path, dm := range plan.Deps {
		meta := *dm
		g.Deps[path] = &meta
	}
	addDeps := func(includes map[string]string) (deps []string) {
		for path, hash := range includes {
			deps = append(deps, path)
			if dm := g.Deps[path]; dm == nil || dm.Hash != hash {
				// Freshly observed content hash; stat fingerprint from the
				// snapshot when the include is itself an entry file, else
				// from a stat probe. An unstattable include keeps a zero
				// fingerprint, which always re-hashes — never goes stale.
				nm := &incremental.DepMeta{Hash: hash}
				if size, mtime, ok := fsEnv.Stat(path); ok {
					if h, hok := fsEnv.Hash(path); !hok || h == hash {
						// Only trust the stat if the content still matches:
						// an include edited mid-run must not pin a fresh
						// stat onto a stale hash.
						nm.Size, nm.MTimeNS = size, mtime
					}
				}
				g.Deps[path] = nm
			}
		}
		sort.Strings(deps)
		return deps
	}
	for _, fm := range snap.Files {
		if rec, ok := records[fm.Path]; ok {
			node := &incremental.FileNode{
				Size:      fm.Size,
				MTimeNS:   fm.MTimeNS,
				Hash:      rec.SourceHash,
				ResultKey: rec.ResultKey,
				Deps:      addDeps(rec.Includes.Hashes),
				Misses:    rec.Includes.Misses,
			}
			g.Files[fm.Path] = node
			continue
		}
		if _, ok := plan.Reuse[fm.Path]; ok {
			// PlanDelta reuses only files old has a node for.
			prev := old.Files[fm.Path]
			node := *prev
			// The plan proved content unchanged (fast path or re-hash),
			// so refreshing the stat fingerprint is sound and keeps a
			// touched-but-identical file on the fast path next run.
			node.Size, node.MTimeNS = fm.Size, fm.MTimeNS
			g.Files[fm.Path] = &node
			for _, dep := range prev.Deps {
				if g.Deps[dep] == nil {
					if dm := old.Deps[dep]; dm != nil {
						meta := *dm
						g.Deps[dep] = &meta
					}
				}
			}
		}
	}
	return g
}
