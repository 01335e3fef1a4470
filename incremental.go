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
	fcfg, err := buildConfig(append([]Option{WithDir(dir)}, opts...))
	if err != nil {
		return "", err
	}
	return store.NamespacedKey(GraphNamespace, graphKey(dir, fcfg.configFingerprint())), nil
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
		// feature switches). The dispatch mode is deliberately ABSENT — it
		// is verdict-neutral (reports are byte-identical across modes,
		// profiles aside), and keying on it would make a shared-mode run
		// blind to the cache a per-assert run populated.
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
		return verifyDirFiles(ctx, dir, snap, walkFails, nil, opts)
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

	// Serve the reuse set by remembered key. The plan proved the entry
	// and its spliced includes unchanged, so the envelope's include
	// snapshot needs no revalidation; a missing blob (GC eviction) just
	// moves the file back into the verify set.
	served := make(map[string]*Report, len(plan.Reuse))
	envelopes := make(map[string]*storedEnvelope, len(plan.Reuse))
	for path, key := range plan.Reuse {
		if rep, env, ok := storeGetTrusted(tctx, cfg, path, key); ok {
			served[path] = rep
			envelopes[path] = env
		} else {
			plan.Verify = append(plan.Verify, path)
			plan.Invalidated++
		}
	}
	sort.Strings(plan.Verify)

	// Offer each dirty-but-known file its prior function fingerprints and
	// safe-assertion set: the worker compares a fresh lowering against
	// the fingerprints and, when the edit left at least one function
	// untouched, skips the SAT search for every assertion whose
	// constraint slice still hashes the same.
	hints := make(map[string]priorHint)
	if g != nil {
		for _, path := range plan.Verify {
			if node := g.Files[path]; node != nil && len(node.Funcs) > 0 && len(node.SafeAsserts) > 0 {
				hints[path] = priorHint{Funcs: node.Funcs, SafeAsserts: node.SafeAsserts}
			}
		}
	}

	// Collect each verified file's include resolution and store key from
	// the workers; reused files keep their carried-over graph nodes.
	var recMu sync.Mutex
	records := make(map[string]depRecord)
	recOpts := append([]Option{withDepRecorder(func(r depRecord) {
		recMu.Lock()
		records[r.Name] = r
		recMu.Unlock()
	}), withPriorHints(hints)}, opts...)

	pr, err := verifyDirFiles(ctx, dir, snap, walkFails, served, recOpts)
	if err != nil {
		return nil, err
	}

	inc := &telemetry.IncrementalProfile{
		Planned:     len(plan.Verify),
		Skipped:     len(served),
		Invalidated: plan.Invalidated,
		Full:        plan.Full,
	}
	if pr.Profile != nil {
		inc.ReusedAsserts = pr.Profile.ReusedAsserts
		pr.Profile.Incremental = inc
	}

	// Persist the rebuilt graph. Failures are swallowed like result-store
	// writes: a read-only disk degrades the next plan, not this verdict.
	ng := rebuildGraph(filepath.Clean(dir), configFP, snap, g, plan, served, envelopes, records)
	if payload, err := ng.Encode(); err == nil {
		_ = ns.Put(gkey, payload)
	}
	return pr, nil
}

// rebuildGraph assembles the next run's graph: freshly verified files
// from their worker records (authoritative include resolution), reused
// files from their previous nodes with stat fingerprints refreshed from
// this snapshot, dependency fingerprints from the planner's validated
// metas overlaid with freshly observed include hashes. Files that
// failed outright get no node and are re-planned next run.
func rebuildGraph(dir, configFP string, snap incremental.Snapshot, old *incremental.Graph, plan *incremental.Plan, served map[string]*Report, envelopes map[string]*storedEnvelope, records map[string]depRecord) *incremental.Graph {
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
				Size:        fm.Size,
				MTimeNS:     fm.MTimeNS,
				Hash:        rec.SourceHash,
				ResultKey:   rec.ResultKey,
				Deps:        addDeps(rec.Includes),
				Misses:      append([]string(nil), rec.Misses...),
				Funcs:       rec.Funcs,
				SafeAsserts: append([]string(nil), rec.SafeAsserts...),
			}
			g.Files[fm.Path] = node
			continue
		}
		if _, ok := served[fm.Path]; ok && old != nil {
			if prev := old.Files[fm.Path]; prev != nil {
				node := *prev
				// The plan proved content unchanged (fast path or re-hash),
				// so refreshing the stat fingerprint is sound and keeps a
				// touched-but-identical file on the fast path next run.
				node.Size, node.MTimeNS = fm.Size, fm.MTimeNS
				node.Deps = append([]string(nil), prev.Deps...)
				node.Misses = append([]string(nil), prev.Misses...)
				node.SafeAsserts = append([]string(nil), prev.SafeAsserts...)
				g.Files[fm.Path] = &node
				for _, dep := range prev.Deps {
					if g.Deps[dep] == nil {
						if dm := old.Deps[dep]; dm != nil {
							meta := *dm
							g.Deps[dep] = &meta
						}
					}
				}
			} else if env := envelopes[fm.Path]; env != nil {
				// Served but the old graph lost the node (should not
				// happen; defensive): rebuild it from the envelope.
				node := &incremental.FileNode{
					Size: fm.Size, MTimeNS: fm.MTimeNS,
					ResultKey:   plan.Reuse[fm.Path],
					Deps:        addDeps(env.IncludeHashes),
					Misses:      append([]string(nil), env.IncludeMisses...),
					Funcs:       env.Funcs,
					SafeAsserts: append([]string(nil), env.SafeAsserts...),
				}
				if h, ok := fsEnv.Hash(fm.Path); ok {
					node.Hash = h
				}
				g.Files[fm.Path] = node
			}
		}
	}
	return g
}
