// Package incremental implements the include-dependency graph and delta
// planner behind WithIncremental: re-verification proportional to the
// edit, not the project.
//
// The paper's pipeline resolves file inclusions before filtering ("Parse
// PHP, resolve file inclusions", §3.3.1), so a project's verdicts form a
// dependency DAG over source files: an entry file's verdict can change
// only when the entry itself changes, when one of the includes spliced
// into its model changes, or when a previously missing include candidate
// appears. The graph persists exactly that resolution — per entry file
// the transitive include set with content fingerprints, plus the
// probed-but-missing candidates — together with each file's result-store
// key, so an unchanged file is served back with a single store read:
// no stat beyond the snapshot walk, no hashing, no include revalidation.
//
// Soundness framing: the planner only ever *shrinks work*, never the
// other way around. Anything it cannot prove unchanged (absent graph,
// schema or config mismatch, unreadable file, unknown dependency
// provenance) is planned for full re-verification. A wrong plan can cost
// time; it cannot produce a wrong verdict.
package incremental

import "sort"

// Schema versions the serialized graph layout (codec.go). A persisted
// graph with a different schema, including the JSON graphs of schema 1,
// reads as absent (full run), never as partial data.
const Schema = 2

// DepMeta fingerprints one include file as it was when some entry's
// model spliced it in: the stat fast path (size + mtime) plus the
// content hash that decides when the fast path misleads.
type DepMeta struct {
	Size    int64
	MTimeNS int64
	Hash    string
}

// FileNode is one entry file's record: its own fingerprint, the store
// key its report was persisted under, and its resolved include edges.
type FileNode struct {
	Size    int64
	MTimeNS int64
	Hash    string
	// ResultKey is the result-store address of this file's persisted
	// report. Empty when the last run produced no persistable report
	// (incomplete verdicts are never stored) — such files are always
	// re-planned.
	ResultKey string
	// Deps lists the transitive include files spliced into this file's
	// model (paths as the include resolver produced them); their
	// fingerprints live in Graph.Deps so shared includes are stored once.
	Deps []string
	// Misses lists include candidates probed but absent during the build;
	// one appearing invalidates the file (the model would change).
	Misses []string
}

// Graph is the persistent include-dependency graph of one project
// directory under one verification configuration.
type Graph struct {
	// Dir is the project root the graph describes, Config the
	// fingerprint of every verdict-shaping option; either changing makes
	// the graph unusable (full run).
	Dir    string
	Config string
	// Files maps entry-file path → node; Deps maps include path →
	// fingerprint, shared across all dependents.
	Files map[string]*FileNode
	Deps  map[string]*DepMeta
}

// New returns an empty graph for the given root and config fingerprint.
func New(dir, config string) *Graph {
	return &Graph{
		Dir:    dir,
		Config: config,
		Files:  make(map[string]*FileNode),
		Deps:   make(map[string]*DepMeta),
	}
}

// FileMeta is one file's stat snapshot: what a directory walk learns
// without opening the file.
type FileMeta struct {
	Path    string
	Size    int64
	MTimeNS int64
}

// Snapshot is the stat view of a project directory: every entry file's
// path, size, and mtime, sorted by path.
type Snapshot struct {
	Files []FileMeta
}

// Plan is the delta planner's partition of a snapshot.
type Plan struct {
	// Verify lists entry files to (re-)verify, sorted.
	Verify []string
	// Reuse maps unchanged entry files to their remembered result-store
	// keys; the caller serves them with a trusted store read.
	Reuse map[string]string
	// Full is set when no usable graph existed and everything is in
	// Verify.
	Full bool
	// Invalidated counts previously known files in Verify — the actual
	// delta, excluding files the graph had never seen.
	Invalidated int
	// Deps carries the up-to-date fingerprint of every dependency the
	// planner checked and found unchanged (stat refreshed, hash either
	// fast-path-trusted or re-confirmed). The caller folds these into the
	// next graph so a touched-but-identical include is re-hashed at most
	// once per run, not once per dependent.
	Deps map[string]*DepMeta
}

// Env is the planner's view of the filesystem, injectable for tests.
// Hash returns the hex SHA-256 of a file's content (ok=false when
// unreadable); Stat returns a file's current stat fingerprint (ok=false
// when absent).
type Env struct {
	Hash func(path string) (string, bool)
	Stat func(path string) (size, mtimeNS int64, ok bool)
}

// PlanDelta partitions the snapshot into files to verify and files to
// serve from the store, given the previous run's graph (nil = full run).
//
// Fast path first: a file whose size and mtime match its recorded
// fingerprint is unchanged; on mismatch the content is hashed and
// compared, so a touch without an edit does not invalidate anything.
// A file is planned for verification when it is new to the graph, has
// no remembered result key, changed itself, depends on a changed or
// unknown include, or one of its missing include candidates appeared —
// the reverse-dependency closure of the edit, since each node's Deps is
// already the transitive include set of its model.
func PlanDelta(g *Graph, snap Snapshot, env Env) *Plan {
	p := &Plan{Reuse: make(map[string]string), Deps: make(map[string]*DepMeta)}
	if g == nil {
		p.Full = true
		for _, fm := range snap.Files {
			p.Verify = append(p.Verify, fm.Path)
		}
		return p
	}

	inSnap := make(map[string]FileMeta, len(snap.Files))
	for _, fm := range snap.Files {
		inSnap[fm.Path] = fm
	}

	// metaOf returns the recorded fingerprint for a path, preferring the
	// entry node (refreshed every run) over the shared dep table.
	metaOf := func(path string) (size, mtimeNS int64, hash string, ok bool) {
		if node := g.Files[path]; node != nil && node.Hash != "" {
			return node.Size, node.MTimeNS, node.Hash, true
		}
		if dm := g.Deps[path]; dm != nil && dm.Hash != "" {
			return dm.Size, dm.MTimeNS, dm.Hash, true
		}
		return 0, 0, "", false
	}

	// depChanged memoizes per-dependency change detection so a shared
	// include is checked once, not once per dependent.
	depState := make(map[string]bool)
	depChanged := func(path string) bool {
		if changed, ok := depState[path]; ok {
			return changed
		}
		changed := func() bool {
			recSize, recMTime, recHash, ok := metaOf(path)
			if !ok {
				return true // unknown provenance: assume changed
			}
			var size, mtime int64
			if fm, inWalk := inSnap[path]; inWalk {
				size, mtime = fm.Size, fm.MTimeNS
			} else if s, m, statOK := env.Stat(path); statOK {
				size, mtime = s, m
			} else {
				return true // dependency vanished
			}
			if size == recSize && mtime == recMTime {
				p.Deps[path] = &DepMeta{Size: size, MTimeNS: mtime, Hash: recHash}
				return false
			}
			h, hashOK := env.Hash(path)
			if !hashOK || h != recHash {
				return true
			}
			// Touched but identical: remember the fresh stat so the next
			// run takes the fast path again.
			p.Deps[path] = &DepMeta{Size: size, MTimeNS: mtime, Hash: recHash}
			return false
		}()
		depState[path] = changed
		return changed
	}

	for _, fm := range snap.Files {
		node := g.Files[fm.Path]
		if node == nil {
			p.Verify = append(p.Verify, fm.Path) // new file, not a delta
			continue
		}
		invalidate := func() {
			p.Verify = append(p.Verify, fm.Path)
			p.Invalidated++
		}
		if node.ResultKey == "" {
			invalidate()
			continue
		}
		if depChanged(fm.Path) { // the entry file itself, via the same memo
			invalidate()
			continue
		}
		dirty := false
		for _, dep := range node.Deps {
			if depChanged(dep) {
				dirty = true
				break
			}
		}
		if !dirty {
			for _, miss := range node.Misses {
				if _, _, ok := env.Stat(miss); ok {
					dirty = true // a missing include appeared
					break
				}
			}
		}
		if dirty {
			invalidate()
			continue
		}
		p.Reuse[fm.Path] = node.ResultKey
	}
	sort.Strings(p.Verify)
	return p
}
