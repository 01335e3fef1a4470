package webssari

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"webssari/internal/incremental"
	"webssari/internal/store"
	"webssari/internal/telemetry"
)

// FileFailure records one file whose analysis could not produce a report
// at all. Files that produced a degraded report (deadline, resource
// ceiling) are not failures — they appear in Files with
// VerdictIncomplete.
type FileFailure struct {
	// File is the entry file that failed.
	File string `json:"file"`
	// Stage names the pipeline stage that failed ("read", "walk",
	// "deadline", or an EngineError stage).
	Stage string `json:"stage"`
	// Cause is the human-readable failure cause.
	Cause string `json:"cause"`
}

// ProjectReport aggregates the verification of a whole PHP project — the
// unit the paper's §5 evaluation counts by.
type ProjectReport struct {
	// Dir is the project root.
	Dir string `json:"dir"`
	// Files holds one report per PHP entry file, sorted by path.
	Files []*Report `json:"files"`
	// Symptoms is the project-wide TS error count (Figure 10 "TS").
	Symptoms int `json:"symptoms"`
	// Groups is the project-wide error-introduction count (Figure 10 "BMC").
	Groups int `json:"groups"`
	// VulnerableFiles counts files with at least one finding.
	VulnerableFiles int `json:"vulnerable_files"`
	// IncompleteFiles counts files whose report is degraded (no finding,
	// but no Safe proof either).
	IncompleteFiles int `json:"incomplete_files"`
	// Failures records files whose analysis failed outright; the
	// remaining files are still verified and reported.
	Failures []FileFailure `json:"failures,omitempty"`
	// CacheHits is always 0.
	//
	// Deprecated: there is no compile cache; every file verified is
	// compiled.
	CacheHits int `json:"cache_hits"`
	// CacheMisses counts the files this run compiled: the reports not
	// served from the result store.
	//
	// Deprecated: there is no compile cache; the count is the files
	// verified less StoreHits.
	CacheMisses int `json:"cache_misses"`
	// StoreHits and StoreMisses count files served from / written
	// through the persistent result store; both stay zero when no store
	// is attached (WithStore).
	StoreHits   int `json:"store_hits,omitempty"`
	StoreMisses int `json:"store_misses,omitempty"`
	// Profile aggregates the per-file run profiles (wall times, stages,
	// solver effort, degradations) and adds the project-level worker-pool
	// section. Like the per-file profiles, its wall-clock fields are the
	// one nondeterministic part of the report.
	Profile *RunProfile `json:"profile,omitempty"`
}

// Safe reports whether every file verified safe: no vulnerable files, no
// incomplete files, and no failures. A project with unverified parts is
// never Safe.
func (p *ProjectReport) Safe() bool {
	return p.VulnerableFiles == 0 && p.IncompleteFiles == 0 && len(p.Failures) == 0
}

// Verdict classifies the project outcome: VerdictUnsafe when any file has
// a finding; otherwise VerdictIncomplete when any file degraded or
// failed; otherwise VerdictSafe.
func (p *ProjectReport) Verdict() string {
	switch {
	case p.VulnerableFiles > 0:
		return VerdictUnsafe
	case p.IncompleteFiles > 0 || len(p.Failures) > 0:
		return VerdictIncomplete
	default:
		return VerdictSafe
	}
}

// VerifyDir verifies every .php file under dir as an entry file, resolving
// includes relative to each file (falling back to dir), and aggregates the
// per-project counts the paper's evaluation reports.
func VerifyDir(dir string, opts ...Option) (*ProjectReport, error) {
	return VerifyDirContext(context.Background(), dir, opts...)
}

// VerifyDirContext is VerifyDir under a context. Analysis faults are
// isolated per file: an unreadable or pathological file is recorded in
// ProjectReport.Failures and every other file is still verified. The
// only non-nil error is failing to walk the root directory itself. A
// WithDeadline budget applies to each file separately; ctx cancellation
// stops the dispatch and records the unstarted files as failures.
//
// Files are verified concurrently on a bounded worker pool
// (WithParallelism, default GOMAXPROCS); each file is compiled and its
// assertions are checked in order on the file's worker. The report is
// identical at any parallelism: every file's analysis is deterministic
// and results are assembled in sorted file order.
func VerifyDirContext(ctx context.Context, dir string, opts ...Option) (*ProjectReport, error) {
	snap, walkFails, err := snapshotDir(dir)
	if err != nil {
		return nil, fmt.Errorf("webssari: walking %s: %w", dir, err)
	}
	cfg, cerr := buildConfig(opts)
	var pr *ProjectReport
	if cerr == nil && cfg.incremental && cfg.resultStore != nil {
		pr, err = verifyDirIncremental(ctx, dir, snap, walkFails, opts, cfg)
	} else {
		pr, _, err = verifyDirFiles(ctx, dir, snap, walkFails, nil, opts)
	}
	if err != nil {
		return nil, err
	}
	if cerr == nil {
		cfg.metrics().Record(pr.Profile)
	}
	return pr, nil
}

// snapshotDir walks dir collecting every .php entry file's stat
// fingerprint (path, size, mtime), sorted by path — the input both to
// plain project verification (which uses only the paths) and to the
// incremental delta planner (which uses the fingerprints). Unwalkable
// subtrees are recorded as failures; only an unwalkable root is fatal.
func snapshotDir(dir string) (incremental.Snapshot, []FileFailure, error) {
	var snap incremental.Snapshot
	var fails []FileFailure
	rootSeen := false
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if !rootSeen {
				return err // the root itself is unwalkable: fatal
			}
			fails = append(fails, FileFailure{File: path, Stage: "walk", Cause: err.Error()})
			return nil
		}
		rootSeen = true
		if !d.IsDir() && strings.HasSuffix(strings.ToLower(d.Name()), ".php") {
			fm := incremental.FileMeta{Path: path}
			if info, ierr := d.Info(); ierr == nil {
				fm.Size = info.Size()
				fm.MTimeNS = info.ModTime().UnixNano()
			}
			snap.Files = append(snap.Files, fm)
		}
		return nil
	})
	if err != nil {
		return incremental.Snapshot{}, nil, err
	}
	sort.Slice(snap.Files, func(i, j int) bool { return snap.Files[i].Path < snap.Files[j].Path })
	return snap, fails, nil
}

// SnapshotFingerprint returns a fingerprint of dir's PHP entry files —
// paths, sizes, and mtimes, nothing content-based — that changes
// whenever a file under dir is added, removed, or modified. It is cheap
// (one stat walk, no reads) and is what the webssarid watch mode polls
// to decide when to re-verify; a fingerprint match does not prove
// content equality (mtime granularity), only a mismatch is meaningful.
func SnapshotFingerprint(dir string) (string, error) {
	snap, _, err := snapshotDir(dir)
	if err != nil {
		return "", err
	}
	parts := make([]string, 0, len(snap.Files))
	for _, fm := range snap.Files {
		parts = append(parts, fmt.Sprintf("%s|%d|%d", fm.Path, fm.Size, fm.MTimeNS))
	}
	return store.Key(append([]string{"webssari-snapshot-v1"}, parts...)...), nil
}

// verifyDirFiles verifies a snapshot's files on a fixed set of worker
// goroutines and assembles the project report. Files in reuse (the
// incremental reuse set: path → result-store key) are served from the
// store by the same workers, after the files to verify are handed out,
// so serving overlaps the verifying. A served file is delivered to the
// observer like a verified one but is not subject to the deadline. A
// reused file whose blob is missing or does not decode is verified on
// the same worker instead and returned in missed, in sorted order.
func verifyDirFiles(ctx context.Context, dir string, snap incremental.Snapshot, walkFails []FileFailure, reuse map[string]string, opts []Option) (pr *ProjectReport, missed []string, err error) {
	pr = &ProjectReport{Dir: dir}
	pr.Failures = append(pr.Failures, walkFails...)
	phpFiles := make([]string, len(snap.Files))
	for i, fm := range snap.Files {
		phpFiles[i] = fm.Path
	}

	parallelism := runtime.GOMAXPROCS(0)
	cfg, cerr := buildConfig(opts)
	var tel *telemetry.Telemetry
	hasStore := false
	var observer func(*Report)
	verify := VerifyContext
	if cerr == nil {
		if cfg.parallelism > 0 {
			parallelism = cfg.parallelism
		}
		tel = cfg.telemetry
		hasStore = cfg.resultStore != nil
		observer = cfg.observer
		if cfg.fileVerifier != nil {
			// Cluster dispatch seam: each file's verification is delegated
			// (typically to a remote worker) under the same per-file options
			// a local worker would receive; see WithFileVerifier's contract.
			verify = cfg.fileVerifier
		}
	}
	ctx = telemetry.WithTelemetry(ctx, tel)
	_, dsp := telemetry.StartSpan(ctx, "verify_dir", "dir", dir)
	defer dsp.End()

	// Workers write only their own index; pr is assembled afterwards in
	// sorted file order so the report is independent of scheduling.
	reps := make([]*Report, len(phpFiles))
	fails := make([]*FileFailure, len(phpFiles))
	misses := make([]bool, len(phpFiles))
	pending := make(chan int, len(phpFiles))
	var reused []int
	for i, file := range phpFiles {
		if _, ok := reuse[file]; ok {
			reused = append(reused, i)
			continue
		}
		pending <- i
	}
	for _, i := range reused {
		pending <- i
	}
	close(pending)

	// serve answers a reused file from the store. The plan proved the
	// entry and its spliced includes unchanged, so the envelope's
	// include snapshot needs no revalidation.
	serve := func(i int) bool {
		key, ok := reuse[phpFiles[i]]
		if !ok {
			return false
		}
		rep, ok := storeGetTrusted(ctx, cfg, phpFiles[i], key)
		if !ok {
			misses[i] = true
			return false
		}
		reps[i] = rep
		if observer != nil {
			observer(rep)
		}
		return true
	}
	verifyOne := func(i int) {
		file := phpFiles[i]
		src, err := os.ReadFile(file)
		if err != nil {
			fails[i] = &FileFailure{File: file, Stage: "read", Cause: err.Error()}
			return
		}
		fileOpts := append([]Option{WithDir(dir)}, opts...)
		rep, err := verify(ctx, src, file, fileOpts...)
		if err != nil {
			stage := "analysis"
			var ee *EngineError
			if errors.As(err, &ee) {
				stage = ee.Stage
			}
			fails[i] = &FileFailure{File: file, Stage: stage, Cause: err.Error()}
			return
		}
		reps[i] = rep
		if observer != nil {
			// Streaming hook: deliver the report the moment it exists,
			// in completion (not sorted) order, from the worker's own
			// goroutine — the observer must be concurrency-safe.
			observer(rep)
		}
	}
	workers := min(parallelism, len(pending))
	var started atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := range pending {
				if serve(i) {
					continue
				}
				if err := ctx.Err(); err != nil {
					// Deadline expired before this file was started: it
					// degrades to a recorded failure, and files already
					// running wind down through their own ctx checks.
					fails[i] = &FileFailure{File: phpFiles[i], Stage: "deadline", Cause: err.Error()}
					continue
				}
				started.Add(1)
				verifyOne(i)
			}
		}()
	}
	wg.Wait()

	prof := &RunProfile{}
	for i := range phpFiles {
		if misses[i] {
			missed = append(missed, phpFiles[i])
		}
		if fail := fails[i]; fail != nil {
			pr.Failures = append(pr.Failures, *fail)
			continue
		}
		rep := reps[i]
		if rep == nil {
			continue
		}
		pr.Files = append(pr.Files, rep)
		pr.Symptoms += rep.Symptoms
		pr.Groups += rep.Groups
		prof.Merge(rep.Profile)
		// A FileVerifier's report may carry no profile: count it a miss.
		if rep.Profile != nil && rep.Profile.StoreHit {
			pr.StoreHits++
		} else {
			if hasStore {
				pr.StoreMisses++
			}
			pr.CacheMisses++
		}
		if rep.Verdict == VerdictUnsafe {
			pr.VulnerableFiles++
		} else if rep.Incomplete {
			pr.IncompleteFiles++
		}
	}

	// The project-level section: the file fan-out. Every project profile
	// carries it, also over no files, which is what tells Record a
	// project profile from a file's.
	prof.Pool = &telemetry.PoolProfile{
		Capacity: parallelism,
		Acquires: started.Load(),
		MaxInUse: int64(workers),
	}
	pr.Profile = prof
	return pr, missed, nil
}
