package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"webssari/internal/telemetry"
)

// CompileCache memoizes the front end: repeated compilation of unchanged
// source under an equivalent trust environment returns the same immutable
// Program without re-running parse/filter/rename/constraint generation.
//
// Entries are keyed on content, not identity: a SHA-256 over the entry
// name, the source bytes, every flow option that can change the produced
// model (Dir, LoopUnroll, MaxInlineDepth, MaxCmds, whether a loader is
// present), and the prelude's Fingerprint. The key deliberately excludes
// solver-side options — a Program is solver-free, so the same artifact
// serves every Solve configuration.
//
// Because includes are spliced in at compile time, a hit is revalidated
// against the Program's include snapshot (ai.Program.IncludeHashes /
// IncludeMisses) through the current loader before being served: an
// edited include, or a previously missing candidate that has appeared,
// forces a recompile instead of a stale answer.
//
// Concurrent compiles of the same key are coalesced (single-flight): the
// first caller compiles, the rest wait and count as hits, so hit/miss
// totals for a fixed workload are the same at any parallelism.
type CompileCache struct {
	mu        sync.Mutex
	entries   map[string]*cacheEntry
	lru       *list.List // front = most recently used; values are *cacheEntry
	max       int
	hits      int64
	misses    int64
	evictions int64
	stale     int64
}

type cacheEntry struct {
	key  string
	elem *list.Element
	// ready is closed when prog/errs are populated; waiters block on it
	// outside the cache lock.
	ready chan struct{}
	prog  *Program
	errs  []error
}

// DefaultCompileCacheSize bounds retained Programs; far above any project
// in the corpus, it exists only to keep a long-lived process from growing
// without bound.
const DefaultCompileCacheSize = 1024

// NewCompileCache returns a cache retaining at most max Programs
// (max <= 0 means DefaultCompileCacheSize), evicting least-recently-used.
func NewCompileCache(max int) *CompileCache {
	if max <= 0 {
		max = DefaultCompileCacheSize
	}
	return &CompileCache{
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
		max:     max,
	}
}

// Compile is the caching equivalent of the package-level Compile. The
// last result reports whether the Program came from cache (coalesced
// waiters count as hits). The CompileStats are the stage timings of the
// compile this call ran — also of a failed one — and zero on a hit.
// Failed compiles (nil Program) are returned to every coalesced waiter
// but not retained.
func (c *CompileCache) Compile(name string, src []byte, opts Options) (*Program, []error, CompileStats, bool) {
	key := cacheKey(name, src, opts)

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		if e.prog != nil && !includesCurrent(e.prog, opts) {
			// Stale include snapshot: drop the entry and recompile. The
			// recompile goes through the cache again so concurrent callers
			// still coalesce on the fresh entry.
			c.mu.Lock()
			c.stale++
			c.mu.Unlock()
			c.remove(key, e)
			return c.Compile(name, src, opts)
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return e.prog, e.errs, CompileStats{}, true
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.misses++
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		victim := oldest.Value.(*cacheEntry)
		c.lru.Remove(oldest)
		delete(c.entries, victim.key)
		c.evictions++
	}
	c.mu.Unlock()

	var stats CompileStats
	e.prog, stats, e.errs = compile(name, src, opts)
	close(e.ready)
	if e.prog == nil {
		c.remove(key, e)
	}
	return e.prog, e.errs, stats, false
}

// remove drops the entry if it is still the one stored under key.
func (c *CompileCache) remove(key string, e *cacheEntry) {
	c.mu.Lock()
	if cur, ok := c.entries[key]; ok && cur == e {
		c.lru.Remove(e.elem)
		delete(c.entries, key)
	}
	c.mu.Unlock()
}

// Stats returns the cumulative hit and miss counts.
func (c *CompileCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// StatsDetail returns the full cache profile: hits, misses, LRU
// evictions, stale-include recompiles, and the current entry count.
func (c *CompileCache) StatsDetail() telemetry.CacheProfile {
	c.mu.Lock()
	defer c.mu.Unlock()
	return telemetry.CacheProfile{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Stale:     c.stale,
		Entries:   c.lru.Len(),
	}
}

// Len returns the number of retained Programs.
func (c *CompileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Reset empties the cache and zeroes the counters.
func (c *CompileCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*cacheEntry)
	c.lru.Init()
	c.hits, c.misses = 0, 0
	c.evictions, c.stale = 0, 0
}

// includesCurrent revalidates a cached Program's include snapshot against
// the current loader: every spliced include must still hash the same, and
// every probed-but-missing candidate must still be missing.
func includesCurrent(p *Program, opts Options) bool {
	if len(p.AI.IncludeHashes) == 0 && len(p.AI.IncludeMisses) == 0 {
		return true
	}
	load := opts.Flow.Loader
	if load == nil {
		// No loader: includes cannot resolve at all now, so any snapshot
		// that resolved or probed files is out of date.
		return false
	}
	for path, want := range p.AI.IncludeHashes {
		data, err := load(path)
		if err != nil {
			return false
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != want {
			return false
		}
	}
	for cand := range p.AI.IncludeMisses {
		if _, err := load(cand); err == nil {
			return false
		}
	}
	return true
}

// cacheKey derives the content key for one compile request.
func cacheKey(name string, src []byte, opts Options) string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeStr("webssari-compile-v1")
	writeStr(name)
	writeStr(string(src))
	writeStr(opts.Flow.Dir)
	writeStr(fmt.Sprintf("unroll=%d inline=%d maxcmds=%d loader=%t",
		opts.Flow.LoopUnroll, opts.Flow.MaxInlineDepth, opts.Flow.MaxCmds,
		opts.Flow.Loader != nil))
	if opts.Flow.Prelude != nil {
		writeStr(opts.Flow.Prelude.Fingerprint())
	}
	// The policy fingerprint covers context rules, sanitizer variants,
	// sink classes, and guards — verdict-shaping configuration the
	// prelude fingerprint alone does not see. Folding it in keeps
	// compiles under different policies from ever aliasing (two policies
	// may share a prelude but disagree on context bounds).
	if opts.Flow.Policy != nil {
		writeStr(opts.Flow.Policy.Fingerprint())
	}
	return hex.EncodeToString(h.Sum(nil))
}
