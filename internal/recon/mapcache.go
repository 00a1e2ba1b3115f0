package recon

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"traceback/internal/module"
)

// MapResolver resolves a module checksum to its mapfile — the lookup
// every reconstruction step performs to tie trace records back to
// instrumentation output (paper §2.3). *MapSet is the eager,
// immutable implementation; *MapCache adds shared, lazy, counted
// resolution for the parallel pipeline.
type MapResolver interface {
	ForChecksum(sum string) (*module.MapFile, bool)
}

var (
	_ MapResolver = (*MapSet)(nil)
	_ MapResolver = (*MapCache)(nil)
)

// MapLoader fetches (typically: parses) the mapfile for a module
// checksum. It is called at most once per checksum by a MapCache.
type MapLoader func(checksum string) (*module.MapFile, error)

// MapCache is a concurrency-safe, checksum-keyed mapfile resolution
// cache shared across pipeline workers, mirroring the §3.4
// instrumentation cache (internal/core.Cache) on the decode side: N
// snaps from the same binary parse the mapfile once. Entries are
// immutable once loaded; concurrent requests for the same checksum
// coalesce onto a single loader call.
type MapCache struct {
	load MapLoader

	mu      sync.Mutex
	entries map[string]*mapEntry

	hits   atomic.Int64
	misses atomic.Int64
}

// mapEntry is a single-flight slot: the first requester closes ready
// after the loader returns; later requesters block on it.
type mapEntry struct {
	ready chan struct{}
	mf    *module.MapFile
	err   error
}

// NewMapCache creates a cache over the given loader.
func NewMapCache(load MapLoader) *MapCache {
	return &MapCache{load: load, entries: map[string]*mapEntry{}}
}

// ForChecksum resolves a checksum through the cache, loading on first
// sight. A loader error is cached (negative caching) and reported as
// a miss of the mapfile, matching MapSet semantics.
func (c *MapCache) ForChecksum(sum string) (*module.MapFile, bool) {
	c.mu.Lock()
	e, ok := c.entries[sum]
	if ok {
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.ready
		return e.mf, e.err == nil && e.mf != nil
	}
	e = &mapEntry{ready: make(chan struct{})}
	c.entries[sum] = e
	c.mu.Unlock()

	c.misses.Add(1)
	e.mf, e.err = c.load(sum)
	close(e.ready)
	return e.mf, e.err == nil && e.mf != nil
}

// Hits reports how many lookups were served from the cache.
func (c *MapCache) Hits() int64 { return c.hits.Load() }

// Misses reports how many lookups invoked the loader.
func (c *MapCache) Misses() int64 { return c.misses.Load() }

// NewMapDir returns a MapCache over a directory of *.map.json
// mapfiles, and the number of mapfiles in it. Nothing is parsed up
// front: a lookup parses the files not yet read, in sorted order, until
// one with its checksum appears, so each file is parsed at most once
// and the first of two files with one checksum wins.
func NewMapDir(dir string) (*MapCache, int, error) {
	pending, err := filepath.Glob(filepath.Join(dir, "*.map.json"))
	if err != nil {
		return nil, 0, err
	}
	sort.Strings(pending)
	n := len(pending)
	var mu sync.Mutex // guards pending and parsed
	parsed := map[string]*module.MapFile{}
	return NewMapCache(func(sum string) (*module.MapFile, error) {
		mu.Lock()
		defer mu.Unlock()
		if mf, ok := parsed[sum]; ok {
			return mf, nil
		}
		for len(pending) > 0 {
			path := pending[0]
			pending = pending[1:]
			mf, err := module.ReadMapFile(path)
			if err != nil {
				return nil, err
			}
			if _, dup := parsed[mf.Checksum]; !dup {
				parsed[mf.Checksum] = mf
			}
			if mf.Checksum == sum {
				return mf, nil
			}
		}
		return nil, fmt.Errorf("no mapfile with checksum %s", sum)
	}), n, nil
}

// SourceCache memoizes source-file line splits for rendering: the
// -src lookup of tbrecon and `tbstore show`. It is safe for
// concurrent use.
type SourceCache struct {
	mu    sync.Mutex
	dir   string
	lines map[string][]string
}

// NewSourceCache looks source files up in dir by base name; a file
// that cannot be read has no lines.
func NewSourceCache(dir string) *SourceCache {
	return &SourceCache{dir: dir, lines: map[string][]string{}}
}

// Lines returns the (cached) lines of file.
func (c *SourceCache) Lines(file string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	lines, ok := c.lines[file]
	if !ok {
		if b, err := os.ReadFile(filepath.Join(c.dir, filepath.Base(file))); err == nil {
			lines = strings.Split(string(b), "\n")
		}
		c.lines[file] = lines
	}
	return lines
}
