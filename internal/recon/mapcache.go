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

// Len reports the number of cached checksums (including negative
// entries).
func (c *MapCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// DirLoader lazily resolves checksums against a directory of
// *.map.json mapfiles: files are parsed one at a time, on demand,
// until the requested checksum is found, and each file is parsed at
// most once. Safe for concurrent use.
type DirLoader struct {
	mu sync.Mutex
	// pending lists files not yet parsed, in sorted order for
	// deterministic resolution when checksums collide.
	pending    []string
	byChecksum map[string]*module.MapFile
}

// NewDirLoader indexes dir without parsing anything yet.
func NewDirLoader(dir string) (*DirLoader, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.map.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return &DirLoader{pending: paths, byChecksum: map[string]*module.MapFile{}}, nil
}

// NumFiles reports how many mapfiles the loader found in the
// directory.
func (l *DirLoader) NumFiles() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending) + len(l.byChecksum)
}

// Load parses mapfiles until one with the requested checksum appears.
func (l *DirLoader) Load(sum string) (*module.MapFile, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if mf, ok := l.byChecksum[sum]; ok {
		return mf, nil
	}
	for len(l.pending) > 0 {
		p := l.pending[0]
		l.pending = l.pending[1:]
		mf, err := module.ReadMapFile(p)
		if err != nil {
			return nil, err
		}
		if _, dup := l.byChecksum[mf.Checksum]; !dup {
			l.byChecksum[mf.Checksum] = mf
		}
		if mf.Checksum == sum {
			return mf, nil
		}
	}
	return nil, fmt.Errorf("no mapfile with checksum %s", sum)
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
