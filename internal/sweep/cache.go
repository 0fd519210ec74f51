package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Cache is a durable job-result store: one JSON line per result, keyed
// by the job's content hash. Opening a cache loads every valid line into
// memory (last entry wins); corrupt or stale lines — truncated writes,
// hand edits, results from an older hash version — are counted and
// skipped, never fatal. Puts append immediately, so a crashed sweep
// loses at most the line being written.
//
// A Cache is safe for concurrent use by the engine's workers.
type Cache struct {
	path string

	mu      sync.Mutex
	f       *os.File
	entries map[string]Result
	hits    int
	misses  int
	corrupt int
}

// CacheStats reports a cache's accounting: lookup hits and misses since
// open, resident entries, and corrupt lines dropped while loading.
type CacheStats struct {
	Hits, Misses, Entries, Corrupt int
}

// OpenCache opens (creating if needed) the JSON-lines cache at path and
// loads its entries. The parent directory is created as well.
func OpenCache(path string) (*Cache, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("sweep: cache dir: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	c := &Cache{path: path, f: f, entries: make(map[string]Result)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r Result
		// A loadable entry must parse and its recorded hash must match
		// the hash recomputed from the job it claims to describe —
		// anything else (corruption, a stale hashVersion, a tampered
		// line) is dropped.
		if err := json.Unmarshal(line, &r); err != nil || r.Hash == "" || r.Job.Hash() != r.Hash {
			c.corrupt++
			continue
		}
		c.entries[r.Hash] = r
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: read cache %s: %w", path, err)
	}
	if err := endLastLine(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: repair cache %s: %w", path, err)
	}
	return c, nil
}

// endLastLine terminates a final line a crash cut short (no trailing
// newline), so the next Put starts a line of its own instead of being
// glued onto the fragment and dropped as corrupt on every later open.
func endLastLine(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil || last[0] == '\n' {
		return err
	}
	_, err = f.Write([]byte{'\n'})
	return err
}

// Get returns the cached result for a job hash and records the lookup as
// a hit or miss.
func (c *Cache) Get(hash string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.entries[hash]
	if ok {
		c.hits++
		r.Cached = true
	} else {
		c.misses++
	}
	return r, ok
}

// Put stores a freshly computed result, appending it to the cache file.
// Skipped results are not durable facts about a job and are rejected.
func (c *Cache) Put(r Result) error {
	if r.Skipped {
		return fmt.Errorf("sweep: refusing to cache a skipped result")
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("sweep: encode cache line: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return fmt.Errorf("sweep: cache %s is closed", c.path)
	}
	if _, err := c.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: append cache %s: %w", c.path, err)
	}
	c.entries[r.Hash] = r
	return nil
}

// Stats returns the cache's current accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries), Corrupt: c.corrupt}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Close releases the underlying file. The in-memory view stays readable.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
