package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// WarmStore is a directory of warmed-network snapshots, one file per
// WarmKey, conventionally kept beside the JSON-lines result cache
// (e.g. results.jsonl + results.jsonl.warm/). Puts are atomic
// (temp-file + rename), so concurrent sweeps sharing a store never
// observe a torn snapshot; restore-side validation (sim.Restore's
// digest and CRC checks) catches anything else, and the engine falls
// back to a cold run when it does.
type WarmStore struct {
	dir string

	mu     sync.Mutex
	hits   int
	misses int
	puts   int
}

// WarmStats reports a warm store's accounting since open.
type WarmStats struct {
	Hits, Misses, Puts int
}

// OpenWarmStore opens (creating if needed) the snapshot directory.
func OpenWarmStore(dir string) (*WarmStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: warm store dir: %w", err)
	}
	return &WarmStore{dir: dir}, nil
}

func (s *WarmStore) file(key string) string {
	return filepath.Join(s.dir, key+".snap")
}

// UseCache arms the engine with the JSON-lines result cache at path and
// the warm store beside it (path + ".warm"): each load point's warm-up
// is simulated once, then restored on every re-measurement of that
// point. An empty path arms neither. The returned func closes the cache.
func (e *Engine) UseCache(path string) (closeCache func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	cache, err := OpenCache(path)
	if err != nil {
		return nil, err
	}
	if e.Warm, err = OpenWarmStore(path + ".warm"); err != nil {
		cache.Close()
		return nil, err
	}
	e.Cache = cache
	return cache.Close, nil
}

// Get returns the stored snapshot bytes for a warm key.
func (s *WarmStore) Get(key string) ([]byte, bool) {
	data, err := os.ReadFile(s.file(key))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.misses++
		return nil, false
	}
	s.hits++
	return data, true
}

// Put stores a snapshot under a warm key, atomically.
func (s *WarmStore) Put(key string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: warm store temp: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: warm store write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: warm store close: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.file(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: warm store rename: %w", err)
	}
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	return nil
}

// Drop removes a stored snapshot (used when restore rejects it).
func (s *WarmStore) Drop(key string) {
	os.Remove(s.file(key))
}

// Stats returns the store's current accounting.
func (s *WarmStore) Stats() WarmStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return WarmStats{Hits: s.hits, Misses: s.misses, Puts: s.puts}
}
