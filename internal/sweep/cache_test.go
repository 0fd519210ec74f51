package sweep

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCacheHitMissAccounting runs a batch cold then warm and checks the
// hit/miss ledgers on both the cache and the engine.
func TestCacheHitMissAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	jobs := []Job{tinyJob("VAL", 0.2), tinyJob("VAL", 0.5), tinyJob("CLOS AD", 0.5)}

	cold, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Workers: 2, Cache: cold}
	first, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Hits != 0 || st.Misses != len(jobs) || st.Entries != len(jobs) {
		t.Errorf("cold cache stats: %+v", st)
	}
	if st := eng.Stats(); st.Simulated != len(jobs) || st.CacheHits != 0 {
		t.Errorf("cold engine stats: %+v", st)
	}
	cold.Close()

	// A fresh process re-opening the same file must serve every job from
	// cache and simulate nothing.
	warm, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	eng2 := &Engine{Workers: 2, Cache: warm}
	second, err := eng2.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Hits != len(jobs) || st.Misses != 0 {
		t.Errorf("warm cache stats: %+v", st)
	}
	if st := eng2.Stats(); st.Simulated != 0 || st.CacheHits != len(jobs) {
		t.Errorf("warm engine stats: %+v", st)
	}
	for i := range jobs {
		if !second[i].Cached {
			t.Errorf("job %d not marked cached", i)
		}
		a, b := first[i], second[i]
		a.Cached, b.Cached = false, false
		if !reflect.DeepEqual(a, b) {
			t.Errorf("job %d: cached result differs from computed:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestCacheInvalidationOnFieldChange: a changed seed or scale is a
// different job, so it must miss a cache warmed with the original.
func TestCacheInvalidationOnFieldChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	base := tinyJob("VAL", 0.3)
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	eng := &Engine{Workers: 1, Cache: c}
	if _, err := eng.Run(context.Background(), []Job{base}); err != nil {
		t.Fatal(err)
	}

	reseeded := base
	reseeded.Seed = 99
	rescaled := base
	rescaled.K = 8
	rewindowed := base
	rewindowed.Measure = 200
	if _, err := eng.Run(context.Background(), []Job{base, reseeded, rescaled, rewindowed}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	// Across both runs: base simulates once then hits once; each of the
	// three mutated jobs is a distinct hash and must simulate.
	if st.CacheHits != 1 || st.Simulated != 4 {
		t.Errorf("expected 1 hit and 4 simulations across runs, got %+v", st)
	}
}

// TestCacheCorruptLineRecovery interleaves garbage, truncated JSON,
// hash-mismatched entries and valid lines; opening must keep the valid
// entries, count the rest as corrupt, and keep the file appendable.
func TestCacheCorruptLineRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	goodJob := tinyJob("VAL", 0.2)
	good, err := goodJob.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	goodLine, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	tampered := good
	tampered.Hash = strings.Repeat("0", 64) // claims a hash its job does not have
	tamperedLine, _ := json.Marshal(tampered)
	content := strings.Join([]string{
		"not json at all",
		string(goodLine),
		string(goodLine[:len(goodLine)/2]), // torn write
		string(tamperedLine),
		`{"hash":"","job":{}}`, // parses but has no hash
		"",
	}, "\n")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.Stats(); st.Entries != 1 || st.Corrupt != 4 {
		t.Fatalf("expected 1 entry + 4 corrupt lines, got %+v", st)
	}
	if _, ok := c.Get(goodJob.Hash()); !ok {
		t.Error("valid entry lost among corrupt lines")
	}

	// The surviving cache still serves and extends: the good job hits,
	// a new job simulates and persists.
	eng := &Engine{Workers: 1, Cache: c}
	if _, err := eng.Run(context.Background(), []Job{goodJob, tinyJob("VAL", 0.7)}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.CacheHits != 1 || st.Simulated != 1 {
		t.Errorf("post-recovery run stats: %+v", st)
	}
	reopened, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if st := reopened.Stats(); st.Entries != 2 {
		t.Errorf("expected 2 entries after append, got %+v", st)
	}

	// Torn tail: a crash cut the last line short, with no newline. The
	// next result must land on a line of its own, not glued onto the
	// fragment where every later open would drop it as corrupt.
	tail := filepath.Join(t.TempDir(), "tail.jsonl")
	if err := os.WriteFile(tail, append(append(goodLine, '\n'), goodLine[:len(goodLine)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := OpenCache(tail)
	if err != nil {
		t.Fatal(err)
	}
	if st := torn.Stats(); st.Entries != 1 || st.Corrupt != 1 {
		t.Fatalf("torn tail: expected 1 entry + 1 corrupt line, got %+v", st)
	}
	if _, err := (&Engine{Workers: 1, Cache: torn}).Run(context.Background(), []Job{tinyJob("VAL", 0.7)}); err != nil {
		t.Fatal(err)
	}
	torn.Close()
	torn, err = OpenCache(tail)
	if err != nil {
		t.Fatal(err)
	}
	defer torn.Close()
	if st := torn.Stats(); st.Entries != 2 || st.Corrupt != 1 {
		t.Errorf("torn tail: expected 2 entries + the 1 old fragment after append, got %+v", st)
	}
}

// TestCacheRejectsSkippedResults: fast-path skips are not durable facts.
func TestCacheRejectsSkippedResults(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(Result{Hash: "x", Skipped: true}); err == nil {
		t.Error("skipped result cached")
	}
}
