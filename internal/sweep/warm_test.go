package sweep

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestWarmKeyScope(t *testing.T) {
	base := tinyJob("UGAL-S", 0.4)
	// Measurement-only parameters do not enter the warm key: a stored
	// warm-up is reusable under any measurement length.
	same := map[string]func(*Job){
		"Measure":   func(j *Job) { j.Measure = 777 },
		"MaxCycles": func(j *Job) { j.MaxCycles = 9999 },
		"BatchSize": func(j *Job) { j.BatchSize = 5 },
		"Workers":   func(j *Job) { j.Workers = 4 },
	}
	for name, mut := range same {
		j := base
		mut(&j)
		if j.WarmKey() != base.WarmKey() {
			t.Errorf("%s changed the warm key; warm state does not depend on it", name)
		}
	}
	// Everything that shapes the warm-up trajectory must change the key.
	diff := map[string]func(*Job){
		"Load":   func(j *Job) { j.Load = 0.5 },
		"Warmup": func(j *Job) { j.Warmup = 150 },
		"Seed":   func(j *Job) { j.Seed = 8 },
		"Alg":    func(j *Job) { j.Alg = "VAL" },
		"K":      func(j *Job) { j.K = 2 },
	}
	for name, mut := range diff {
		j := base
		mut(&j)
		if j.WarmKey() == base.WarmKey() {
			t.Errorf("%s did not change the warm key; distinct warm-ups would collide", name)
		}
	}
}

// TestWarmSweepBitIdentical is the acceptance property: a load series
// resumed from warm snapshots reproduces the cold-start Results exactly
// — even at a different Measure length — while skipping every warm-up
// cycle.
func TestWarmSweepBitIdentical(t *testing.T) {
	if autoCheck {
		t.Skip("-tags=check: sanitized engines ignore the warm store")
	}
	dir := t.TempDir()
	jobs := func(measure int) []Job {
		var js []Job
		for _, load := range []float64{0.2, 0.4, 0.6} {
			j := tinyJob("UGAL-S", load)
			j.Measure = measure
			js = append(js, j)
		}
		return js
	}
	strip := func(rs []Result) []Result {
		out := append([]Result(nil), rs...)
		for i := range out {
			out[i].Cached, out[i].WarmStart, out[i].WarmSaved = false, false, false
			out[i].ElapsedSeconds = 0
		}
		return out
	}

	// Cold reference, no warm store.
	cold := &Engine{Workers: 2}
	coldRes, err := cold.Run(context.Background(), jobs(300))
	if err != nil {
		t.Fatal(err)
	}

	// First warm-enabled sweep (different Measure): all misses, deposits
	// one snapshot per load point.
	ws, err := OpenWarmStore(filepath.Join(dir, "warm"))
	if err != nil {
		t.Fatal(err)
	}
	seed := &Engine{Workers: 2, Warm: ws}
	if _, err := seed.Run(context.Background(), jobs(100)); err != nil {
		t.Fatal(err)
	}
	if st := seed.Stats(); st.WarmPuts != 3 || st.WarmHits != 0 {
		t.Fatalf("seeding sweep: want 3 warm puts / 0 hits, got %d / %d", st.WarmPuts, st.WarmHits)
	}

	// Second warm-enabled sweep at the cold run's Measure: every job
	// resumes from the stored warm-up (keys ignore Measure) and must
	// reproduce the cold results bit for bit.
	warm := &Engine{Workers: 2, Warm: ws}
	warmRes, err := warm.Run(context.Background(), jobs(300))
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.WarmHits != 3 {
		t.Fatalf("warm sweep: want 3 warm hits, got %d", st.WarmHits)
	}
	if want := int64(3 * 100); st.WarmCyclesSaved != want {
		t.Fatalf("warm sweep: want %d warm-up cycles saved, got %d", want, st.WarmCyclesSaved)
	}
	for i := range warmRes {
		if !warmRes[i].WarmStart {
			t.Fatalf("job %d did not warm-start", i)
		}
	}
	if !reflect.DeepEqual(strip(coldRes), strip(warmRes)) {
		t.Fatalf("warm-started results diverge from cold:\n  cold: %+v\n  warm: %+v", coldRes, warmRes)
	}
}

// TestWarmCorruptSnapshotFallsBack ensures a damaged stored snapshot is
// discarded and replaced by a cold run with the correct result.
func TestWarmCorruptSnapshotFallsBack(t *testing.T) {
	ws, err := OpenWarmStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := tinyJob("CLOS AD", 0.3).Normalize()
	coldRes, err := j.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Put(j.WarmKey(), []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	res, err := j.runWarm(nil, ws)
	if err != nil {
		t.Fatalf("corrupt warm snapshot should fall back, got: %v", err)
	}
	if res.WarmStart || !res.WarmSaved {
		t.Fatalf("want cold fallback that re-deposits, got WarmStart=%v WarmSaved=%v", res.WarmStart, res.WarmSaved)
	}
	if !reflect.DeepEqual(res.Point, coldRes.Point) {
		t.Fatalf("fallback result diverges from cold: %+v vs %+v", res.Point, coldRes.Point)
	}
	// The replacement snapshot must now be valid and hit.
	res2, err := j.runWarm(nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.WarmStart {
		t.Fatal("replacement snapshot did not warm-start")
	}
	if !reflect.DeepEqual(res2.Point, coldRes.Point) {
		t.Fatalf("warm-started result diverges from cold: %+v vs %+v", res2.Point, coldRes.Point)
	}
}

// TestWarmStoreBesideCache pins the on-disk convention: snapshots live
// in a sibling directory of the JSON-lines cache, one file per key.
func TestWarmStoreBesideCache(t *testing.T) {
	if autoCheck {
		t.Skip("-tags=check: sanitized engines ignore the warm store")
	}
	dir := t.TempDir()
	cachePath := filepath.Join(dir, "results.jsonl")
	c, err := OpenCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ws, err := OpenWarmStore(cachePath + ".warm")
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 1, Cache: c, Warm: ws}
	j := tinyJob("VAL", 0.25)
	if _, err := e.Run(context.Background(), []Job{j}); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(cachePath+".warm", j.WarmKey()+".snap")
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("expected warm snapshot beside the cache at %s: %v", snap, err)
	}
	if st := ws.Stats(); st.Puts != 1 || st.Misses != 1 {
		t.Fatalf("want 1 put / 1 miss, got %+v", st)
	}
}
