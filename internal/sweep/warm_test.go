package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flatnet/internal/check"
	"flatnet/internal/sim"
	"flatnet/internal/snapshot"
)

// Every Job field is warm-shaping (it changes the warm key), measurement
// only (it changes the hash but not the warm key: a stored warm-up is
// reusable under any measurement) or unencoded (in unhashed: it changes
// neither).
var (
	warmShaping = []string{
		"Net", "K", "N", "Uplinks", "Leaves", "Middles", "Q", "A", "H", "P",
		"ChannelLatency", "Multiplicity", "Alg", "Pattern", "Conc", "Hot",
		"HotFraction", "BurstPeak", "BurstLen", "Load", "Warmup", "Seed",
		"BufPerPort", "PacketSize", "Speedup", "AgeArbiter", "RouterDelay",
	}
	measurementOnly = []string{"Mode", "Measure", "MaxCycles", "BatchSize", "Collective", "Chunk"}
)

func TestWarmKeyScope(t *testing.T) {
	base := tinyJob("UGAL-S", 0.4)
	mutated := func(field string, mutations map[string]func(*Job)) Job {
		t.Helper()
		mutate, ok := mutations[field]
		if !ok {
			t.Fatalf("%s has no mutation in the hash tests' tables", field)
		}
		j := base
		mutate(&j)
		return j
	}
	seen := map[string]string{base.WarmKey(): "base"}
	for _, field := range warmShaping {
		k := mutated(field, hashedFields).WarmKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s left the warm key equal to %s's; distinct warm-ups would collide", field, prev)
		}
		seen[k] = field
	}
	for _, field := range measurementOnly {
		if mutated(field, hashedFields).WarmKey() != base.WarmKey() {
			t.Errorf("%s changed the warm key; warm state does not depend on it", field)
		}
	}
	for field := range unhashed {
		if mutated(field, unhashed).WarmKey() != base.WarmKey() {
			t.Errorf("unencoded %s changed the warm key", field)
		}
	}
	if n, want := len(warmShaping)+len(measurementOnly)+len(unhashed), reflect.TypeOf(Job{}).NumField(); n != want {
		t.Errorf("warm-key classes cover %d fields, Job has %d — classify the new field", n, want)
	}
}

// TestKeysPinned holds Hash and WarmKey to the values every cache and
// warm store written so far is keyed by: a changed encoding would orphan
// them all.
func TestKeysPinned(t *testing.T) {
	for _, c := range []struct {
		job        Job
		hash, warm string
	}{
		{Job{Net: "flatfly", K: 16, N: 2, Alg: "CLOS AD", Pattern: "WC", Load: 0.3,
			Warmup: 400, Measure: 400, MaxCycles: 4000, Seed: 1, BufPerPort: 32},
			"47b35e44e60e8c2bbd4e877e8d03b7f009ece100261e0c534294f5c808da8a03",
			"7addd877cc9745f9e4580d11f77eaa91eff3b376fdc8a02c52c93b21b13cd1e2"},
		{Job{Net: "slimfly", Q: 5, Alg: "VAL", Pattern: "UR", Load: 0.2,
			Warmup: 200, Measure: 300, MaxCycles: 3000, Seed: 3},
			"74a3a36e110e947613b2667a9910ce00cbedc06bcb52b497273546a90eee410b",
			"a0bc0794a9bff5fb359167ef376be97444fbf36f8a217a37e71e01f42460917b"},
		{Job{Net: "dragonfly", H: 2, Alg: "UGAL", Pattern: "WC", Mode: ModeCollective,
			Collective: "alltoall", Chunk: 2, Load: 0.1, Warmup: 50, MaxCycles: 20000, Seed: 5},
			"de945b3355d41493290a7cb5eed08e15460773908729dcac6b655cf6011c8be4",
			"cb8df71e6b26fa7ae134864659ea8e83c97433f01218ba330254f306e9a4844b"},
		{Job{Net: "flatfly", K: 4, N: 2, Alg: "MIN AD", Pattern: "hotspot", Hot: []int{1, 5}, HotFraction: 0.25,
			BurstPeak: 0.8, Load: 0.3, Warmup: 100, Measure: 100, MaxCycles: 2000, Seed: 7},
			"e3eab41888bf6c698ea4b788dc4355382edc42c4e4ce7270a430ccc1dd0a1203",
			"947b257c8ec523a438c3984a200faedc38f5b7f4a011399bc43f408d3af0cc99"},
	} {
		if h, w := c.job.Hash(), c.job.WarmKey(); h != c.hash || w != c.warm {
			t.Errorf("%s %s: Hash %s WarmKey %s, pinned %s %s", c.job.Net, c.job.Alg, h, w, c.hash, c.warm)
		}
	}
}

// TestWarmSweepBitIdentical is the acceptance property: a load series
// resumed from warm snapshots reproduces the cold-start Results exactly
// — even at a different Measure length — while skipping every warm-up
// cycle.
func TestWarmSweepBitIdentical(t *testing.T) {
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

// TestCheckedRunsSanitized holds the checked path to attaching a
// sanitizer, on the engine's cold jobs and on warm-restored ones alike.
// A one-cycle watchdog fires on the first cycle that delivers no flit
// while flits are in flight, which this lightly loaded job has cold and
// restored, so each checked run must fail its invariant checks.
func TestCheckedRunsSanitized(t *testing.T) {
	defer func(c check.Config) { sanitizer = c }(sanitizer)
	sanitizer = check.Config{WatchdogCycles: 1}
	tripped := func(pass string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), check.KindDeadlock) {
			t.Fatalf("%s: want the one-cycle watchdog to fail the job, got %v", pass, err)
		}
	}
	j := tinyJob("UGAL-S", 0.2).Normalize()
	_, err := (&Engine{Check: true}).Run(context.Background(), []Job{j})
	tripped("engine", err)

	ws, err := OpenWarmStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, restored := range []bool{false, true} {
		res, err := j.run(nil, true, ws)
		tripped(fmt.Sprintf("restored=%v", restored), err)
		if res.WarmStart != restored || res.WarmSaved == restored {
			t.Fatalf("restored=%v: got WarmStart=%v WarmSaved=%v", restored, res.WarmStart, res.WarmSaved)
		}
	}
}

// TestWarmCorruptSnapshotFallsBack ensures a stored snapshot this build
// cannot resume is declined with sim.ErrResume, never misread: it is
// discarded and replaced by a cold run with the correct result. The
// cases are damaged bytes and two real streams of older formats:
// testdata/parkeyed_ff_k8.snap, version 2, of the v2 job's network (an
// 8-ary 2-flat under UGAL, 2-flit packets, age arbiter, 300 cycles at
// uniform load 0.9), written by a build whose parallel scheduler keyed
// packet IDs by cycle and source; and testdata/v3_ff_k4.snap, version 3,
// the warm-up of tinyJob("CLOS AD", 0.3), written by the last build that
// stored transfers in snapshots.
func TestWarmCorruptSnapshotFallsBack(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "parkeyed_ff_k8.snap"))
	if err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join("testdata", "v3_ff_k4.snap"))
	if err != nil {
		t.Fatal(err)
	}
	v2Job := Job{
		Net: "flatfly", K: 8, N: 2, Alg: "UGAL", Pattern: "UR", Load: 0.9,
		Warmup: 300, Measure: 100, MaxCycles: 2000, Seed: 24,
		BufPerPort: 32, PacketSize: 2, AgeArbiter: true,
	}
	for _, c := range []struct {
		name string
		job  Job
		data []byte
		why  string // in the decline's error
	}{
		{"garbage", tinyJob("CLOS AD", 0.3), []byte("not a snapshot"), "bad magic"},
		{"format v2", v2Job, v2, "format version 2"},
		{"format v3", tinyJob("CLOS AD", 0.3), v3, "format version 3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ws, err := OpenWarmStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			j := c.job.Normalize()
			coldRes, err := j.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.simulate(sim.RunHooks{}, bytes.NewReader(c.data), nil); !errors.Is(err, sim.ErrResume) || !strings.Contains(err.Error(), c.why) {
				t.Fatalf("resuming from the stored bytes: %v, want sim.ErrResume naming %q", err, c.why)
			}
			if err := ws.Put(j.WarmKey(), c.data); err != nil {
				t.Fatal(err)
			}
			res, err := j.run(nil, false, ws)
			if err != nil {
				t.Fatalf("a declined warm snapshot should fall back, got: %v", err)
			}
			if res.WarmStart || !res.WarmSaved {
				t.Fatalf("want cold fallback that re-deposits, got WarmStart=%v WarmSaved=%v", res.WarmStart, res.WarmSaved)
			}
			if !reflect.DeepEqual(res.Point, coldRes.Point) {
				t.Fatalf("fallback result diverges from cold: %+v vs %+v", res.Point, coldRes.Point)
			}
			// The declined bytes are gone, replaced by a current-version
			// snapshot that warm-starts.
			data, ok := ws.Get(j.WarmKey())
			if !ok || bytes.Equal(data, c.data) {
				t.Fatal("the declined snapshot was not replaced")
			}
			if r, err := snapshot.NewReader(bytes.NewReader(data)); err != nil || r.Version() != snapshot.Version {
				t.Fatalf("re-deposited snapshot: %v, want format version %d", err, snapshot.Version)
			}
			res2, err := j.run(nil, false, ws)
			if err != nil {
				t.Fatal(err)
			}
			if !res2.WarmStart {
				t.Fatal("replacement snapshot did not warm-start")
			}
			if !reflect.DeepEqual(res2.Point, coldRes.Point) {
				t.Fatalf("warm-started result diverges from cold: %+v vs %+v", res2.Point, coldRes.Point)
			}
		})
	}
}

// TestWarmStoreBesideCache pins the on-disk convention: snapshots live
// in a sibling directory of the JSON-lines cache, one file per key.
func TestWarmStoreBesideCache(t *testing.T) {
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
