package sweep

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"flatnet/internal/telemetry"
)

// TestVarsAccounting pins the settle-path identity: every job that
// settles does so through exactly one of simulated / cache hit / dedup /
// skip / fail, so the live counters always reconcile.
func TestVarsAccounting(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(filepath.Join(dir, "cache.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	eng := &Engine{Workers: 4, Cache: cache}

	jobs := []Job{
		tinyJob("MIN AD", 0.2),
		tinyJob("MIN AD", 0.2), // duplicate: coalesced within the run
		tinyJob("CLOS AD", 0.5),
		{Net: "bogus"}, // fails
	}
	if _, err := eng.Run(context.Background(), jobs); err == nil {
		t.Fatal("bogus job did not fail")
	}
	v := eng.Vars()
	if v.JobsSubmitted != 4 {
		t.Errorf("JobsSubmitted = %d, want 4", v.JobsSubmitted)
	}
	if v.JobsDone != 4 {
		t.Errorf("JobsDone = %d, want 4", v.JobsDone)
	}
	if v.JobsInFlight != 0 {
		t.Errorf("JobsInFlight = %d after Run returned", v.JobsInFlight)
	}
	if sum := v.Simulated + v.CacheHits + v.Deduped + v.Skipped + v.Failed; sum != v.JobsDone {
		t.Errorf("settle identity broken: %d+%d+%d+%d+%d != %d",
			v.Simulated, v.CacheHits, v.Deduped, v.Skipped, v.Failed, v.JobsDone)
	}
	if v.Simulated != 2 || v.Deduped != 1 || v.Failed != 1 {
		t.Errorf("first run: simulated %d deduped %d failed %d, want 2/1/1",
			v.Simulated, v.Deduped, v.Failed)
	}
	if v.BusySeconds <= 0 {
		t.Error("no busy time accumulated")
	}

	// Re-running the two good jobs hits the cache; the hit rate becomes
	// visible through Vars.
	if _, err := eng.Run(context.Background(), jobs[:3]); err != nil {
		t.Fatal(err)
	}
	v = eng.Vars()
	if v.CacheHits != 3 { // both distinct jobs + the former duplicate
		t.Errorf("CacheHits = %d, want 3", v.CacheHits)
	}
	if v.CacheHitRate <= 0 {
		t.Error("CacheHitRate not computed")
	}
	if sum := v.Simulated + v.CacheHits + v.Deduped + v.Skipped + v.Failed; sum != v.JobsDone {
		t.Errorf("settle identity broken after second run: sum %d != done %d", sum, v.JobsDone)
	}
}

// TestPublishVars checks the engine's gauge serves through a registry
// snapshot the way a -listen endpoint would render it.
func TestPublishVars(t *testing.T) {
	eng := &Engine{Workers: 2}
	if _, err := eng.Run(context.Background(), []Job{tinyJob("MIN AD", 0.3)}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	eng.PublishVars(reg)
	out := reg.String()
	if !strings.Contains(out, `"sweep_engine"`) {
		t.Fatalf("registry JSON missing sweep_engine: %s", out)
	}
	var decoded struct {
		SweepEngine Vars `json:"sweep_engine"`
	}
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("registry JSON does not decode: %v", err)
	}
	if decoded.SweepEngine.Simulated != 1 || decoded.SweepEngine.Workers != 2 {
		t.Errorf("gauge snapshot = %+v", decoded.SweepEngine)
	}
}

// TestOneLedger runs one batch that settles jobs every way — cache hits,
// warm restores, simulations, saturation skips, duplicates and a failure
// — and holds Stats and Vars to the same ledger, the settle identity
// included, and the progress stream to a final line that counts every
// job.
func TestOneLedger(t *testing.T) {
	eng := &Engine{Workers: 1} // one worker makes the skips deterministic
	closeCache, err := eng.UseCache(filepath.Join(t.TempDir(), "c.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer closeCache()
	if _, err := eng.Run(context.Background(), []Job{tinyJob("MIN AD", 0.2), tinyJob("CLOS AD", 0.3)}); err != nil {
		t.Fatal(err)
	}

	remeasured := tinyJob("CLOS AD", 0) // misses the cache, restores the warm-up
	remeasured.Measure = 150
	saturating := tinyJob("MIN AD", 0)
	saturating.Pattern, saturating.MaxCycles = "WC", 300
	bogus := tinyJob("nonsense", 0)
	specs := []SeriesSpec{
		{Base: tinyJob("MIN AD", 0), Loads: []float64{0.2}}, // a cache hit
		{Base: remeasured, Loads: []float64{0.3}},
		{Base: saturating, Loads: []float64{0.5, 0.6, 0.7, 0.8, 0.9}},
		{Base: saturating, Loads: []float64{0.5, 0.6, 0.7, 0.8, 0.9}}, // five duplicates
		{Base: bogus, Loads: []float64{0.2}},
	}
	var progress syncBuffer
	eng.Progress = &progress
	if _, err := eng.RunSeries(context.Background(), specs); err == nil {
		t.Fatal("the bogus algorithm did not fail")
	}

	st, v := eng.Stats(), eng.Vars()
	if st.Jobs != 15 || v.JobsSubmitted != 15 || v.JobsDone != 15 {
		t.Errorf("jobs %d, submitted %d, done %d; want 15 each", st.Jobs, v.JobsSubmitted, v.JobsDone)
	}
	if sum := v.Simulated + v.CacheHits + v.Deduped + v.Skipped + v.Failed; sum != v.JobsDone {
		t.Errorf("settle identity broken: %d+%d+%d+%d+%d != %d",
			v.Simulated, v.CacheHits, v.Deduped, v.Skipped, v.Failed, v.JobsDone)
	}
	if got, want := [5]int64{int64(st.Simulated), int64(st.CacheHits), int64(st.Deduped), int64(st.Skipped), int64(st.Failed)},
		[5]int64{v.Simulated, v.CacheHits, v.Deduped, v.Skipped, v.Failed}; got != want {
		t.Errorf("Stats %v and Vars %v disagree (simulated, hits, deduped, skipped, failed)", got, want)
	}
	if st.CacheHits != 1 || st.Deduped != 5 || st.Failed != 1 || st.Skipped == 0 || st.WarmHits != 1 {
		t.Errorf("want 1 cache hit, 5 deduped, 1 failed, some skipped and 1 warm restore; got %+v", st)
	}
	if st.WarmCyclesSaved != int64(remeasured.Warmup) || st.WarmPuts != st.Simulated-st.WarmHits {
		t.Errorf("warm ledger: %d cycles saved, %d puts, %d simulated, %d restores", st.WarmCyclesSaved, st.WarmPuts, st.Simulated, st.WarmHits)
	}
	ran := 0
	for _, w := range st.Workers {
		ran += w.Jobs
	}
	if ran != st.Simulated+st.Failed {
		t.Errorf("workers ran %d jobs, the ledger counts %d simulated and %d failed", ran, st.Simulated, st.Failed)
	}
	if !strings.Contains(progress.String(), "sweep: 13/13 jobs") {
		t.Errorf("no progress line counts all 13 jobs of the batch:\n%s", progress.String())
	}
}

// TestFailedFollowersFail runs three copies of one failing job, and then
// two copies of a good job in a batch cancelled before it starts. A
// follower shares its primary's outcome: the failure counts three times
// (nothing is deduped, and progress reaches 3/3), and the primary that
// never ran leaves its follower unsettled too.
func TestFailedFollowersFail(t *testing.T) {
	var progress syncBuffer
	eng := &Engine{Workers: 2, Progress: &progress}
	bad := Job{Net: "bogus"}
	if _, err := eng.Run(context.Background(), []Job{bad, bad, bad}); err == nil {
		t.Fatal("the bogus network did not fail")
	}
	st, v := eng.Stats(), eng.Vars()
	if st.Failed != 3 || st.Deduped != 0 || v.JobsDone != 3 {
		t.Errorf("failed %d, deduped %d, done %d; want 3, 0, 3", st.Failed, st.Deduped, v.JobsDone)
	}
	if got, want := [5]int64{int64(st.Simulated), int64(st.CacheHits), int64(st.Deduped), int64(st.Skipped), int64(st.Failed)},
		[5]int64{v.Simulated, v.CacheHits, v.Deduped, v.Skipped, v.Failed}; got != want {
		t.Errorf("Stats %v and Vars %v disagree (simulated, hits, deduped, skipped, failed)", got, want)
	}
	if !strings.Contains(progress.String(), "sweep: 3/3 jobs") {
		t.Errorf("no progress line counts all 3 jobs:\n%s", progress.String())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.Run(ctx, []Job{tinyJob("MIN AD", 0.2), tinyJob("MIN AD", 0.2)})
	if err == nil {
		t.Fatal("the cancelled batch returned no error")
	}
	if v := eng.Vars(); v.JobsDone != 3 || v.Deduped != 0 || res[1].Hash != "" {
		t.Errorf("cancelled batch: done %d, deduped %d, follower hash %q; want 3, 0 and no result", v.JobsDone, v.Deduped, res[1].Hash)
	}
}
