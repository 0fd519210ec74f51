package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"flatnet/internal/sweep"
)

// Windows of the sweep jobs, before scaling.
const (
	sweepWarmup    = 250
	sweepMeasure   = 250
	sweepMaxCycles = 2000
)

// sweepJobs is one seed's half of the design-space grid both sweep
// workloads run: one small flattened butterfly, the paper's five algorithms,
// benign and adversarial traffic and five loads — 50 load-point jobs. The
// grid's two seeds (seed, seed+1) are run as alternating batches.
func sweepJobs(e *runEnv, batch, measure int) []sweep.Job {
	var jobs []sweep.Job
	for _, alg := range []string{"MIN AD", "VAL", "UGAL", "UGAL-S", "CLOS AD"} {
		for _, pat := range []string{"UR", "WC"} {
			for _, load := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
				jobs = append(jobs, sweep.Job{
					Net: "flatfly", K: 16, N: 2, Alg: alg, Pattern: pat,
					Mode: sweep.ModeLoad, Load: load, Seed: e.seed + uint64(batch%2),
					Warmup:    e.cycles(sweepWarmup, 20),
					Measure:   measure,
					MaxCycles: e.cycles(sweepMaxCycles, 160),
				})
			}
		}
	}
	return jobs
}

// mustDrain reports whether theory leaves no doubt that the job's load is
// below saturation, so a Saturated result is a failure: uniform traffic at
// or under 30% load, which even Valiant's halved capacity carries.
func mustDrain(j sweep.Job) bool { return j.Pattern == "UR" && j.Load <= 0.3 }

// simulated strips the host-side fields of a result, leaving what the
// simulation computed.
func simulated(r sweep.Result) sweep.Result {
	r.ElapsedSeconds = 0
	r.Cached, r.Skipped, r.WarmStart, r.WarmSaved = false, false, false, false
	r.Job.Workers = 0
	return r
}

func sameResults(a, b []sweep.Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d results, want %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(simulated(a[i]), simulated(b[i])) {
			return fmt.Errorf("job %d (%s %s load %.1f): %+v, want %+v", i, a[i].Job.Alg, a[i].Job.Pattern, a[i].Job.Load, a[i].Point, b[i].Point)
		}
	}
	return nil
}

func resultsDigest(rs []sweep.Result) string {
	var d digest
	for _, r := range rs {
		d.add(r.Hash, fmt.Sprintf("%+v", r.Point))
	}
	return d.sum()
}

// sweepStore is one cache file and warm store in a directory of its own.
type sweepStore struct {
	dir   string
	cache *sweep.Cache
	warm  *sweep.WarmStore
}

func openSweepStore(e *runEnv) (*sweepStore, error) {
	dir, err := os.MkdirTemp(e.tmp, "sweep")
	if err != nil {
		return nil, err
	}
	s := &sweepStore{dir: dir}
	if s.cache, err = sweep.OpenCache(s.cachePath()); err != nil {
		return nil, err
	}
	s.warm, err = sweep.OpenWarmStore(filepath.Join(dir, "results.jsonl.warm"))
	return s, err
}

func (s *sweepStore) cachePath() string { return filepath.Join(s.dir, "results.jsonl") }

func (s *sweepStore) remove() {
	s.cache.Close()
	os.RemoveAll(s.dir)
}

func dirBytes(dir string) float64 {
	var sum int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			sum += info.Size()
		}
		return nil
	})
	return float64(sum)
}

// runJobs runs one batch through an engine and returns its window and
// results. Job errors and forbidden saturation count as failed jobs.
func runJobs(e *runEnv, o *outcome, parent int, name string, eng *sweep.Engine, jobs []sweep.Job) (window, []sweep.Result) {
	id := e.tr.begin(parent, name)
	start := time.Now()
	failedBefore := eng.Stats().Failed
	res, err := eng.Run(context.Background(), jobs)
	w := window{wall: time.Since(start).Seconds(), work: float64(len(jobs))}
	e.tr.end(id)
	o.attempted += len(jobs)
	if n := eng.Stats().Failed - failedBefore; n > 0 || err != nil {
		if n == 0 {
			n = 1
		}
		o.failN(n, "%s: %v", name, err)
	}
	for _, r := range res {
		w.ops = append(w.ops, r.ElapsedSeconds*1e3)
		if r.Point.Saturated && mustDrain(r.Job) {
			o.fail("%s: %s UR load %.1f saturated", name, r.Job.Alg, r.Job.Load)
		}
	}
	return w, res
}

// setEngineLayer reports how the engine's workers spent the wall clock of
// the batch run between the two stats readings.
func setEngineLayer(o *outcome, before, after sweep.Stats, wall float64) {
	var busy, maxBusy float64
	for i, w := range after.Workers {
		b := w.Busy.Seconds()
		if i < len(before.Workers) {
			b -= before.Workers[i].Busy.Seconds()
		}
		busy += b
		if b > maxBusy {
			maxBusy = b
		}
	}
	o.set("sweep.worker_busy_frac", busy/(float64(len(after.Workers))*wall))
	o.set("sweep.engine_overhead_ms", (wall-maxBusy)*1e3)
}

// setJobLayer reports the per-job cost of one batch's results.
func setJobLayer(o *outcome, res []sweep.Result, p50Name string) {
	var ms []float64
	sat := 0
	for _, r := range res {
		ms = append(ms, r.ElapsedSeconds*1e3)
		if r.Point.Saturated {
			sat++
		}
	}
	s := sortedCopy(ms)
	o.set(p50Name, quantile(s, 0.5))
	o.set("sweep.job_ms_p95", quantile(s, 0.95))
	o.set("sweep.saturated_jobs", float64(sat))
}

// runSweepGrid is sweep_grid: batches of the grid run cold against a fresh
// cache and warm store, each followed by re-runs served from the cache.
func runSweepGrid(e *runEnv) (*outcome, error) {
	o := &outcome{}
	measure := e.cycles(sweepMeasure, 20)
	// Set-up: a store, and a few jobs through a throwaway engine so the
	// heap and page cache are grown before timing starts.
	for rep := 0; rep < setupRepeats; rep++ {
		id := e.tr.begin(0, "setup")
		start := time.Now()
		st, err := openSweepStore(e)
		if err != nil {
			return nil, err
		}
		eng := &sweep.Engine{Workers: e.nproc, Cache: st.cache, Warm: st.warm}
		_, err = eng.Run(context.Background(), sweepJobs(e, 0, measure)[:10])
		st.remove()
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
		e.tr.end(id)
	}

	const hitRepeats = 50
	var first [2][]sweep.Result
	var hitUS, openMS []float64
	var d digest
	for i, end := 0, e.deadline(); i < 2 || time.Now().Before(end); i++ {
		round := e.tr.begin(0, fmt.Sprintf("round[%d]", i))
		jobs := sweepJobs(e, i, measure)
		st, err := openSweepStore(e)
		if err != nil {
			return nil, err
		}
		eng := &sweep.Engine{Workers: e.nproc, Cache: st.cache, Warm: st.warm}
		w, cold := runJobs(e, o, round, "phase.cold", eng, jobs)
		o.windows = append(o.windows, w)
		if i < 2 {
			first[i] = cold
			d.add(resultsDigest(cold))
			o.digest = d.sum()
		} else {
			err := sameResults(cold, first[i%2])
			o.check(err == nil, "round %d differs from round %d: %v", i, i%2, err)
		}
		if i == 0 && e.traced() {
			stats := eng.Stats()
			setEngineLayer(o, sweep.Stats{}, stats, w.wall)
			setJobLayer(o, cold, "sweep.job_ms_p50")
			o.set("sweep.warm_puts", float64(stats.WarmPuts))
			o.set("sweep.cache_bytes", dirBytes(st.cachePath()))
			o.set("sweep.warm_store_bytes", dirBytes(st.dir)-dirBytes(st.cachePath()))
		}

		// Hit phase: a new process would reopen the cache from disk.
		st.cache.Close()
		t := time.Now()
		if st.cache, err = sweep.OpenCache(st.cachePath()); err != nil {
			return nil, err
		}
		openMS = append(openMS, time.Since(t).Seconds()*1e3)
		hitEng := &sweep.Engine{Workers: e.nproc, Cache: st.cache}
		hit := e.tr.begin(round, "phase.hit")
		var served time.Duration
		for r := 0; r < hitRepeats; r++ {
			t := time.Now()
			res, err := hitEng.Run(context.Background(), jobs)
			served += time.Since(t)
			if err == nil {
				err = sameResults(res, cold)
			}
			o.check(err == nil, "cache hits differ from cold results: %v", err)
		}
		hitUS = append(hitUS, served.Seconds()*1e6/float64(hitRepeats*len(jobs)))
		e.tr.end(hit)
		o.check(hitEng.Stats().Simulated == 0, "hit phase simulated %d jobs", hitEng.Stats().Simulated)
		st.remove()
		e.tr.end(round)
	}

	if e.traced() {
		o.set("sweep.cache_open_ms", median(openMS))
		o.set("sweep.cache_hit_us_per_job", median(hitUS))
		if err := sweepProbes(e, o, sweepJobs(e, 0, measure), first[0]); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sweepProbes times the per-job pieces of the engine that are too small to
// see in a phase: hashing a job and appending a result to the cache.
func sweepProbes(e *runEnv, o *outcome, jobs []sweep.Job, res []sweep.Result) error {
	const reps = 20
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, j := range jobs {
			_ = j.Hash()
		}
	}
	o.set("sweep.hash_us_per_job", time.Since(t).Seconds()*1e6/float64(reps*len(jobs)))

	st, err := openSweepStore(e)
	if err != nil {
		return err
	}
	defer st.remove()
	id := e.tr.begin(0, "probe.cache_put")
	t = time.Now()
	for _, r := range res {
		if err := st.cache.Put(r); err != nil {
			return err
		}
	}
	o.set("sweep.cache_put_us_per_result", time.Since(t).Seconds()*1e6/float64(len(res)))
	e.tr.end(id)
	return nil
}

// runSweepWarm is sweep_warm: the grid is run cold once in set-up, which
// fills the warm store; every timed batch then re-runs it with a new
// measurement window, so each job misses the cache and restores a warmed
// network instead of simulating its warm-up.
func runSweepWarm(e *runEnv) (*outcome, error) {
	o := &outcome{}
	measure := e.cycles(sweepMeasure, 20)
	id := e.tr.begin(0, "setup")
	start := time.Now()
	st, err := openSweepStore(e)
	if err != nil {
		return nil, err
	}
	defer st.remove()
	eng := &sweep.Engine{Workers: e.nproc, Cache: st.cache, Warm: st.warm}
	for batch := 0; batch < 2; batch++ {
		if _, err = eng.Run(context.Background(), sweepJobs(e, batch, measure)); err != nil {
			return nil, err
		}
	}
	o.setups = append(o.setups, time.Since(start).Seconds())
	e.tr.end(id)
	puts := eng.Stats().WarmPuts

	var first [2][]sweep.Result
	var firstJobs [2][]sweep.Job
	var d digest
	for i, end := 0, e.deadline(); i < 2 || time.Now().Before(end); i++ {
		// Half the window, then one cycle more each time a seed comes
		// round again: a new job hash, the same warm key.
		jobs := sweepJobs(e, i, measure/2+i/2)
		before := eng.Stats()
		w, res := runJobs(e, o, 0, fmt.Sprintf("round[%d].phase.warm", i), eng, jobs)
		o.windows = append(o.windows, w)
		after := eng.Stats()
		o.check(after.WarmHits-before.WarmHits == len(jobs) && after.CacheHits == before.CacheHits,
			"round %d: %d of %d jobs restored a warm snapshot, %d cache hits",
			i, after.WarmHits-before.WarmHits, len(jobs), after.CacheHits-before.CacheHits)
		if i < 2 {
			first[i], firstJobs[i] = res, jobs
			d.add(resultsDigest(res))
			o.digest = d.sum()
		}
		if i == 0 && e.traced() {
			setEngineLayer(o, before, after, w.wall)
			setJobLayer(o, res, "sweep.warm_job_ms_p50")
		}
	}

	// A sample of the warm-restored results must equal the same jobs run
	// cold with no warm store.
	sample := e.tr.begin(0, "check.cold_sample")
	for b := range firstJobs {
		for i := b; i < len(firstJobs[b]); i += 10 {
			id := e.tr.begin(sample, fmt.Sprintf("job[%d.%d]", b, i))
			cold, err := firstJobs[b][i].Run(nil)
			e.tr.end(id)
			if err == nil {
				err = sameResults([]sweep.Result{first[b][i]}, []sweep.Result{cold})
			}
			o.check(err == nil, "warm-restored job %d.%d differs from a cold run: %v", b, i, err)
		}
	}
	e.tr.end(sample)

	if e.traced() {
		stats := eng.Stats()
		o.set("sweep.warm_hits", float64(stats.WarmHits))
		o.set("sweep.warm_puts", float64(puts))
		o.set("sweep.warm_cycles_saved", float64(stats.WarmCyclesSaved))
		o.set("sweep.warm_store_bytes", dirBytes(st.dir)-dirBytes(st.cachePath()))
		o.set("sweep.cache_bytes", dirBytes(st.cachePath()))
	}
	return o, nil
}
