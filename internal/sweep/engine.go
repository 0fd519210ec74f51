package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Engine executes batches of Jobs on a worker pool. The zero value is a
// usable sequential engine; set Workers for parallelism, Cache for
// durable result reuse and Progress for live reporting. An Engine may be
// reused across Run calls; Stats accumulate over its lifetime.
type Engine struct {
	// Workers is the pool size. <= 0 selects GOMAXPROCS.
	Workers int
	// Cache, when non-nil, is consulted before simulating and appended
	// to after. Identical jobs within one Run are also deduplicated and
	// simulated once.
	Cache *Cache
	// Progress, when non-nil, receives live progress/ETA lines and the
	// final per-worker throughput report (typically os.Stderr).
	Progress io.Writer
	// JobTimeout is the per-job wall-clock budget; a job exceeding it
	// fails with an error (0 = no budget). The per-job *cycle* budget is
	// the job's own MaxCycles.
	JobTimeout time.Duration
	// Check runs every simulated job under the internal/check runtime
	// sanitizer: invariant violations fail the job. Results are
	// bit-identical either way, so Check does not enter the job hash —
	// but note that cache hits are served without re-checking. It
	// composes with Warm: a warm-restored job is checked from the
	// restored state on. Building with -tags=check turns Check on for
	// every engine.
	Check bool
	// Warm, when non-nil, enables warm-state reuse for ModeLoad jobs:
	// a job whose WarmKey has a stored snapshot resumes from it instead
	// of re-simulating its warm-up, and cold runs deposit their warmed
	// state for future sweeps. Results are bit-identical either way,
	// with or without Check.
	Warm *WarmStore

	mu    sync.Mutex
	stats Stats
	live  liveCounters
}

// WorkerStats is one worker's lifetime accounting.
type WorkerStats struct {
	Jobs int           // simulations executed (cache hits and skips excluded)
	Busy time.Duration // wall-clock time spent inside those simulations
}

// Stats accumulates an engine's lifetime accounting across Run calls.
type Stats struct {
	Jobs      int // jobs requested
	Simulated int // jobs actually simulated
	CacheHits int // jobs served from the cache
	Deduped   int // duplicate jobs coalesced within a Run
	Skipped   int // jobs elided by a skip predicate (saturation fast-path)
	Failed    int // jobs that returned an error
	// WarmHits counts simulations resumed from a warm-state snapshot,
	// WarmPuts the cold runs that deposited one, and WarmCyclesSaved the
	// total warm-up cycles not re-simulated thanks to those hits.
	WarmHits        int
	WarmPuts        int
	WarmCyclesSaved int64
	Workers         []WorkerStats
}

// WarmLine reports the warm-store totals in the one line the sweep
// front ends print.
func (s Stats) WarmLine() string {
	return fmt.Sprintf("warm snapshots: %d restores, %d saved, %d warm-up cycles skipped",
		s.WarmHits, s.WarmPuts, s.WarmCyclesSaved)
}

// Stats returns a copy of the engine's accumulated statistics.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.Workers = append([]WorkerStats(nil), e.stats.Workers...)
	return s
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes jobs and returns their results in job order. Cache hits
// skip simulation; remaining jobs are deduplicated by hash and fanned
// across the worker pool. Individual job failures do not stop the batch:
// every runnable job still runs, and the failures come back as one
// aggregated error alongside the partial results. Cancelling ctx stops
// feeding the pool, interrupts in-flight simulations and returns
// ctx.Err().
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	return e.run(ctx, jobs, nil, nil)
}

// run is Run plus two hooks used by RunSeries: skip is consulted when a
// job is dequeued (true elides the simulation and yields a zero result
// marked Skipped), and onDone observes every settled result, including
// cache hits, from whichever goroutine settled it.
func (e *Engine) run(ctx context.Context, jobs []Job, skip func(int) bool, onDone func(int, Result)) ([]Result, error) {
	nw := e.workers()
	jobs = append([]Job(nil), jobs...) // normalized locally; callers keep their spec
	results := make([]Result, len(jobs))
	hashes := make([]string, len(jobs))
	e.live.submitted.Add(int64(len(jobs)))
	prog := newProgress(e.Progress, e, len(jobs), nw)

	// Settle cache hits up front and coalesce duplicate hashes so each
	// distinct simulation runs exactly once.
	var pending []int         // primary job index per distinct hash
	dup := map[string][]int{} // hash -> follower job indices
	prim := map[string]bool{} // hash has a primary already
	var nhits, ndup int
	for i, j := range jobs {
		jn := j.Normalize()
		jobs[i] = jn
		hashes[i] = jn.Hash()
		if e.Cache != nil {
			if r, ok := e.Cache.Get(hashes[i]); ok {
				results[i] = r
				nhits++
				e.live.cacheHits.Add(1)
				e.live.done.Add(1)
				prog.step()
				if onDone != nil {
					onDone(i, r)
				}
				continue
			}
		}
		if prim[hashes[i]] {
			dup[hashes[i]] = append(dup[hashes[i]], i)
			ndup++
			continue
		}
		prim[hashes[i]] = true
		pending = append(pending, i)
	}

	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		jobErrs []error
		wstats  = make([]WorkerStats, nw)
		nsim    int
		nskip   int
		nfail   int

		nwarmhit   int
		nwarmput   int
		warmCycles int64
	)
	countMu := &errMu // one lock guards jobErrs and the counters below
	feed := make(chan int)
	go func() {
		defer close(feed)
		for _, i := range pending {
			select {
			case feed <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range feed {
				if ctx.Err() != nil {
					return
				}
				if skip != nil && skip(i) {
					results[i] = Result{Job: jobs[i], Hash: hashes[i], Skipped: true}
					countMu.Lock()
					nskip++
					countMu.Unlock()
					e.live.skipped.Add(1)
					e.live.done.Add(1)
					prog.step()
					if onDone != nil {
						onDone(i, results[i])
					}
					continue
				}
				start := time.Now()
				stop := e.stopFunc(ctx, start)
				e.live.inFlight.Add(1)
				r, err := jobs[i].run(stop, e.Check || autoCheck, e.Warm)
				elapsed := time.Since(start)
				e.live.inFlight.Add(-1)
				e.live.busyNanos.Add(int64(elapsed))
				wstats[w].Jobs++
				wstats[w].Busy += elapsed
				if err != nil {
					if ctx.Err() != nil {
						return // cancelled, not a job failure
					}
					if e.JobTimeout > 0 && elapsed >= e.JobTimeout {
						err = fmt.Errorf("%w (wall-clock budget %v exceeded)", err, e.JobTimeout)
					}
					countMu.Lock()
					jobErrs = append(jobErrs, err)
					nfail++
					countMu.Unlock()
					e.live.failed.Add(1)
					e.live.done.Add(1)
					prog.step()
					continue
				}
				r.ElapsedSeconds = elapsed.Seconds()
				results[i] = r
				countMu.Lock()
				nsim++
				if r.WarmStart {
					nwarmhit++
					warmCycles += int64(r.Job.Warmup)
				}
				if r.WarmSaved {
					nwarmput++
				}
				countMu.Unlock()
				if e.Cache != nil {
					if cerr := e.Cache.Put(r); cerr != nil {
						countMu.Lock()
						jobErrs = append(jobErrs, cerr)
						countMu.Unlock()
					}
				}
				e.live.simulated.Add(1)
				e.live.done.Add(1)
				prog.step()
				if onDone != nil {
					onDone(i, r)
				}
			}
		}(w)
	}
	wg.Wait()

	// Followers of a deduplicated hash share the primary's result.
	for h, followers := range dup {
		for _, i := range followers {
			for _, p := range pending {
				if hashes[p] == h {
					results[i] = results[p]
					break
				}
			}
			e.live.deduped.Add(1)
			e.live.done.Add(1)
			if onDone != nil {
				onDone(i, results[i])
			}
		}
	}

	e.mu.Lock()
	e.stats.Jobs += len(jobs)
	e.stats.Simulated += nsim
	e.stats.CacheHits += nhits
	e.stats.Deduped += ndup
	e.stats.Skipped += nskip
	e.stats.Failed += nfail
	e.stats.WarmHits += nwarmhit
	e.stats.WarmPuts += nwarmput
	e.stats.WarmCyclesSaved += warmCycles
	if len(e.stats.Workers) < nw {
		e.stats.Workers = append(e.stats.Workers, make([]WorkerStats, nw-len(e.stats.Workers))...)
	}
	for w := range wstats {
		e.stats.Workers[w].Jobs += wstats[w].Jobs
		e.stats.Workers[w].Busy += wstats[w].Busy
	}
	e.mu.Unlock()
	prog.finish(wstats)

	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, errors.Join(jobErrs...)
}

// stopFunc builds a job's Stop hook from the run context and the
// engine's wall-clock budget.
func (e *Engine) stopFunc(ctx context.Context, start time.Time) func() bool {
	if e.JobTimeout <= 0 {
		return func() bool { return ctx.Err() != nil }
	}
	deadline := start.Add(e.JobTimeout)
	return func() bool { return ctx.Err() != nil || time.Now().After(deadline) }
}
