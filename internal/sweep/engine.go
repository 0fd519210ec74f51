package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
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

	live liveCounters // the job ledger, lock-free

	mu   sync.Mutex
	rows []WorkerStats // per-worker lifetime rows, folded in after each Run
}

// WorkerStats is one worker's lifetime accounting.
type WorkerStats struct {
	Jobs int           // simulations executed (cache hits and skips excluded)
	Busy time.Duration // wall-clock time spent inside those simulations
}

// Stats is an engine's lifetime accounting across Run calls, read from
// the same ledger as Vars.
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

// Stats returns a copy of the engine's accumulated statistics. Like
// Vars, it may be called mid-batch; the per-worker rows are updated when
// a batch ends.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	rows := append([]WorkerStats(nil), e.rows...)
	e.mu.Unlock()
	l := &e.live
	return Stats{
		Jobs:            int(l.submitted.Load()),
		Simulated:       int(l.simulated.Load()),
		CacheHits:       int(l.cacheHits.Load()),
		Deduped:         int(l.deduped.Load()),
		Skipped:         int(l.skipped.Load()),
		Failed:          int(l.failed.Load()),
		WarmHits:        int(l.warmHits.Load()),
		WarmPuts:        int(l.warmPuts.Load()),
		WarmCyclesSaved: l.warmCycles.Load(),
		Workers:         rows,
	}
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
	// settle records a job's result under its outcome's counter. Every
	// outcome but failure settles here; failJob counts a failure.
	settled, failed := make([]bool, len(jobs)), make([]bool, len(jobs))
	settle := func(i int, r Result, outcome *atomic.Int64) {
		results[i], settled[i] = r, true
		outcome.Add(1)
		e.live.done.Add(1)
		prog.step()
		if onDone != nil {
			onDone(i, r)
		}
	}
	failJob := func(i int) {
		failed[i] = true
		e.live.failed.Add(1)
		e.live.done.Add(1)
		prog.step()
	}

	// Settle cache hits up front and coalesce duplicate hashes so each
	// distinct simulation runs exactly once.
	var pending, followers []int
	primary := map[string]int{} // hash -> index of the job that simulates it
	for i, j := range jobs {
		jobs[i] = j.Normalize()
		hashes[i] = jobs[i].Hash()
		if e.Cache != nil {
			if r, ok := e.Cache.Get(hashes[i]); ok {
				settle(i, r, &e.live.cacheHits)
				continue
			}
		}
		if _, ok := primary[hashes[i]]; ok {
			followers = append(followers, i)
			continue
		}
		primary[hashes[i]] = i
		pending = append(pending, i)
	}

	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		jobErrs []error
		wstats  = make([]WorkerStats, nw)
	)
	fail := func(err error) {
		errMu.Lock()
		jobErrs = append(jobErrs, err)
		errMu.Unlock()
	}
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
					settle(i, Result{Job: jobs[i], Hash: hashes[i], Skipped: true}, &e.live.skipped)
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
					fail(err)
					failJob(i)
					continue
				}
				r.ElapsedSeconds = elapsed.Seconds()
				if r.WarmStart {
					e.live.warmHits.Add(1)
					e.live.warmCycles.Add(int64(r.Job.Warmup))
				}
				if r.WarmSaved {
					e.live.warmPuts.Add(1)
				}
				if e.Cache != nil {
					if err := e.Cache.Put(r); err != nil {
						fail(err)
					}
				}
				settle(i, r, &e.live.simulated)
			}
		}(w)
	}
	wg.Wait()

	// Followers of a deduplicated hash share the primary's outcome: its
	// result, or its failure. A follower of a primary that never ran (the
	// batch was cancelled) is not settled either.
	for _, i := range followers {
		switch p := primary[hashes[i]]; {
		case settled[p]:
			settle(i, results[p], &e.live.deduped)
		case failed[p]:
			failJob(i)
		}
	}

	e.mu.Lock()
	if len(e.rows) < nw {
		e.rows = append(e.rows, make([]WorkerStats, nw-len(e.rows))...)
	}
	for w, s := range wstats {
		e.rows[w].Jobs += s.Jobs
		e.rows[w].Busy += s.Busy
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
