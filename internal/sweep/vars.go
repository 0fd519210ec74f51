package sweep

import (
	"sync/atomic"
	"time"

	"flatnet/internal/telemetry"
)

// liveCounters is the engine's one job ledger, lock-free and updated as
// each job settles in run(). Stats, Vars, the progress reporter and the
// -listen metrics endpoint all read it, mid-batch or after.
type liveCounters struct {
	submitted atomic.Int64 // jobs handed to Run, cumulatively
	done      atomic.Int64 // jobs settled (any outcome)
	simulated atomic.Int64 // jobs actually simulated
	cacheHits atomic.Int64 // jobs served from the cache
	deduped   atomic.Int64 // duplicate jobs coalesced within a Run
	skipped   atomic.Int64 // jobs elided by a skip predicate
	failed    atomic.Int64 // jobs that returned an error
	inFlight  atomic.Int64 // simulations executing right now
	busyNanos atomic.Int64 // wall-clock nanoseconds inside simulations

	warmHits   atomic.Int64 // simulations resumed from a warm snapshot
	warmPuts   atomic.Int64 // cold runs that deposited one
	warmCycles atomic.Int64 // warm-up cycles the hits did not re-simulate
}

// Vars is a point-in-time snapshot of an Engine's live counters, shaped
// for JSON export (expvar gauges marshal it directly). The identity
// Simulated + CacheHits + Deduped + Skipped + Failed == JobsDone holds
// whenever no batch is mid-flight.
type Vars struct {
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsDone      int64 `json:"jobs_done"`
	JobsInFlight  int64 `json:"jobs_in_flight"`
	Simulated     int64 `json:"simulated"`
	CacheHits     int64 `json:"cache_hits"`
	Deduped       int64 `json:"deduped"`
	Skipped       int64 `json:"skipped"`
	Failed        int64 `json:"failed"`
	// BusySeconds is the summed wall-clock time workers have spent inside
	// simulations; divide by (elapsed x Workers) for pool utilization.
	BusySeconds float64 `json:"busy_seconds"`
	// Workers is the pool size the engine would use for its next batch.
	Workers int `json:"workers"`
	// CacheHitRate is CacheHits / JobsDone (0 when nothing has settled).
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Vars snapshots the engine's live counters. It is safe to call from any
// goroutine, including while a Run is in progress.
func (e *Engine) Vars() Vars {
	v := Vars{
		JobsSubmitted: e.live.submitted.Load(),
		JobsDone:      e.live.done.Load(),
		JobsInFlight:  e.live.inFlight.Load(),
		Simulated:     e.live.simulated.Load(),
		CacheHits:     e.live.cacheHits.Load(),
		Deduped:       e.live.deduped.Load(),
		Skipped:       e.live.skipped.Load(),
		Failed:        e.live.failed.Load(),
		BusySeconds:   time.Duration(e.live.busyNanos.Load()).Seconds(),
		Workers:       e.workers(),
	}
	if v.JobsDone > 0 {
		v.CacheHitRate = float64(v.CacheHits) / float64(v.JobsDone)
	}
	return v
}

// PublishVars registers the engine's live counters on a telemetry
// registry as the "sweep_engine" gauge, so a metrics endpoint serving
// the registry exposes worker utilization, cache hit rate and jobs in
// flight mid-run.
func (e *Engine) PublishVars(r *telemetry.Registry) {
	r.Gauge("sweep_engine", func() any { return e.Vars() })
}
