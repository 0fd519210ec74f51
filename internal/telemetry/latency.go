package telemetry

import (
	"sync"
	"time"

	"flatnet/internal/stats"
)

// LatencyRecorder measures wall-clock service latencies for a serving
// surface (internal/nocsvc's request handling) and reports quantiles
// over a sliding reservoir of the most recent observations. Unlike the
// cycle-domain histograms in internal/stats, durations here are
// open-ended, so the recorder keeps raw samples in a fixed ring and
// computes quantiles at snapshot time. All methods are safe for
// concurrent use.
type LatencyRecorder struct {
	mu    sync.Mutex
	ring  []float64 // microseconds, most recent window
	next  int
	count int64
	sum   float64
	max   float64
}

// NewLatencyRecorder returns a recorder retaining the window most recent
// observations for quantile estimation (lifetime count, mean and max stay
// exact). window < 1 picks a default of 4096.
func NewLatencyRecorder(window int) *LatencyRecorder {
	if window < 1 {
		window = 4096
	}
	return &LatencyRecorder{ring: make([]float64, 0, window)}
}

// Observe records one service latency.
func (r *LatencyRecorder) Observe(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	if us < 0 {
		us = 0
	}
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, us)
	} else {
		r.ring[r.next] = us
		r.next = (r.next + 1) % len(r.ring)
	}
	r.count++
	r.sum += us
	if us > r.max {
		r.max = us
	}
	r.mu.Unlock()
}

// LatencySnapshot summarizes a LatencyRecorder: lifetime count, mean and
// max, and windowed quantiles, all in microseconds. It marshals cleanly
// to JSON for expvar gauges and the nocsvc stats verb.
type LatencySnapshot struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

// Snapshot returns the current summary.
func (r *LatencyRecorder) Snapshot() LatencySnapshot {
	r.mu.Lock()
	window := append([]float64(nil), r.ring...)
	s := LatencySnapshot{Count: r.count, MaxUS: r.max}
	if r.count > 0 {
		s.MeanUS = r.sum / float64(r.count)
	}
	r.mu.Unlock()
	// Selection, not a sort: window is a private copy.
	q := stats.SelectQuantiles(window, 0.50, 0.95, 0.99)
	s.P50US, s.P95US, s.P99US = q[0], q[1], q[2]
	return s
}
