package sim

import "sync/atomic"

// LiveVars aggregates coarse, process-wide simulation counters for live
// metrics endpoints: how many run harnesses have started and finished,
// and the total cycles and packet deliveries simulated so far. Every
// run harness updates them through the shared skeleton (harness.go),
// batched onto the Stop-poll cadence (every 256 cycles), so the counters
// cost one atomic add per poll rather than per cycle and may lag the
// truth by up to one poll interval.
type LiveVars struct {
	RunsStarted      atomic.Int64
	RunsFinished     atomic.Int64
	Cycles           atomic.Int64
	PacketsDelivered atomic.Int64
}

// Live is the process-wide instance, published by commands that serve a
// -listen endpoint.
var Live LiveVars

// Snapshot returns the counters keyed by name, shaped for a telemetry
// registry gauge.
func (v *LiveVars) Snapshot() map[string]int64 {
	return map[string]int64{
		"runs_started":      v.RunsStarted.Load(),
		"runs_finished":     v.RunsFinished.Load(),
		"runs_in_flight":    v.RunsStarted.Load() - v.RunsFinished.Load(),
		"cycles":            v.Cycles.Load(),
		"packets_delivered": v.PacketsDelivered.Load(),
	}
}
