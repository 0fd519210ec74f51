package routing

import (
	"testing"

	"flatnet/internal/sim"
	"flatnet/internal/traffic"
)

// TestPacketSizeDoesNotChangeComparisons validates §3.2 note 2 of the
// paper: "Different packet sizes do not impact the comparison results."
// With 4-flit packets, the worst-case ordering — minimal routing
// collapsing to ~1/k while non-minimal adaptive routing sustains several
// times more — must be preserved.
func TestPacketSizeDoesNotChangeComparisons(t *testing.T) {
	f := ff(t, 8, 2)
	wc := traffic.NewWorstCase(f.K, f.NumRouters)
	cfg := sim.DefaultConfig()
	cfg.PacketSize = 4

	sat := func(alg sim.Algorithm) float64 {
		t.Helper()
		v, err := sim.SaturationThroughput(f.Graph(), alg, cfg, wc, 800, 1600)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		return v
	}
	min := sat(NewMinAD(f))
	clos := sat(NewClosAD(f))
	ugals := sat(NewUGALS(f))
	if min > 0.18 {
		t.Errorf("size-4 MIN AD WC throughput = %.3f, want ~1/8", min)
	}
	if clos < 2.0*min || ugals < 2.0*min {
		t.Errorf("size-4 non-minimal (CLOS AD %.3f, UGAL-S %.3f) should dwarf minimal (%.3f)",
			clos, ugals, min)
	}
}

// TestMultiFlitAllAlgorithmsDeliver is a deadlock/progress smoke test:
// every flattened-butterfly algorithm must keep delivering 4-flit packets
// at moderate load on a 2-D network.
func TestMultiFlitAllAlgorithmsDeliver(t *testing.T) {
	f := ff(t, 4, 3)
	cfg := sim.DefaultConfig()
	cfg.PacketSize = 4
	for _, alg := range allFFAlgs(f) {
		res, err := sim.RunLoadPoint(f.Graph(), alg, cfg, sim.RunConfig{
			Load:    0.2,
			Source:  traffic.NewBernoulli(traffic.NewUniform(f.NumNodes)),
			Warmup:  500,
			Measure: 500,
		})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if res.Saturated || res.MeasuredDelivered != res.MeasuredCreated {
			t.Errorf("%s: did not drain 4-flit packets at 20%% load (%d/%d, saturated=%v)",
				alg.Name(), res.MeasuredDelivered, res.MeasuredCreated, res.Saturated)
		}
	}
}
