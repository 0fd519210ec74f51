// Analytic-oracle conformance: short instrumented runs — sanitizer
// attached — must match the closed-form zero-load latency model within a
// cycle and the channel-load saturation models within the usual
// simulation bands, for every topology family at 64 terminals.
package check_test

import (
	"math"
	"testing"

	"flatnet/internal/analysis"
	"flatnet/internal/check"
	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// zeroLoad measures one sanitized low-load point: 2% offered load is
// close enough to zero load that queueing contributes well under the
// one-cycle conformance budget.
func zeroLoad(t *testing.T, g *topo.Graph, alg sim.Algorithm, cfg sim.Config, p traffic.Pattern) sim.LoadPointResult {
	t.Helper()
	rc := sim.RunConfig{
		Load: 0.02, Source: traffic.NewBernoulli(p),
		Warmup: 300, Measure: 2000,
	}
	done := check.Arm(&rc.Attach, check.Config{})
	res, err := sim.RunLoadPoint(g, alg, cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := done(); err != nil {
		t.Fatalf("sanitizer tripped during conformance run: %v", err)
	}
	if res.Saturated {
		t.Fatal("saturated at 2% load")
	}
	return res
}

// conform asserts a measured run against its zero-load model: latency
// within one cycle (the acceptance budget) and hop count within the
// sampling noise of ~2500 measured packets.
func conform(t *testing.T, name string, res sim.LoadPointResult, m routing.ZeroLoadModel) {
	t.Helper()
	if d := math.Abs(res.AvgLatency - m.Latency()); d > 1.0 {
		t.Errorf("%s: zero-load latency %.3f vs oracle %.3f (off by %.3f cycles, budget 1)",
			name, res.AvgLatency, m.Latency(), d)
	}
	if d := math.Abs(res.AvgHops - m.AvgHops); d > 0.1 {
		t.Errorf("%s: avg hops %.3f vs oracle %.3f", name, res.AvgHops, m.AvgHops)
	}
}

// TestZeroLoadLatencyOracle holds every topology family, at 64
// terminals, to its closed-form zero-load latency under uniform traffic.
func TestZeroLoadLatencyOracle(t *testing.T) {
	cfg := sim.DefaultConfig()

	f, err := topo.NewFlatFly(8, 2) // 64 nodes, 8 routers
	if err != nil {
		t.Fatal(err)
	}
	ur := traffic.NewUniform(f.NumNodes)
	for _, algName := range []string{"min", "val", "ugal", "ugal-s", "clos"} {
		alg, err := routing.NewFlatFlyAlgorithm(algName, f)
		if err != nil {
			t.Fatal(err)
		}
		// At zero load every queue-backed decider (UGAL, UGAL-S, CLOS AD)
		// compares empty queues and goes minimal; only VAL detours.
		hops := f.AvgUniformMinHops()
		if algName == "val" {
			_, hops, err = analysis.LoadBound(f.Graph(), ur, analysis.Valiant)
			if err != nil {
				t.Fatal(err)
			}
		}
		m, err := routing.ZeroLoadFor(f.Graph(), cfg, hops)
		if err != nil {
			t.Fatal(err)
		}
		conform(t, "8-ary 2-flat "+alg.Name(), zeroLoad(t, f.Graph(), alg, cfg, ur), m)
	}

	b, err := topo.NewButterfly(8, 2) // 64 nodes
	if err != nil {
		t.Fatal(err)
	}
	m, err := routing.ZeroLoadFor(b.Graph(), cfg, b.AvgHops())
	if err != nil {
		t.Fatal(err)
	}
	conform(t, b.Name(), zeroLoad(t, b.Graph(), routing.NewButterflyDest(b), cfg,
		traffic.NewUniform(b.NumNodes)), m)

	fc, err := topo.NewFoldedClos(8, 4, 8, 2) // 64 nodes, 2:1 taper
	if err != nil {
		t.Fatal(err)
	}
	m, err = routing.ZeroLoadFor(fc.Graph(), cfg, fc.AvgUniformHops())
	if err != nil {
		t.Fatal(err)
	}
	conform(t, fc.Name(), zeroLoad(t, fc.Graph(), routing.NewFoldedClosAdaptive(fc), cfg,
		traffic.NewUniform(fc.NumNodes)), m)

	h, err := topo.NewHypercube(6) // 64 nodes
	if err != nil {
		t.Fatal(err)
	}
	m, err = routing.ZeroLoadFor(h.Graph(), cfg, h.AvgUniformHops())
	if err != nil {
		t.Fatal(err)
	}
	conform(t, h.Name(), zeroLoad(t, h.Graph(), routing.NewECube(h), cfg,
		traffic.NewUniform(h.NumNodes)), m)
}

// TestZeroLoadOracleTimingKnobs validates the model's per-hop pipeline
// and serialization terms: router delay is charged once per inter-router
// hop, and a multi-flit tail trails the head by PacketSize-1 cycles.
func TestZeroLoadOracleTimingKnobs(t *testing.T) {
	f, err := topo.NewFlatFly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	ur := traffic.NewUniform(f.NumNodes)

	cfg := sim.DefaultConfig()
	cfg.RouterDelay = 2
	m, err := routing.ZeroLoadFor(f.Graph(), cfg, f.AvgUniformMinHops())
	if err != nil {
		t.Fatal(err)
	}
	conform(t, "8-ary 2-flat MIN AD delay=2",
		zeroLoad(t, f.Graph(), routing.NewMinAD(f), cfg, ur), m)

	cfg = sim.DefaultConfig()
	cfg.PacketSize = 4
	m, err = routing.ZeroLoadFor(f.Graph(), cfg, f.AvgUniformMinHops())
	if err != nil {
		t.Fatal(err)
	}
	conform(t, "8-ary 2-flat MIN AD 4-flit",
		zeroLoad(t, f.Graph(), routing.NewMinAD(f), cfg, ur), m)
}

// satThroughput is sim.SaturationThroughput with the sanitizer armed:
// full offered load, accepted rate over the measurement window.
func satThroughput(t *testing.T, g *topo.Graph, alg sim.Algorithm, cfg sim.Config, p traffic.Pattern) float64 {
	t.Helper()
	rc := sim.RunConfig{
		Load: 1.0, Source: traffic.NewBernoulli(p),
		Warmup: 500, Measure: 1000,
		MaxCycles: 1501,
	}
	done := check.Arm(&rc.Attach, check.Config{})
	res, err := sim.RunLoadPoint(g, alg, cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := done(); err != nil {
		t.Fatalf("sanitizer tripped at saturation: %v", err)
	}
	return res.AcceptedRate
}

// inBand asserts got lies in [lo, hi] times the bound.
func inBand(t *testing.T, name string, got, bound, lo, hi float64) {
	t.Helper()
	if !(got >= lo*bound && got <= hi*bound) {
		t.Errorf("%s: %.4f, want within [%.2f, %.2f] x %.4f", name, got, lo, hi, bound)
	}
}

// loadBound is the internal/analysis channel-load bound's saturation.
func loadBound(t *testing.T, g *topo.Graph, p traffic.Pattern, rule analysis.Rule) float64 {
	t.Helper()
	sat, _, err := analysis.LoadBound(g, p, rule)
	if err != nil {
		t.Fatal(err)
	}
	return sat
}

// TestSaturationOracle holds sanitized saturation runs to the
// internal/analysis channel-load bound.
func TestSaturationOracle(t *testing.T) {
	cfg := sim.DefaultConfig()

	f, err := topo.NewFlatFly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	wc := traffic.NewWorstCase(8, 8)
	inBand(t, "FB WC MIN AD",
		satThroughput(t, f.Graph(), routing.NewMinAD(f), cfg, wc),
		loadBound(t, f.Graph(), wc, analysis.Minimal), 0.75, 1.25)
	inBand(t, "FB WC UGAL-S",
		satThroughput(t, f.Graph(), routing.NewUGALS(f), cfg, wc),
		loadBound(t, f.Graph(), wc, analysis.Valiant), 0.70, 1.05)

	b, err := topo.NewButterfly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	inBand(t, "butterfly WC",
		satThroughput(t, b.Graph(), routing.NewButterflyDest(b), cfg, wc),
		loadBound(t, b.Graph(), wc, analysis.Minimal), 0.75, 1.25)

	fc, err := topo.NewFoldedClos(8, 4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	ur := traffic.NewUniform(fc.NumNodes)
	inBand(t, "tapered Clos UR",
		satThroughput(t, fc.Graph(), routing.NewFoldedClosAdaptive(fc), cfg, ur),
		loadBound(t, fc.Graph(), ur, analysis.Minimal), 0.85, 1.15)
}
