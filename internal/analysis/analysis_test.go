// The tests in this package validate the cycle-accurate simulator against
// the closed-form channel-load models: each measured saturation
// throughput must land within a tolerance band of its analytic value.
package analysis

import (
	"math"
	"testing"

	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// within asserts measured is within frac of predicted.
func within(t *testing.T, name string, measured, predicted, frac float64) {
	t.Helper()
	if predicted == 0 {
		t.Fatalf("%s: zero prediction", name)
	}
	if math.Abs(measured-predicted)/predicted > frac {
		t.Errorf("%s: measured %.3f vs predicted %.3f (tolerance %.0f%%)",
			name, measured, predicted, frac*100)
	}
}

func TestFormulaValues(t *testing.T) {
	if FlatFlyWCMinimal(32) != 1.0/32 {
		t.Error("FlatFlyWCMinimal")
	}
	if FlatFlyWCNonMinimal(32) != 31.0/64 {
		t.Error("FlatFlyWCNonMinimal")
	}
	if FlatFlyURCapacity() != 1 || ValiantURThroughput(32) != 0.5 {
		t.Error("capacity constants")
	}
	if FoldedClosURThroughput(32, 16, 1024) >= 0.53 || FoldedClosURThroughput(32, 16, 1024) <= 0.49 {
		t.Errorf("tapered Clos UR = %v, want ~0.516", FoldedClosURThroughput(32, 16, 1024))
	}
	if FoldedClosURThroughput(8, 8, 64) != 1 {
		t.Error("non-blocking Clos should cap at 1")
	}
	if ButterflyWCThroughput(8) != 0.125 {
		t.Error("ButterflyWC")
	}
	if TorusTornadoThroughput(8) != 0.25 {
		t.Error("TorusTornado")
	}
	if ConcentratedHypercubeWCThroughput(8) != 0.125 {
		t.Error("ConcentratedHypercubeWC")
	}
	if CreditLimitedChannelRate(64, 1, 1) != 1 {
		t.Error("deep buffers should not be credit-limited")
	}
	if got := CreditLimitedChannelRate(4, 8, 8); math.Abs(got-4.0/17) > 1e-12 {
		t.Errorf("CreditLimitedChannelRate = %v, want 4/17", got)
	}
}

func TestSimulatorMatchesFlatFlyModels(t *testing.T) {
	f, err := topo.NewFlatFly(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	wc := traffic.NewWorstCase(f.K, f.NumRouters)
	ur := traffic.NewUniform(f.NumNodes)

	min, err := sim.SaturationThroughput(f.Graph(), routing.NewMinAD(f), cfg, wc, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "FB WC minimal", min, FlatFlyWCMinimal(16), 0.25)

	clos, err := sim.SaturationThroughput(f.Graph(), routing.NewClosAD(f), cfg, wc, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "FB WC CLOS AD", clos, FlatFlyWCNonMinimal(16), 0.15)

	val, err := sim.SaturationThroughput(f.Graph(), routing.NewValiant(f), cfg, ur, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "FB UR VAL", val, ValiantURThroughput(16), 0.15)

	urSat, err := sim.SaturationThroughput(f.Graph(), routing.NewMinAD(f), cfg, ur, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	// Saturation measurement at exactly the critical load loses a few
	// percent to finite buffers; allow 10%.
	within(t, "FB UR capacity", urSat, FlatFlyURCapacity(), 0.10)
}

func TestSimulatorMatchesClosModel(t *testing.T) {
	fc, err := topo.NewFoldedClos(16, 8, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	ur := traffic.NewUniform(fc.NumNodes)
	sat, err := sim.SaturationThroughput(fc.Graph(), routing.NewFoldedClosAdaptive(fc), sim.DefaultConfig(), ur, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "tapered Clos UR", sat, FoldedClosURThroughput(16, 8, 256), 0.12)
}

func TestSimulatorMatchesButterflyModel(t *testing.T) {
	b, err := topo.NewButterfly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	wc := traffic.NewWorstCase(8, 8)
	sat, err := sim.SaturationThroughput(b.Graph(), routing.NewButterflyDest(b), sim.DefaultConfig(), wc, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "butterfly WC", sat, ButterflyWCThroughput(8), 0.20)
}

func TestSimulatorMatchesTornadoModel(t *testing.T) {
	tor, err := topo.NewTorus(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Measure just below the predicted saturation point with age
	// arbitration (round-robin suffers post-saturation instability).
	cfg := sim.DefaultConfig()
	cfg.AgeArbiter = true
	sat, err := sim.SaturationThroughput(tor.Graph(), routing.NewTorusDOR(tor), cfg,
		traffic.NewTornado(1, 8), 1500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "torus tornado", sat, TorusTornadoThroughput(8), 0.20)
}

func TestSimulatorMatchesConcentratedHypercubeModel(t *testing.T) {
	h, err := topo.NewConcentratedHypercube(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	wc := traffic.NewWorstCase(8, 16)
	sat, err := sim.SaturationThroughput(h.Graph(), routing.NewECube(h), sim.DefaultConfig(), wc, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent router groups differ in one bit for even groups and more
	// for odd ones, so the achieved rate sits between 1/c and 2/c.
	pred := ConcentratedHypercubeWCThroughput(8)
	if sat < pred*0.8 || sat > pred*2.6 {
		t.Errorf("concentrated hypercube WC = %.3f, want within [0.8x, 2.6x] of %.3f", sat, pred)
	}
}

func TestSimulatorMatchesCreditModel(t *testing.T) {
	// A single saturated stream across one 8-cycle channel with 4 credits
	// sustains ~4/17 of the channel.
	f, err := topo.NewFlatFly(4, 2, topo.WithChannelLatency(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Seed: 1, BufPerPort: 4}
	tab := make([]topo.NodeID, 16)
	for i := range tab {
		tab[i] = topo.NodeID(i)
	}
	tab[0] = 4
	n, err := sim.New(f.Graph(), routing.NewMinAD(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetSource(traffic.NewBernoulli(traffic.NewFixed("stream", tab))); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	n.AttachHooks(&sim.Hooks{Deliver: func(p *sim.Packet, _ int64) {
		if p.Src == 0 {
			delivered++
		}
	}})
	if err := n.InjectAt(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := n.InjectAt(0, n.Cycle(), 4); err != nil {
			t.Fatal(err)
		}
		n.Step()
	}
	rate := float64(delivered) / 3000
	within(t, "credit-limited stream", rate, CreditLimitedChannelRate(4, 8, 8), 0.15)
}
