package routing

import (
	"testing"

	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

func ff(t *testing.T, k, n int) *topo.FlatFly {
	t.Helper()
	f, err := topo.NewFlatFly(k, n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// setPattern installs p on n under the Bernoulli arrival process, the
// paper's open-loop injection.
func setPattern(t *testing.T, n *sim.Network, p traffic.Pattern) {
	t.Helper()
	if err := n.SetSource(traffic.NewBernoulli(p)); err != nil {
		t.Fatal(err)
	}
}

// generate performs one cycle's arrivals on n at load.
func generate(t *testing.T, n *sim.Network, load float64) {
	t.Helper()
	if err := n.Generate(load); err != nil {
		t.Fatal(err)
	}
}

func allFFAlgs(f *topo.FlatFly) []sim.Algorithm {
	return []sim.Algorithm{
		NewMinAD(f), NewValiant(f), NewUGAL(f), NewUGALS(f), NewClosAD(f),
	}
}

func satThroughput(t *testing.T, f *topo.FlatFly, alg sim.Algorithm, p traffic.Pattern) float64 {
	t.Helper()
	thpt, err := sim.SaturationThroughput(f.Graph(), alg, sim.DefaultConfig(), p, 500, 1000)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return thpt
}

func TestAlgorithmMetadata(t *testing.T) {
	f := ff(t, 8, 2)
	cases := []struct {
		alg  sim.Algorithm
		name string
		vcs  int
		seq  bool
	}{
		{NewMinAD(f), "MIN AD", 1, false},
		{NewValiant(f), "VAL", 2, false},
		{NewUGAL(f), "UGAL", 2, false},
		{NewUGALS(f), "UGAL-S", 2, true},
		{NewClosAD(f), "CLOS AD", 2, true},
	}
	for _, c := range cases {
		if c.alg.Name() != c.name {
			t.Errorf("name = %q, want %q", c.alg.Name(), c.name)
		}
		if c.alg.NumVCs() != c.vcs {
			t.Errorf("%s NumVCs = %d, want %d", c.name, c.alg.NumVCs(), c.vcs)
		}
		if c.alg.Sequential() != c.seq {
			t.Errorf("%s Sequential = %v, want %v", c.name, c.alg.Sequential(), c.seq)
		}
	}
	// Multi-dimensional VC counts: MIN AD needs n' VCs, the UGAL family n'+1.
	f3 := ff(t, 4, 4) // n' = 3
	if NewMinAD(f3).NumVCs() != 3 {
		t.Error("MIN AD on 3 dims should use 3 VCs")
	}
	if NewUGALS(f3).NumVCs() != 4 || NewClosAD(f3).NumVCs() != 4 {
		t.Error("UGAL-S/CLOS AD on 3 dims should use 4 VCs")
	}
}

func TestNewFlatFlyAlgorithm(t *testing.T) {
	f := ff(t, 4, 2)
	for _, name := range []string{"min", "val", "ugal", "ugal-s", "clos"} {
		if _, err := NewFlatFlyAlgorithm(name, f); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := NewFlatFlyAlgorithm("bogus", f); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

// Fig 4(a) in miniature: on uniform random traffic all algorithms except
// VAL sustain ~100% of capacity; VAL is capped near 50%.
func TestFig4aUniformThroughput(t *testing.T) {
	f := ff(t, 8, 2)
	ur := traffic.NewUniform(f.NumNodes)
	for _, alg := range allFFAlgs(f) {
		thpt := satThroughput(t, f, alg, ur)
		switch alg.Name() {
		case "VAL":
			// VAL's two phases double channel load: cap near (k-1)/2k.
			if thpt < 0.30 || thpt > 0.60 {
				t.Errorf("VAL UR throughput = %.3f, want ~0.44", thpt)
			}
		default:
			if thpt < 0.90 {
				t.Errorf("%s UR throughput = %.3f, want ~1.0", alg.Name(), thpt)
			}
		}
	}
}

// Fig 4(b) in miniature: on the worst-case pattern minimal routing is
// limited to ~1/k while all non-minimal algorithms reach ~(k-1)/2k.
func TestFig4bWorstCaseThroughput(t *testing.T) {
	f := ff(t, 8, 2)
	wc := traffic.NewWorstCase(f.K, f.NumRouters)
	minAD := satThroughput(t, f, NewMinAD(f), wc)
	if minAD < 0.08 || minAD > 0.18 {
		t.Errorf("MIN AD WC throughput = %.3f, want ~1/8", minAD)
	}
	for _, alg := range []sim.Algorithm{NewValiant(f), NewUGAL(f), NewUGALS(f), NewClosAD(f)} {
		thpt := satThroughput(t, f, alg, wc)
		if thpt < 0.30 {
			t.Errorf("%s WC throughput = %.3f, want >= 0.30 (~(k-1)/2k)", alg.Name(), thpt)
		}
		if thpt < 2.2*minAD {
			t.Errorf("%s WC throughput %.3f not clearly above minimal %.3f", alg.Name(), thpt, minAD)
		}
	}
}

// All algorithms must deliver at low load with sane latency (no deadlock,
// no misrouting), on 1-D and multi-D networks.
func TestLowLoadLatencyAllAlgorithms(t *testing.T) {
	for _, cfg := range []struct{ k, n int }{{8, 2}, {4, 3}} {
		f := ff(t, cfg.k, cfg.n)
		for _, alg := range allFFAlgs(f) {
			res, err := sim.RunLoadPoint(f.Graph(), alg, sim.DefaultConfig(), sim.RunConfig{
				Load:    0.1,
				Source:  traffic.NewBernoulli(traffic.NewUniform(f.NumNodes)),
				Warmup:  400,
				Measure: 400,
			})
			if err != nil {
				t.Fatalf("%s on %s: %v", alg.Name(), f.Name(), err)
			}
			if res.Saturated {
				t.Errorf("%s on %s saturated at 10%% load", alg.Name(), f.Name())
				continue
			}
			if res.MeasuredDelivered != res.MeasuredCreated {
				t.Errorf("%s on %s: lost packets (%d/%d)", alg.Name(), f.Name(),
					res.MeasuredDelivered, res.MeasuredCreated)
			}
			if res.AvgLatency <= 0 || res.AvgLatency > 30 {
				t.Errorf("%s on %s: implausible latency %.2f", alg.Name(), f.Name(), res.AvgLatency)
			}
		}
	}
}

// Hop-count invariants (§2.2, §3.1): minimal routes take exactly the
// number of differing digits; VAL at most hops(s,b)+hops(b,d) <= 2n';
// CLOS AD at most 2x the differing dimensions (never worse than the
// equivalent folded Clos round trip).
func TestHopInvariants(t *testing.T) {
	f := ff(t, 4, 3) // 2 dims
	cases := []struct {
		alg     sim.Algorithm
		maxHops int
	}{
		{NewMinAD(f), f.Dims},
		{NewValiant(f), 2 * f.Dims},
		{NewUGAL(f), 2 * f.Dims},
		{NewUGALS(f), 2 * f.Dims},
		{NewClosAD(f), 2 * f.Dims},
	}
	for _, c := range cases {
		n, err := sim.New(f.Graph(), c.alg, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		setPattern(t, n, traffic.NewUniform(f.NumNodes))
		bad := 0
		var badHops, badMin int
		n.AttachHooks(&sim.Hooks{Deliver: func(p *sim.Packet, _ int64) {
			min := f.MinHops(f.RouterOf(p.Src), f.RouterOf(p.Dst))
			if p.Hops < min || p.Hops > c.maxHops {
				bad++
				badHops, badMin = p.Hops, min
			}
			if c.alg.Name() == "MIN AD" && p.Hops != min {
				bad++
				badHops, badMin = p.Hops, min
			}
		}})
		for i := 0; i < 600; i++ {
			generate(t, n, 0.3)
			n.Step()
		}
		if bad > 0 {
			t.Errorf("%s: %d packets violated hop bounds (e.g. hops=%d min=%d max=%d)",
				c.alg.Name(), bad, badHops, badMin, c.maxHops)
		}
		if _, delivered := n.Totals(); delivered == 0 {
			t.Errorf("%s: nothing delivered", c.alg.Name())
		}
	}
}

// Fig 5 in miniature: on small worst-case batches, greedy UGAL suffers
// transient load imbalance (all inputs pick the minimal queue before the
// state updates) and CLOS AD's adaptive intermediate choice performs best.
func TestFig5BatchTransients(t *testing.T) {
	f := ff(t, 8, 2)
	wc := traffic.NewWorstCase(f.K, f.NumRouters)
	norm := func(alg sim.Algorithm, batch int) float64 {
		res, err := sim.RunBatch(f.Graph(), alg, sim.DefaultConfig(),
			sim.BatchConfig{Pattern: wc, BatchSize: batch, MaxCycles: 100000})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		return res.NormalizedLatency
	}
	const batch = 2
	ugal := norm(NewUGAL(f), batch)
	ugalS := norm(NewUGALS(f), batch)
	closAD := norm(NewClosAD(f), batch)
	if ugal <= ugalS {
		t.Errorf("greedy UGAL (%.2f) should be worse than UGAL-S (%.2f) on small batches", ugal, ugalS)
	}
	if closAD > ugalS {
		t.Errorf("CLOS AD (%.2f) should be no worse than UGAL-S (%.2f) on small batches", closAD, ugalS)
	}
	// Large batches approach the inverse throughput for all non-minimal
	// algorithms: the gap must shrink.
	bigUGAL := norm(NewUGAL(f), 64)
	bigClos := norm(NewClosAD(f), 64)
	if bigUGAL/bigClos > ugal/closAD {
		t.Errorf("normalized-latency gap should shrink with batch size: small %.2f/%.2f, big %.2f/%.2f",
			ugal, closAD, bigUGAL, bigClos)
	}
}

// UGAL must route minimally on benign traffic at low load (§3.1): average
// hop count should match minimal routing, not Valiant's doubled hops.
func TestUGALRoutesMinimallyAtLowLoad(t *testing.T) {
	f := ff(t, 8, 2)
	for _, alg := range []sim.Algorithm{NewUGAL(f), NewUGALS(f), NewClosAD(f)} {
		res, err := sim.RunLoadPoint(f.Graph(), alg, sim.DefaultConfig(), sim.RunConfig{
			Load:    0.1,
			Source:  traffic.NewBernoulli(traffic.NewUniform(f.NumNodes)),
			Warmup:  400,
			Measure: 400,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Minimal average inter-router hops for 1-D uniform-with-self is
		// P(remote router) = 56/64 = 0.875 for the 8-ary 2-flat; transient
		// queue blips cause occasional misroutes, so allow a small margin.
		if res.AvgHops > 1.1 {
			t.Errorf("%s avg hops at low load = %.3f, want ~0.875 (minimal)", alg.Name(), res.AvgHops)
		}
	}
	// VAL by contrast misroutes everything.
	res, err := sim.RunLoadPoint(f.Graph(), NewValiant(f), sim.DefaultConfig(), sim.RunConfig{
		Load:    0.1,
		Source:  traffic.NewBernoulli(traffic.NewUniform(f.NumNodes)),
		Warmup:  400,
		Measure: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgHops < 1.2 {
		t.Errorf("VAL avg hops = %.3f, want ~1.75 (two random phases)", res.AvgHops)
	}
}

// On the worst-case pattern at high load, the adaptive algorithms must
// switch to non-minimal routing: average hops approach 2.
func TestAdaptiveSwitchesToNonMinimalOnWC(t *testing.T) {
	f := ff(t, 8, 2)
	wc := traffic.NewWorstCase(f.K, f.NumRouters)
	for _, alg := range []sim.Algorithm{NewUGALS(f), NewClosAD(f)} {
		res, err := sim.RunLoadPoint(f.Graph(), alg, sim.DefaultConfig(), sim.RunConfig{
			Load:    0.30,
			Source:  traffic.NewBernoulli(wc),
			Warmup:  500,
			Measure: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Saturated {
			t.Errorf("%s saturated at 30%% WC load", alg.Name())
		}
		if res.AvgHops < 1.3 {
			t.Errorf("%s avg hops on WC at load 0.3 = %.3f, want > 1.3 (mostly non-minimal)",
				alg.Name(), res.AvgHops)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	f := ff(t, 4, 2)
	wc := traffic.NewWorstCase(f.K, f.NumRouters)
	for _, mk := range []func(*topo.FlatFly) sim.Algorithm{
		func(f *topo.FlatFly) sim.Algorithm { return NewUGAL(f) },
		func(f *topo.FlatFly) sim.Algorithm { return NewClosAD(f) },
	} {
		r1, err := sim.RunBatch(f.Graph(), mk(f), sim.DefaultConfig(),
			sim.BatchConfig{Pattern: wc, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := sim.RunBatch(f.Graph(), mk(f), sim.DefaultConfig(),
			sim.BatchConfig{Pattern: wc, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		if r1.CompletionCycles != r2.CompletionCycles {
			t.Errorf("batch completion not deterministic: %d vs %d", r1.CompletionCycles, r2.CompletionCycles)
		}
	}
}

// Multiplicity variant (Fig 14a): doubled channels should roughly double
// worst-case minimal throughput (2/k instead of 1/k).
func TestMultiplicityDoublesWCThroughput(t *testing.T) {
	f1 := ff(t, 8, 2)
	f2, err := topo.NewFlatFly(8, 2, topo.WithMultiplicity(2))
	if err != nil {
		t.Fatal(err)
	}
	wc := traffic.NewWorstCase(8, 8)
	t1 := satThroughput(t, f1, NewMinAD(f1), wc)
	thpt2, err := sim.SaturationThroughput(f2.Graph(), NewMinAD(f2), sim.DefaultConfig(), wc, 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if thpt2 < 1.6*t1 {
		t.Errorf("doubled channels: throughput %.3f vs %.3f, want ~2x", thpt2, t1)
	}
}

func TestMinPickerUniformTieBreak(t *testing.T) {
	f := ff(t, 4, 2)
	n, err := sim.New(f.Graph(), NewMinAD(f), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_ = n
	// Exercised implicitly by the simulations above; here just check the
	// picker's bookkeeping via a tiny fake view is not needed — the
	// uniform WC spread in TestFig4b depends on it.
	_ = topo.RouterID(0)
}
