package flatnet_test

import (
	"testing"

	"flatnet"
)

// TestFacadeQuickstart exercises the documented public-API path end to
// end: build the topology, run a load point, check the numbers.
func TestFacadeQuickstart(t *testing.T) {
	ff, err := flatnet.NewFlatFly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ff.NumNodes != 64 || ff.Radix != 15 {
		t.Fatalf("unexpected topology: %+v", ff)
	}
	alg := flatnet.NewClosAD(ff)
	res, err := flatnet.RunLoadPoint(ff.Graph(), alg, flatnet.DefaultConfig(), flatnet.RunConfig{
		Load:    0.4,
		Source:  flatnet.NewBernoulliSource(flatnet.NewUniform(ff.NumNodes)),
		Warmup:  400,
		Measure: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || res.AvgLatency <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.AcceptedRate < 0.35 || res.AcceptedRate > 0.45 {
		t.Fatalf("accepted rate %.3f, want ~0.4", res.AcceptedRate)
	}
}

// TestFacadeCostAndPower exercises the analytic models through the
// façade.
func TestFacadeCostAndPower(t *testing.T) {
	cm, pm, pk := flatnet.DefaultCostModel(), flatnet.DefaultPowerModel(), flatnet.DefaultPackaging()
	c, err := flatnet.CompareCost(4096, cm, pk)
	if err != nil {
		t.Fatal(err)
	}
	if c.SavingsVsClos() < 0.35 {
		t.Fatalf("4K cost savings %.2f, want > 0.35", c.SavingsVsClos())
	}
	p, err := flatnet.ComparePower(4096, pm, pk)
	if err != nil {
		t.Fatal(err)
	}
	if p.SavingsVsClos() < 0.35 {
		t.Fatalf("4K power savings %.2f, want > 0.35", p.SavingsVsClos())
	}
}

// TestFacadeScalingMath exercises the §5.1.2 helpers.
func TestFacadeScalingMath(t *testing.T) {
	np, kp, max, err := flatnet.FixedRadixConfig(64, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if np != 3 || kp != 61 || max != 65536 {
		t.Fatalf("FixedRadixConfig(64, 64K) = (%d, %d, %d)", np, kp, max)
	}
	if len(flatnet.ConfigsForN(4096)) != 5 {
		t.Fatal("Table 4 should list 5 configurations")
	}
	if flatnet.MaxNodesForRadix(64, 1) != 1024 {
		t.Fatal("radix-64 1-D network should scale to 1024")
	}
}

// TestFacadeTopologies builds each comparison topology through the
// façade and validates its graph.
func TestFacadeTopologies(t *testing.T) {
	ff, err := flatnet.NewFlatFly(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := flatnet.NewButterfly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := flatnet.TaperedClosForNodes(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := flatnet.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	gh, err := flatnet.NewGHC([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []flatnet.Topology{ff, bf, fc, hc, gh} {
		if err := topo.Graph().Validate(); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

// TestFacadeBatch exercises the batch harness.
func TestFacadeBatch(t *testing.T) {
	ff, err := flatnet.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := flatnet.NewFlatFlyAlgorithm("ugal-s", ff)
	if err != nil {
		t.Fatal(err)
	}
	res, err := flatnet.RunBatch(ff.Graph(), alg, flatnet.DefaultConfig(),
		flatnet.BatchConfig{Pattern: flatnet.NewWorstCase(4, 4), BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionCycles <= 0 {
		t.Fatal("batch did not run")
	}
}
