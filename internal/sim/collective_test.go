package sim_test

import (
	"testing"

	"flatnet/internal/sim"
	"flatnet/internal/traffic"
)

func TestRunCollectiveAllToAll(t *testing.T) {
	ff, newAlg := traceFF(t)
	res, err := sim.RunCollective(ff.Graph(), newAlg(), sim.DefaultConfig(),
		sim.CollectiveConfig{Kind: sim.CollectiveAllToAll})
	if err != nil {
		t.Fatal(err)
	}
	n := ff.Graph().NumNodes
	if res.Phases != n-1 {
		t.Errorf("phases = %d, want %d", res.Phases, n-1)
	}
	if res.Transfers != n*(n-1) {
		t.Errorf("transfers = %d, want %d", res.Transfers, n*(n-1))
	}
	if res.Packets != int64(n*(n-1)) {
		t.Errorf("packets = %d, want %d", res.Packets, n*(n-1))
	}
	if res.Cycles <= 0 || res.MaxPhaseCycles <= 0 || res.AvgPhaseCycles <= 0 {
		t.Errorf("degenerate completion: %+v", res)
	}
	if res.MaxPhaseCycles > res.Cycles {
		t.Errorf("max phase %d above total %d", res.MaxPhaseCycles, res.Cycles)
	}
}

func TestRunCollectiveAllReduce(t *testing.T) {
	ff, newAlg := traceFF(t)
	res, err := sim.RunCollective(ff.Graph(), newAlg(), sim.DefaultConfig(),
		sim.CollectiveConfig{Kind: sim.CollectiveAllReduce, Packets: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := ff.Graph().NumNodes
	if res.Phases != 2*(n-1) {
		t.Errorf("phases = %d, want %d", res.Phases, 2*(n-1))
	}
	if res.Packets != int64(2*(n-1)*n*2) {
		t.Errorf("packets = %d, want %d", res.Packets, 2*(n-1)*n*2)
	}
}

// TestRunCollectiveDeterminism pins bit-identical completion across
// repeated runs.
func TestRunCollectiveDeterminism(t *testing.T) {
	ff, newAlg := traceFF(t)
	cc := sim.CollectiveConfig{
		Kind: sim.CollectiveAllToAll, Packets: 2,
		Source: traffic.NewBernoulli(traffic.NewUniform(ff.Graph().NumNodes)), Load: 0.1, Warmup: 200,
	}
	base, err := sim.RunCollective(ff.Graph(), newAlg(), sim.DefaultConfig(), cc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunCollective(ff.Graph(), newAlg(), sim.DefaultConfig(), cc)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Fatalf("repeated run diverged: %+v vs %+v", got, base)
	}
}

// TestRunCollectiveBackground checks contention: the same collective
// under heavy background traffic takes longer than on a quiet network.
func TestRunCollectiveBackground(t *testing.T) {
	ff, newAlg := traceFF(t)
	quiet, err := sim.RunCollective(ff.Graph(), newAlg(), sim.DefaultConfig(),
		sim.CollectiveConfig{Kind: sim.CollectiveAllReduce})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := sim.RunCollective(ff.Graph(), newAlg(), sim.DefaultConfig(),
		sim.CollectiveConfig{
			Kind:   sim.CollectiveAllReduce,
			Source: traffic.NewBernoulli(traffic.NewUniform(ff.Graph().NumNodes)), Load: 0.4, Warmup: 300,
		})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cycles <= quiet.Cycles {
		t.Errorf("loaded collective (%d cycles) should exceed quiet (%d cycles)",
			loaded.Cycles, quiet.Cycles)
	}
}

func TestRunCollectiveRejects(t *testing.T) {
	ff, newAlg := traceFF(t)
	cfg := sim.DefaultConfig()
	if _, err := sim.RunCollective(ff.Graph(), newAlg(), cfg,
		sim.CollectiveConfig{Kind: "broadcast"}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := sim.RunCollective(ff.Graph(), newAlg(), cfg,
		sim.CollectiveConfig{Kind: sim.CollectiveAllToAll, Load: 0.2}); err == nil {
		t.Error("background load without a source accepted")
	}
	// A too-small budget is a saturation error, not a hang.
	if _, err := sim.RunCollective(ff.Graph(), newAlg(), cfg,
		sim.CollectiveConfig{Kind: sim.CollectiveAllToAll, MaxCycles: 3}); err == nil {
		t.Error("impossible cycle budget accepted")
	}
}
