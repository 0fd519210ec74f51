package routing

import (
	"testing"

	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

func TestTorusDORDelivers(t *testing.T) {
	tor, err := topo.NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewTorusDOR(tor)
	if alg.NumVCs() != 2 || alg.Sequential() {
		t.Fatal("torus DOR metadata wrong")
	}
	n, err := sim.New(tor.Graph(), alg, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	setPattern(t, n, traffic.NewUniform(tor.NumNodes))
	bad := 0
	n.AttachHooks(&sim.Hooks{Deliver: func(p *sim.Packet, _ int64) {
		if p.Hops != tor.MinHops(topo.RouterID(p.Src), topo.RouterID(p.Dst)) {
			bad++
		}
	}})
	for i := 0; i < 600; i++ {
		generate(t, n, 0.2)
		n.Step()
	}
	if _, d := n.Totals(); d == 0 {
		t.Fatal("nothing delivered")
	}
	if bad != 0 {
		t.Fatalf("%d packets took non-minimal torus routes", bad)
	}
}

func TestTorusDORThroughputUR(t *testing.T) {
	// A k-ary n-cube with unit channels: uniform traffic saturates near
	// 4k... the classic result is throughput = 8/k of capacity relative
	// to its own bisection; with our per-node normalization the 4-ary
	// 2-cube sustains roughly half of injection bandwidth (avg hop count
	// 2 over 4 channels/router).
	tor, err := topo.NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	thpt, err := sim.SaturationThroughput(tor.Graph(), NewTorusDOR(tor), sim.DefaultConfig(),
		traffic.NewUniform(tor.NumNodes), 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	// Theoretical channel-limited rate: 4 channels per router, average
	// minimal hop distance 2 -> lambda_max = 4/2 = 2 flits/node/cycle,
	// but ejection caps at 1. DOR's dimension imbalance costs some of
	// that; anything above 0.7 indicates healthy routing.
	if thpt < 0.7 {
		t.Fatalf("torus UR throughput = %.3f, want > 0.7", thpt)
	}
}

func TestTorusDORTornado(t *testing.T) {
	// Tornado traffic halfway around the ring is the classic torus
	// adversary for minimal routing: each dim-0 ring carries k/2-hop
	// flows in one direction... with k=8, each node sends 4 hops
	// forward; minimal DOR loads one direction only, capping throughput
	// at 1/2 of the ring's aggregate in that direction: ~2x worse than
	// uniform. This motivates the non-minimal routing the paper applies
	// to the flattened butterfly (§6 cites GOAL/Valiant on tori).
	tor, err := topo.NewTorus(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	tornado := traffic.NewTornado(1, 8)
	// Each node sends k/2 = 4 hops clockwise; the plus-direction channels
	// carry 4 flows each at unit channel rate, so the network sustains
	// ~1/4 — verified just below the saturation point. (Offered loads far
	// beyond saturation exhibit the post-saturation throughput
	// degradation documented for tornado on tori with locally-fair
	// arbitration — the instability GOAL-style routing addresses.)
	res, err := sim.RunLoadPoint(tor.Graph(), NewTorusDOR(tor), sim.DefaultConfig(), sim.RunConfig{
		Load: 0.22, Source: traffic.NewBernoulli(tornado), Warmup: 1500, Measure: 1500, MaxCycles: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptedRate < 0.19 || res.AcceptedRate > 0.26 {
		t.Fatalf("torus tornado accepted rate at 0.22 offered = %.3f, want ~0.22", res.AcceptedRate)
	}
	over, err := sim.RunLoadPoint(tor.Graph(), NewTorusDOR(tor), sim.DefaultConfig(), sim.RunConfig{
		Load: 0.35, Source: traffic.NewBernoulli(tornado), Warmup: 1500, Measure: 1500, MaxCycles: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !over.Saturated && over.AcceptedRate > 0.30 {
		t.Fatalf("offered 0.35 should exceed tornado capacity (~0.25), accepted %.3f", over.AcceptedRate)
	}
}

func TestTorusVsFlatFlyLatency(t *testing.T) {
	// §1 in numbers: at 64 nodes, the torus pays its diameter; the
	// flattened butterfly is a (near-)single-hop network.
	tor, err := topo.NewTorus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := ff(t, 8, 2)
	resT, err := sim.RunLoadPoint(tor.Graph(), NewTorusDOR(tor), sim.DefaultConfig(), sim.RunConfig{
		Load: 0.1, Source: traffic.NewBernoulli(traffic.NewUniform(64)), Warmup: 400, Measure: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	resF, err := sim.RunLoadPoint(f.Graph(), NewMinAD(f), sim.DefaultConfig(), sim.RunConfig{
		Load: 0.1, Source: traffic.NewBernoulli(traffic.NewUniform(64)), Warmup: 400, Measure: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resT.AvgLatency < 1.5*resF.AvgLatency {
		t.Fatalf("torus latency %.2f should be well above flattened butterfly %.2f",
			resT.AvgLatency, resF.AvgLatency)
	}
	if resT.AvgHops < 2.0 {
		t.Fatalf("torus average hops %.2f implausibly low", resT.AvgHops)
	}
}

func TestTorusDatelineDeadlockFreedom(t *testing.T) {
	// Saturate a single ring, where the wrap-around dependency would
	// deadlock without the dateline VC switch, and verify sustained
	// delivery.
	tor, err := topo.NewTorus(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.New(tor.Graph(), NewTorusDOR(tor), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	setPattern(t, n, traffic.NewUniform(8))
	var lastDelivered int64
	for phase := 0; phase < 10; phase++ {
		for i := 0; i < 300; i++ {
			generate(t, n, 1.0)
			n.Step()
		}
		_, d := n.Totals()
		if d == lastDelivered {
			t.Fatalf("no progress in phase %d: deadlock suspected at %d delivered", phase, d)
		}
		lastDelivered = d
	}
}

func TestAgeArbitrationStabilizesTornadoOverload(t *testing.T) {
	// Round-robin arbitration collapses under deep overload on the
	// tornado ring (locally fair, globally unfair); age-based arbitration
	// recovers most of the sustainable ~1/4 rate.
	tor, err := topo.NewTorus(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	tornado := traffic.NewTornado(1, 8)
	rrCfg := sim.DefaultConfig()
	rr, err := sim.SaturationThroughput(tor.Graph(), NewTorusDOR(tor), rrCfg, tornado, 1500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	ageCfg := sim.DefaultConfig()
	ageCfg.AgeArbiter = true
	age, err := sim.SaturationThroughput(tor.Graph(), NewTorusDOR(tor), ageCfg, tornado, 1500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if age <= rr {
		t.Errorf("age arbitration (%.3f) should beat round-robin (%.3f) at overload", age, rr)
	}
	if age < 0.20 {
		t.Errorf("age arbitration overload throughput = %.3f, want close to 0.25", age)
	}
}
