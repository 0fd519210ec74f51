package routing

import (
	"testing"

	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

func TestButterflyUniformThroughput(t *testing.T) {
	b, err := topo.NewButterfly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	thpt, err := sim.SaturationThroughput(b.Graph(), NewButterflyDest(b), sim.DefaultConfig(),
		traffic.NewUniform(b.NumNodes), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if thpt < 0.9 {
		t.Errorf("butterfly UR throughput = %.3f, want ~1.0", thpt)
	}
}

func TestButterflyWorstCaseCollapse(t *testing.T) {
	// Fig 6(b): the conventional butterfly has no path diversity, so the
	// worst-case pattern is limited to ~1/k of capacity.
	b, err := topo.NewButterfly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	thpt, err := sim.SaturationThroughput(b.Graph(), NewButterflyDest(b), sim.DefaultConfig(),
		traffic.NewWorstCase(8, 8), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if thpt < 0.08 || thpt > 0.18 {
		t.Errorf("butterfly WC throughput = %.3f, want ~1/8", thpt)
	}
}

func TestButterflyDelivery(t *testing.T) {
	b, err := topo.NewButterfly(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewButterflyDest(b)
	if alg.NumVCs() != 1 || alg.Sequential() {
		t.Fatal("butterfly routing metadata wrong")
	}
	n, err := sim.New(b.Graph(), alg, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	setPattern(t, n, traffic.NewUniform(b.NumNodes))
	wrong := 0
	n.AttachHooks(&sim.Hooks{Deliver: func(p *sim.Packet, _ int64) {
		if p.Hops != b.N-1 {
			wrong++
		}
	}})
	for i := 0; i < 400; i++ {
		generate(t, n, 0.3)
		n.Step()
	}
	if _, d := n.Totals(); d == 0 {
		t.Fatal("nothing delivered")
	}
	if wrong != 0 {
		t.Errorf("%d packets took the wrong number of stages", wrong)
	}
}

func TestFoldedClosTaperedUniform(t *testing.T) {
	// Fig 6(a): with bisection held equal (2:1 taper) the folded Clos
	// achieves only ~50% on uniform random traffic.
	f, err := topo.NewFoldedClos(8, 4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	thpt, err := sim.SaturationThroughput(f.Graph(), NewFoldedClosAdaptive(f), sim.DefaultConfig(),
		traffic.NewUniform(f.NumNodes), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if thpt < 0.40 || thpt > 0.62 {
		t.Errorf("tapered Clos UR throughput = %.3f, want ~0.5", thpt)
	}
}

func TestFoldedClosWorstCase(t *testing.T) {
	// Fig 6(b): the folded Clos load-balances the worst-case pattern
	// through its middle stage, sustaining ~50%.
	f, err := topo.NewFoldedClos(8, 4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	thpt, err := sim.SaturationThroughput(f.Graph(), NewFoldedClosAdaptive(f), sim.DefaultConfig(),
		traffic.NewWorstCase(8, 8), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if thpt < 0.40 || thpt > 0.62 {
		t.Errorf("tapered Clos WC throughput = %.3f, want ~0.5", thpt)
	}
}

func TestFoldedClosNonBlockingUniform(t *testing.T) {
	// Without taper (uplinks == terminals) the folded Clos is
	// non-blocking: ~100% on uniform traffic.
	f, err := topo.NewFoldedClos(8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	thpt, err := sim.SaturationThroughput(f.Graph(), NewFoldedClosAdaptive(f), sim.DefaultConfig(),
		traffic.NewUniform(f.NumNodes), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if thpt < 0.90 {
		t.Errorf("non-blocking Clos UR throughput = %.3f, want ~1.0", thpt)
	}
}

func TestFoldedClosHopCounts(t *testing.T) {
	f, err := topo.NewFoldedClos(4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewFoldedClosAdaptive(f)
	if !alg.Sequential() || alg.NumVCs() != 1 {
		t.Fatal("folded Clos routing metadata wrong")
	}
	n, err := sim.New(f.Graph(), alg, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	setPattern(t, n, traffic.NewUniform(f.NumNodes))
	bad := 0
	n.AttachHooks(&sim.Hooks{Deliver: func(p *sim.Packet, _ int64) {
		sameLeaf := f.LeafOf(p.Src) == f.LeafOf(p.Dst)
		if sameLeaf && p.Hops != 0 {
			bad++
		}
		if !sameLeaf && p.Hops != 2 {
			bad++
		}
	}})
	for i := 0; i < 400; i++ {
		generate(t, n, 0.3)
		n.Step()
	}
	if bad != 0 {
		t.Errorf("%d packets with wrong hop counts", bad)
	}
}

func TestECubeHypercube(t *testing.T) {
	h, err := topo.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewECube(h)
	if alg.NumVCs() != 1 || alg.Sequential() {
		t.Fatal("e-cube metadata wrong")
	}
	thpt, err := sim.SaturationThroughput(h.Graph(), alg, sim.DefaultConfig(),
		traffic.NewUniform(h.NumNodes), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if thpt < 0.9 {
		t.Errorf("hypercube UR throughput = %.3f, want ~1.0", thpt)
	}
}

func TestECubeHopsAreHammingDistance(t *testing.T) {
	h, err := topo.NewHypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.New(h.Graph(), NewECube(h), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	setPattern(t, n, traffic.NewUniform(h.NumNodes))
	bad := 0
	n.AttachHooks(&sim.Hooks{Deliver: func(p *sim.Packet, _ int64) {
		if p.Hops != h.MinHops(topo.RouterID(p.Src), topo.RouterID(p.Dst)) {
			bad++
		}
	}})
	for i := 0; i < 400; i++ {
		generate(t, n, 0.2)
		n.Step()
	}
	if bad != 0 {
		t.Errorf("%d packets with hops != Hamming distance", bad)
	}
	if _, d := n.Totals(); d == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestHypercubeHigherLatencyThanFlatFly(t *testing.T) {
	// Fig 6(a): the hypercube's diameter makes its zero-load latency much
	// higher than the flattened butterfly's.
	h, err := topo.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	f := ff(t, 8, 2)
	resH, err := sim.RunLoadPoint(h.Graph(), NewECube(h), sim.DefaultConfig(), sim.RunConfig{
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
	if resH.AvgLatency < 1.5*resF.AvgLatency {
		t.Errorf("hypercube latency %.2f should be well above flattened butterfly %.2f",
			resH.AvgLatency, resF.AvgLatency)
	}
}

func TestGHCMinAdaptive(t *testing.T) {
	g, err := topo.NewGHC([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	alg := NewGHCMinAdaptive(g)
	if alg.NumVCs() != 2 {
		t.Fatal("GHC VCs should equal dimension count")
	}
	thpt, err := sim.SaturationThroughput(g.Graph(), alg, sim.DefaultConfig(),
		traffic.NewUniform(g.NumNodes), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if thpt < 0.85 {
		t.Errorf("GHC UR throughput = %.3f, want ~1.0", thpt)
	}
}

func TestGHCAdversarialBottleneck(t *testing.T) {
	// §2.3: a GHC with minimal routing cannot load-balance adversarial
	// traffic. Send every router's node to the next coordinate in
	// dimension 0 via a fixed permutation that overloads single channels:
	// tornado over the dim-0 groups.
	g, err := topo.NewGHC([]int{8, 4})
	if err != nil {
		t.Fatal(err)
	}
	// All nodes sharing a dim-1 digit form a "row" of 8 routers; send
	// node i to the router 4 ahead in dimension 0 (same row): a tornado
	// within the complete graph of the row that minimal routing maps onto
	// one channel per source.
	tab := make([]topo.NodeID, g.NumNodes)
	for i := range tab {
		d0 := i % 8
		tab[i] = topo.NodeID((i - d0) + (d0+4)%8)
	}
	thpt, err := sim.SaturationThroughput(g.Graph(), NewGHCMinAdaptive(g), sim.DefaultConfig(),
		traffic.NewFixed("ghc-tornado", tab), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Each source-destination pair has a dedicated channel here, so this
	// particular permutation sustains full rate; the adversarial case for
	// GHC needs concentration. Validate instead that the channels are the
	// limit when several nodes share one: see the flattened butterfly WC
	// tests. Here we only require sane, non-zero throughput.
	if thpt <= 0.5 {
		t.Errorf("GHC tornado throughput = %.3f, want high (dedicated channels)", thpt)
	}
}

func TestConcentratedHypercubeFootnote10(t *testing.T) {
	// Footnote 10 of the paper: concentrating the hypercube reduces cost
	// but "will significantly degrade performance on adversarial traffic
	// patterns" — the c flows of a router share one unit channel per
	// dimension, so the worst-case pattern collapses toward 1/c.
	h, err := topo.NewConcentratedHypercube(4, 8) // 128 nodes, 16 routers
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes != 128 {
		t.Fatalf("nodes = %d", h.NumNodes)
	}
	if err := h.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	wc := traffic.NewWorstCase(8, 16)
	thpt, err := sim.SaturationThroughput(h.Graph(), NewECube(h), sim.DefaultConfig(), wc, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	// Groups of 8 nodes funnel through shared dimension channels:
	// throughput far below the unconcentrated hypercube's (~1.0).
	if thpt > 0.35 {
		t.Errorf("concentrated hypercube WC throughput = %.3f, want well below 1", thpt)
	}
	// Uniform traffic also saturates early: c terminals share dims
	// channels of unit bandwidth, but with dims=4 >= avg hops the benign
	// case stays moderate.
	ur, err := sim.SaturationThroughput(h.Graph(), NewECube(h), sim.DefaultConfig(),
		traffic.NewUniform(h.NumNodes), 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if ur <= thpt {
		t.Errorf("uniform (%.3f) should beat adversarial (%.3f)", ur, thpt)
	}
	if _, err := topo.NewConcentratedHypercube(4, 0); err == nil {
		t.Error("zero concentration accepted")
	}
}

func TestDilatedButterflySection6(t *testing.T) {
	// §6 related work: "Dilated butterflies can be created where the
	// bandwidth of the channels in the butterflies are increased" to add
	// path diversity — a 2-dilated butterfly doubles worst-case
	// throughput over the plain butterfly (2/k instead of 1/k).
	plain, err := topo.NewButterfly(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	dilated, err := topo.NewDilatedButterfly(8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dilated.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	if got := dilated.Graph().CountChannels(); got != 2*plain.Graph().CountChannels() {
		t.Fatalf("dilated channels = %d, want 2x %d", got, plain.Graph().CountChannels())
	}
	wc := traffic.NewWorstCase(8, 8)
	t1, err := sim.SaturationThroughput(plain.Graph(), NewButterflyDest(plain), sim.DefaultConfig(), wc, 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := sim.SaturationThroughput(dilated.Graph(), NewButterflyDest(dilated), sim.DefaultConfig(), wc, 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if t2 < 1.6*t1 {
		t.Errorf("2-dilated WC throughput %.3f should be ~2x plain %.3f", t2, t1)
	}
	// Uniform traffic still works on the dilated network.
	ur, err := sim.SaturationThroughput(dilated.Graph(), NewButterflyDest(dilated), sim.DefaultConfig(),
		traffic.NewUniform(dilated.NumNodes), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ur < 0.85 {
		t.Errorf("dilated UR throughput = %.3f, want ~1.0", ur)
	}
	if _, err := topo.NewDilatedButterfly(8, 2, 0); err == nil {
		t.Error("dilation 0 accepted")
	}
}
