package routing

import (
	"testing"

	"flatnet/internal/sim"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// vcBoundsChecker wraps an algorithm and fails the test if any decision
// uses a VC outside [0, NumVCs) or a port outside the router's table.
type vcBoundsChecker struct {
	sim.Algorithm
	t *testing.T
	g *topo.Graph
}

func (c *vcBoundsChecker) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	dec := c.Algorithm.Route(view, p)
	if dec.VC < 0 || dec.VC >= c.Algorithm.NumVCs() {
		c.t.Errorf("%s: VC %d out of [0,%d)", c.Algorithm.Name(), dec.VC, c.Algorithm.NumVCs())
	}
	outs := c.g.Routers[view.Router()].Out
	if dec.Port < 0 || dec.Port >= len(outs) {
		c.t.Errorf("%s: port %d out of range", c.Algorithm.Name(), dec.Port)
	} else if outs[dec.Port].Kind == topo.Unused {
		c.t.Errorf("%s: routed to unused port %d on router %d", c.Algorithm.Name(), dec.Port, view.Router())
	}
	return dec
}

// TestVCDecisionsWithinBounds drives every flattened-butterfly algorithm
// on 1-D and 3-D networks under mixed traffic and asserts every routing
// decision stays inside its declared VC budget and the port table.
func TestVCDecisionsWithinBounds(t *testing.T) {
	for _, cfg := range []struct{ k, n int }{{8, 2}, {3, 4}} {
		f, err := topo.NewFlatFly(cfg.k, cfg.n)
		if err != nil {
			t.Fatal(err)
		}
		patterns := []traffic.Pattern{
			traffic.NewUniform(f.NumNodes),
			traffic.NewWorstCase(f.K, f.NumRouters),
		}
		for _, alg := range allFFAlgs(f) {
			for _, p := range patterns {
				checked := &vcBoundsChecker{Algorithm: alg, t: t, g: f.Graph()}
				n, err := sim.New(f.Graph(), checked, sim.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				setPattern(t, n, p)
				for i := 0; i < 250; i++ {
					generate(t, n, 0.5)
					n.Step()
				}
				if _, d := n.Totals(); d == 0 {
					t.Errorf("%s on %s/%s: nothing delivered", alg.Name(), f.Name(), p.Name())
				}
			}
		}
	}
}

// TestAllTopologyAlgorithmsBounds applies the same check to the baseline
// topologies' algorithms.
func TestAllTopologyAlgorithmsBounds(t *testing.T) {
	bf, err := topo.NewButterfly(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := topo.NewFoldedClos(8, 4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := topo.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := topo.NewTorus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	gh, err := topo.NewGHC([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		g   *topo.Graph
		alg sim.Algorithm
	}{
		{bf.Graph(), NewButterflyDest(bf)},
		{fc.Graph(), NewFoldedClosAdaptive(fc)},
		{hc.Graph(), NewECube(hc)},
		{tor.Graph(), NewTorusDOR(tor)},
		{gh.Graph(), NewGHCMinAdaptive(gh)},
	}
	for _, c := range cases {
		checked := &vcBoundsChecker{Algorithm: c.alg, t: t, g: c.g}
		n, err := sim.New(c.g, checked, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		setPattern(t, n, traffic.NewUniform(c.g.NumNodes))
		for i := 0; i < 250; i++ {
			generate(t, n, 0.4)
			n.Step()
		}
		if _, d := n.Totals(); d == 0 {
			t.Errorf("%s: nothing delivered", c.alg.Name())
		}
	}
}
