package topo

import "fmt"

// OneDimFB is a single-dimension flattened butterfly generalized to an
// arbitrary router count: a complete graph of Routers routers, each
// concentrating Concentration terminals. With Routers == Concentration it
// is exactly a k-ary 2-flat; with Routers == Concentration+1 it is the
// expanded-scalability variant of Fig. 14(b), which uses the router's spare
// port to grow the network (e.g. a radix-8 router building a 4-ary 2-flat
// needs only 7 ports, so a fifth router can be added, scaling N from 16 to
// 20).
type OneDimFB struct {
	Routers       int
	Concentration int
	NumNodes      int
	Radix         int // ports used: Concentration + Routers - 1

	g *Graph
}

// NewOneDimFB builds the complete-graph single-dimension flattened
// butterfly with the given router count and concentration.
func NewOneDimFB(routers, concentration int) (*OneDimFB, error) {
	if routers < 2 {
		return nil, fmt.Errorf("topo: OneDimFB needs >= 2 routers, got %d", routers)
	}
	if concentration < 1 {
		return nil, fmt.Errorf("topo: OneDimFB needs concentration >= 1, got %d", concentration)
	}
	f := &OneDimFB{
		Routers:       routers,
		Concentration: concentration,
		NumNodes:      routers * concentration,
		Radix:         concentration + routers - 1,
	}
	c := concentration
	// Port layout: [0, c) terminals; port c+j reaches router j (self slot Unused).
	ports := c + routers
	g := NewGraph(f.Name(), f.NumNodes, PortRun{routers, ports})
	for node := 0; node < f.NumNodes; node++ {
		g.AttachNode(NodeID(node), RouterID(node/c), node%c, node%c, 1)
	}
	for a := 0; a < routers; a++ {
		for b := a + 1; b < routers; b++ {
			g.ConnectBidi(RouterID(a), c+b, RouterID(b), c+a, 1)
		}
	}
	f.g = g
	return f, nil
}

// Name returns e.g. "1-flat(R=5,c=4)".
func (f *OneDimFB) Name() string {
	return fmt.Sprintf("1-flat(R=%d,c=%d)", f.Routers, f.Concentration)
}

// Graph returns the channel graph.
func (f *OneDimFB) Graph() *Graph { return f.g }
