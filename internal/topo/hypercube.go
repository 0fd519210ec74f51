package topo

import "fmt"

// Hypercube is an n-dimensional binary hypercube: 2^n routers with a
// bidirectional link in every dimension. The paper's §3.3 comparison uses
// a 10-dimensional hypercube for 1024 nodes (one terminal per router),
// routed with e-cube (dimension-order) routing.
//
// A Concentration above 1 attaches several terminals per router — the
// configuration the paper's footnote 10 dismisses: it reduces network
// cost but "will significantly degrade performance on adversarial traffic
// patterns", because the concentrated flows of a router share a single
// unit-width channel per dimension.
type Hypercube struct {
	Dims          int
	Concentration int // terminals per router (1 in the paper's comparison)
	NumNodes      int // Concentration * 2^Dims
	NumRouters    int

	g *Graph
}

// NewHypercube constructs an n-dimensional binary hypercube with one
// terminal per router.
func NewHypercube(dims int) (*Hypercube, error) {
	return NewConcentratedHypercube(dims, 1)
}

// NewConcentratedHypercube constructs a hypercube with c terminals per
// router (footnote 10 of the paper).
func NewConcentratedHypercube(dims, c int) (*Hypercube, error) {
	if dims < 1 || dims > 30 {
		return nil, fmt.Errorf("topo: hypercube dims must be in [1,30], got %d", dims)
	}
	if c < 1 {
		return nil, fmt.Errorf("topo: hypercube concentration must be >= 1, got %d", c)
	}
	h := &Hypercube{
		Dims:          dims,
		Concentration: c,
		NumNodes:      c << dims,
		NumRouters:    1 << dims,
	}
	h.build()
	return h, nil
}

func (h *Hypercube) build() {
	// Port layout: ports [0, c) = terminals; port c+d = dimension-d
	// neighbor.
	c := h.Concentration
	ports := c + h.Dims
	g := NewGraph(h.Name(), h.NumNodes, h.NumRouters)
	for r := range g.Routers {
		g.Routers[r].In = make([]InPort, ports)
		g.Routers[r].Out = make([]OutPort, ports)
	}
	for node := 0; node < h.NumNodes; node++ {
		g.AttachNode(NodeID(node), RouterID(node/c), node%c, node%c, 1)
	}
	for r := 0; r < h.NumRouters; r++ {
		for d := 0; d < h.Dims; d++ {
			peer := r ^ (1 << d)
			if r < peer {
				g.ConnectBidi(RouterID(r), c+d, RouterID(peer), c+d, 1)
			}
		}
	}
	h.g = g
}

// Name returns e.g. "10-cube" or "8-cube(c=4)".
func (h *Hypercube) Name() string {
	if h.Concentration > 1 {
		return fmt.Sprintf("%d-cube(c=%d)", h.Dims, h.Concentration)
	}
	return fmt.Sprintf("%d-cube", h.Dims)
}

// Graph returns the channel graph.
func (h *Hypercube) Graph() *Graph { return h.g }

// RouterOf returns the router hosting a node.
func (h *Hypercube) RouterOf(node NodeID) RouterID {
	return RouterID(int(node) / h.Concentration)
}

// PortForDim returns the port index for the dimension-d link.
func (h *Hypercube) PortForDim(d int) int { return h.Concentration + d }

// AvgUniformHops returns the expected Hamming distance between uniformly
// random routers, self-traffic included: each of the Dims bits differs
// with probability 1/2. Concentration does not change the figure, since
// terminals are spread evenly over routers.
func (h *Hypercube) AvgUniformHops() float64 { return float64(h.Dims) / 2 }

// MinHops returns the Hamming distance between two routers.
func (h *Hypercube) MinHops(a, b RouterID) int {
	x := uint32(a) ^ uint32(b)
	c := 0
	for x != 0 {
		c += int(x & 1)
		x >>= 1
	}
	return c
}

// RouterOrbits reports the single router orbit of the translations
// r → r XOR t: flipping a fixed bit set maps each dimension-d link onto a
// dimension-d link and keeps the Concentration terminals per router.
func (h *Hypercube) RouterOrbits() ([]RouterID, []int) {
	return []RouterID{0}, []int{h.NumRouters}
}
