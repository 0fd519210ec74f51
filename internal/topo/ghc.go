package topo

import "fmt"

// GHC is a generalized hypercube (Bhuyan & Agrawal): a mixed-radix
// (m_1, m_2, ..., m_r) network with one terminal per router, where the
// routers in each dimension form a complete graph. The paper compares the
// flattened butterfly against an (8,8,16) GHC in §2.3: the flattened
// butterfly improves on the GHC by adding k-way concentration and
// non-minimal global adaptive routing.
type GHC struct {
	Radices []int // m_d per dimension

	NumNodes   int // product of radices; one node per router
	NumRouters int
	Degree     int // network ports used: sum of (m_d - 1)

	pos []int // pos[d] = product of radices[0..d)
	g   *Graph
}

// NewGHC constructs a generalized hypercube with the given per-dimension
// radices.
func NewGHC(radices []int) (*GHC, error) {
	if len(radices) == 0 {
		return nil, fmt.Errorf("topo: GHC needs at least one dimension")
	}
	n := 1
	deg := 0
	for d, m := range radices {
		if m < 2 {
			return nil, fmt.Errorf("topo: GHC dimension %d radix %d < 2", d, m)
		}
		n *= m
		deg += m - 1
	}
	h := &GHC{
		Radices:    append([]int(nil), radices...),
		NumNodes:   n,
		NumRouters: n,
		Degree:     deg,
	}
	h.pos = make([]int, len(radices)+1)
	h.pos[0] = 1
	for d, m := range radices {
		h.pos[d+1] = h.pos[d] * m
	}
	h.build()
	return h, nil
}

func (h *GHC) build() {
	// Port layout: port 0 = terminal; then for dimension d, m_d slots
	// indexed by target digit (self slot Unused).
	ports := 1
	base := make([]int, len(h.Radices))
	for d, m := range h.Radices {
		base[d] = ports
		ports += m
	}
	g := NewGraph(h.Name(), h.NumNodes, h.NumRouters)
	for r := range g.Routers {
		g.Routers[r].In = make([]InPort, ports)
		g.Routers[r].Out = make([]OutPort, ports)
	}
	for node := 0; node < h.NumNodes; node++ {
		g.AttachNode(NodeID(node), RouterID(node), 0, 0, 1)
	}
	for r := 0; r < h.NumRouters; r++ {
		for d, m := range h.Radices {
			own := h.Digit(RouterID(r), d)
			for v := 0; v < m; v++ {
				if v == own {
					continue
				}
				j := r + (v-own)*h.pos[d]
				if r < j {
					g.ConnectBidi(RouterID(r), base[d]+v, RouterID(j), base[d]+own, 1)
				}
			}
		}
	}
	h.g = g
}

// Name returns e.g. "GHC(8,8,16)".
func (h *GHC) Name() string {
	s := "GHC("
	for i, m := range h.Radices {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(m)
	}
	return s + ")"
}

// Graph returns the channel graph.
func (h *GHC) Graph() *Graph { return h.g }

// Digit returns the dimension-d digit of router r.
func (h *GHC) Digit(r RouterID, d int) int {
	return (int(r) / h.pos[d]) % h.Radices[d]
}

// PortFor returns the port on a router that reaches digit value v in
// dimension d (callers must not ask for the router's own digit).
func (h *GHC) PortFor(d, v int) int {
	p := 1
	for x := 0; x < d; x++ {
		p += h.Radices[x]
	}
	return p + v
}

// MinHops returns the number of differing digits between two routers.
func (h *GHC) MinHops(a, b RouterID) int {
	c := 0
	for d := range h.Radices {
		if h.Digit(a, d) != h.Digit(b, d) {
			c++
		}
	}
	return c
}

// RouterOrbits reports the single router orbit of the translations
// r → r+t of Z_m1 × … × Z_mr: adding t digit by digit (each modulo its own
// radix) maps dimension-d channels onto dimension-d channels, and every
// router hosts one terminal.
func (h *GHC) RouterOrbits() ([]RouterID, []int) {
	return []RouterID{0}, []int{h.NumRouters}
}
