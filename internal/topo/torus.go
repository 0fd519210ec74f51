package topo

import "fmt"

// Torus is a k-ary n-cube: the low-radix direct network (Cray T3E, XT3
// class) that the paper's introduction argues cannot exploit modern
// high-pin-bandwidth routers. Each router hosts one terminal and has two
// ports per dimension (plus and minus neighbors on the dimension's ring).
// It serves as the low-radix baseline when demonstrating why high-radix
// topologies like the flattened butterfly win at fixed router bandwidth.
type Torus struct {
	K int // ring size per dimension
	N int // dimensions

	NumNodes   int // k^n, one node per router
	NumRouters int

	pow []int
	g   *Graph
}

// NewTorus constructs a k-ary n-cube. k >= 2 and n >= 1 are required; a
// k of 2 degenerates each ring to a single bidirectional link pair.
func NewTorus(k, n int) (*Torus, error) {
	if k < 2 || n < 1 {
		return nil, fmt.Errorf("topo: torus needs k >= 2 and n >= 1, got k=%d n=%d", k, n)
	}
	t := &Torus{K: k, N: n}
	t.pow = make([]int, n+1)
	t.pow[0] = 1
	for i := 1; i <= n; i++ {
		t.pow[i] = t.pow[i-1] * k
	}
	t.NumNodes = t.pow[n]
	t.NumRouters = t.pow[n]
	t.build()
	return t, nil
}

func (t *Torus) build() {
	// Port layout: port 0 = terminal; ports 1+2d and 2+2d are the plus
	// and minus neighbors in dimension d.
	ports := 1 + 2*t.N
	g := NewGraph(t.Name(), t.NumNodes, PortRun{t.NumRouters, ports})
	for node := 0; node < t.NumNodes; node++ {
		g.AttachNode(NodeID(node), RouterID(node), 0, 0, 1)
	}
	for r := 0; r < t.NumRouters; r++ {
		for d := 0; d < t.N; d++ {
			plus := t.Neighbor(RouterID(r), d, +1)
			// The plus channel of r pairs with the minus channel of the
			// neighbor; connect each direction once.
			g.Connect(RouterID(r), t.PortPlus(d), plus, t.PortMinus(d), 1)
			g.Connect(plus, t.PortMinus(d), RouterID(r), t.PortPlus(d), 1)
		}
	}
	t.g = g
}

// Name returns e.g. "8-ary 3-cube".
func (t *Torus) Name() string { return fmt.Sprintf("%d-ary %d-cube", t.K, t.N) }

// Graph returns the channel graph.
func (t *Torus) Graph() *Graph { return t.g }

// Digit returns the dimension-d coordinate of a router.
func (t *Torus) Digit(r RouterID, d int) int { return (int(r) / t.pow[d]) % t.K }

// Neighbor returns the router one step along dimension d in the given
// direction (+1 or -1), wrapping around the ring.
func (t *Torus) Neighbor(r RouterID, d, dir int) RouterID {
	c := t.Digit(r, d)
	nc := ((c+dir)%t.K + t.K) % t.K
	return RouterID(int(r) + (nc-c)*t.pow[d])
}

// PortPlus returns the output/input port toward the plus neighbor of
// dimension d.
func (t *Torus) PortPlus(d int) int { return 1 + 2*d }

// PortMinus returns the port toward the minus neighbor of dimension d.
func (t *Torus) PortMinus(d int) int { return 2 + 2*d }

// RingDistance returns the minimal hops and direction (+1/-1) from
// coordinate a to b around a ring of size k; ties prefer +1.
func (t *Torus) RingDistance(a, b int) (hops, dir int) {
	fwd := ((b-a)%t.K + t.K) % t.K
	bwd := t.K - fwd
	if fwd == 0 {
		return 0, +1
	}
	if fwd <= bwd {
		return fwd, +1
	}
	return bwd, -1
}

// MinHops returns the minimal router-to-router hop count.
func (t *Torus) MinHops(a, b RouterID) int {
	h := 0
	for d := 0; d < t.N; d++ {
		dh, _ := t.RingDistance(t.Digit(a, d), t.Digit(b, d))
		h += dh
	}
	return h
}

// RouterOrbits reports the single router orbit of the translations
// r → r+t of Z_k^n: shifting every coordinate maps each ring's plus and
// minus channels onto themselves (for k = 2, both onto the doubled link)
// and every router hosts one terminal.
func (t *Torus) RouterOrbits() ([]RouterID, []int) {
	return []RouterID{0}, []int{t.NumRouters}
}
