package topo

import (
	"fmt"
	"math"
)

// FlatFly is a k-ary n-flat: the flattened butterfly derived from a k-ary
// n-fly butterfly by combining the n routers of each row into one.
//
// Addressing follows §2.2 of the paper: a node address is an n-digit
// radix-k number a_{n-1}…a_0 whose digit 0 selects the terminal port on the
// router and whose digits 1…n-1 form the router index. An inter-router hop
// in dimension d ∈ [1, n'] changes digit d; the final (ejection) hop sets
// digit 0.
type FlatFly struct {
	K int // k: ary of the underlying butterfly; also terminals per router
	N int // n: number of stages of the underlying butterfly

	Dims       int // n' = n-1 inter-router dimensions
	NumNodes   int // N = k^n
	NumRouters int // k^(n-1)
	Radix      int // k' = n(k-1)+1 ports actually used per router

	// Multiplicity is the number of parallel channels between each pair of
	// connected routers (Fig. 14(a) uses 2 on a 1-D network to consume the
	// spare router port). It is 1 for the standard topology.
	Multiplicity int

	// pow[i] = k^i, up to k^n.
	pow []int

	g *Graph
}

// FlatFlyOption configures optional FlatFly variants.
type FlatFlyOption func(*flatFlyOptions)

type flatFlyOptions struct {
	multiplicity    int
	terminalLatency int
	channelLatency  int
}

// WithMultiplicity builds every inter-router link as m parallel channels
// (Fig. 14(a)). Only m >= 1 is accepted.
func WithMultiplicity(m int) FlatFlyOption {
	return func(o *flatFlyOptions) { o.multiplicity = m }
}

// WithChannelLatency sets the inter-router channel latency in cycles
// (default 1).
func WithChannelLatency(l int) FlatFlyOption {
	return func(o *flatFlyOptions) { o.channelLatency = l }
}

// WithTerminalLatency sets the node-router channel latency in cycles
// (default 1).
func WithTerminalLatency(l int) FlatFlyOption {
	return func(o *flatFlyOptions) { o.terminalLatency = l }
}

// NewFlatFly constructs a k-ary n-flat. k >= 2 and n >= 2 are required
// (n = 1 would have no inter-router dimensions).
func NewFlatFly(k, n int, opts ...FlatFlyOption) (*FlatFly, error) {
	if k < 2 {
		return nil, fmt.Errorf("topo: k-ary n-flat needs k >= 2, got k=%d", k)
	}
	if n < 2 {
		return nil, fmt.Errorf("topo: k-ary n-flat needs n >= 2, got n=%d", n)
	}
	o := flatFlyOptions{multiplicity: 1, terminalLatency: 1, channelLatency: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.multiplicity < 1 {
		return nil, fmt.Errorf("topo: multiplicity must be >= 1, got %d", o.multiplicity)
	}
	if o.multiplicity > 1 && n != 2 {
		return nil, fmt.Errorf("topo: multiplicity > 1 is only supported for 1-D networks (n=2), got n=%d", n)
	}
	f := &FlatFly{
		K:            k,
		N:            n,
		Dims:         n - 1,
		Multiplicity: o.multiplicity,
	}
	f.pow = make([]int, n+1)
	f.pow[0] = 1
	for i := 1; i <= n; i++ {
		if f.pow[i-1] > math.MaxInt/k {
			return nil, fmt.Errorf("topo: k=%d n=%d overflows node count", k, n)
		}
		f.pow[i] = f.pow[i-1] * k
	}
	f.NumNodes = f.pow[n]
	f.NumRouters = f.pow[n-1]
	f.Radix = n*(k-1) + 1
	f.build(o)
	return f, nil
}

// build fills in the channel graph. Port layout on every router:
//
//	ports [0, k)                       terminal ports (digit 0 of the node address)
//	ports [k + (d-1)*k*m, k + d*k*m)   dimension d, m = Multiplicity: m slots
//	                                   per target digit value; the slots for
//	                                   the router's own digit are Unused.
//
// Padding the "self" slot keeps port lookup arithmetic trivial; Validate
// and the cost model use the true radix k' = n(k-1)+1.
func (f *FlatFly) build(o flatFlyOptions) {
	k, m := f.K, f.Multiplicity
	portsPerRouter := k + f.Dims*k*m
	g := NewGraph(f.Name(), f.NumNodes, PortRun{f.NumRouters, portsPerRouter})
	for node := 0; node < f.NumNodes; node++ {
		r := RouterID(node / k)
		t := node % k
		g.AttachNode(NodeID(node), r, t, t, o.terminalLatency)
	}
	for r := 0; r < f.NumRouters; r++ {
		for d := 1; d <= f.Dims; d++ {
			own := f.RouterDigit(RouterID(r), d)
			for v := 0; v < k; v++ {
				if v == own {
					continue
				}
				// Eq. 1: j = i + (v - digit) * k^(d-1).
				j := r + (v-own)*f.pow[d-1]
				for c := 0; c < m; c++ {
					// Connect only in one direction (r < j) to avoid
					// writing each bidirectional link twice.
					if r < j {
						g.ConnectBidi(RouterID(r), f.PortFor(d, v, c),
							RouterID(j), f.PortFor(d, own, c), o.channelLatency)
					}
				}
			}
		}
	}
	f.g = g
}

// Name returns e.g. "32-ary 2-flat".
func (f *FlatFly) Name() string {
	if f.Multiplicity > 1 {
		return fmt.Sprintf("%d-ary %d-flat x%d", f.K, f.N, f.Multiplicity)
	}
	return fmt.Sprintf("%d-ary %d-flat", f.K, f.N)
}

// Graph returns the channel graph.
func (f *FlatFly) Graph() *Graph { return f.g }

// RouterOf returns the router a node attaches to.
func (f *FlatFly) RouterOf(node NodeID) RouterID {
	return RouterID(int(node) / f.K)
}

// TerminalIndex returns digit 0 of the node address: the terminal port on
// the node's router.
func (f *FlatFly) TerminalIndex(node NodeID) int { return int(node) % f.K }

// RouterDigit returns the router-index digit addressed by dimension
// d ∈ [1, Dims]: digit d-1 of the (n-1)-digit radix-k router index, which
// equals digit d of any node address at that router.
func (f *FlatFly) RouterDigit(r RouterID, d int) int {
	return (int(r) / f.pow[d-1]) % f.K
}

// PortFor returns the output (and input) port index used by dimension d to
// reach the router whose dimension-d digit is v, on parallel channel copy
// c ∈ [0, Multiplicity). The slot where v equals the router's own digit is
// Unused.
func (f *FlatFly) PortFor(d, v, c int) int {
	return f.K + (d-1)*f.K*f.Multiplicity + v*f.Multiplicity + c
}

// DimOfPort inverts PortFor: for a network port index it returns the
// dimension and target digit value. Terminal ports return dimension 0.
func (f *FlatFly) DimOfPort(p int) (dim, digit int) {
	if p < f.K {
		return 0, p
	}
	q := (p - f.K) / f.Multiplicity
	return q/f.K + 1, q % f.K
}

// NeighborIn returns the router reached from r by setting its dimension-d
// digit to v.
func (f *FlatFly) NeighborIn(r RouterID, d, v int) RouterID {
	own := f.RouterDigit(r, d)
	return RouterID(int(r) + (v-own)*f.pow[d-1])
}

// MinHops returns the minimal inter-router hop count between two routers:
// the number of dimensions in which their digits differ (§2.2).
func (f *FlatFly) MinHops(a, b RouterID) int {
	h := 0
	for d := 1; d <= f.Dims; d++ {
		if f.RouterDigit(a, d) != f.RouterDigit(b, d) {
			h++
		}
	}
	return h
}

// DiffDims returns the dimensions (ascending) in which routers a and b
// have differing digits: the productive dimensions for a minimal route.
func (f *FlatFly) DiffDims(a, b RouterID) []int {
	var dims []int
	for d := 1; d <= f.Dims; d++ {
		if f.RouterDigit(a, d) != f.RouterDigit(b, d) {
			dims = append(dims, d)
		}
	}
	return dims
}

// AvgUniformMinHops returns the expected minimal inter-router hop count
// under uniform traffic with self-traffic included: each of the n'
// dimensions differs with probability (k-1)/k, and every router hosts the
// same number of terminals, so uniform traffic over nodes is uniform over
// router pairs. Internal/check's conformance suite holds minimally-routed
// zero-load latency to this figure.
func (f *FlatFly) AvgUniformMinHops() float64 {
	return float64(f.Dims) * float64(f.K-1) / float64(f.K)
}

// MinimalRouteCount returns the number of distinct minimal routes between
// two routers: i! where i is the number of differing digits (§2.2).
func (f *FlatFly) MinimalRouteCount(a, b RouterID) int {
	i := f.MinHops(a, b)
	c := 1
	for j := 2; j <= i; j++ {
		c *= j
	}
	return c
}

// RouterFromDigits assembles a router index from its radix-k digits, where
// digits[i] is the digit of dimension i+1. Missing high digits are zero.
func (f *FlatFly) RouterFromDigits(digits []int) RouterID {
	r := 0
	for i, v := range digits {
		r += v * f.pow[i]
	}
	return RouterID(r)
}

// Node returns the node with the given router and terminal index.
func (f *FlatFly) Node(r RouterID, terminal int) NodeID {
	return NodeID(int(r)*f.K + terminal)
}

// RouterOrbits reports the single router orbit of the translations
// r → r+t of Z_k^(n-1): adding t to every router's digit vector maps the
// Multiplicity channels that change digit d onto channels that change
// digit d (Eq. 1 depends only on digit differences) and keeps the k
// terminals per router, so every router sees the network router 0 sees.
func (f *FlatFly) RouterOrbits() ([]RouterID, []int) {
	return []RouterID{0}, []int{f.NumRouters}
}
