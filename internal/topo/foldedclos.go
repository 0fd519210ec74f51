package topo

import "fmt"

// FoldedClos is a two-level (three-stage) folded Clos / fat-tree: L leaf
// routers, each with Terminals terminal ports and Uplinks uplinks, and M
// middle routers. Every leaf spreads its uplinks evenly over the middles
// (Uplinks/M parallel links per leaf-middle pair), so every middle reaches
// every leaf and any middle can serve as the "closest common ancestor" for
// any pair of leaves.
//
// With Uplinks == Terminals the network is non-blocking; with
// Uplinks == Terminals/2 it is tapered 2:1, which is how the paper holds
// bisection bandwidth equal to the flattened butterfly in §3.3 (and why the
// folded Clos then saturates at 50% on uniform random traffic).
type FoldedClos struct {
	Terminals int // terminal ports per leaf
	Uplinks   int // uplinks per leaf
	Leaves    int
	Middles   int

	NumNodes   int
	NumRouters int // Leaves + Middles
	PairLinks  int // parallel links per (leaf, middle) pair = Uplinks / Middles

	g *Graph
}

// NewFoldedClos constructs a folded Clos. Uplinks must be divisible by
// middles so the uplink spread is uniform.
func NewFoldedClos(terminals, uplinks, leaves, middles int) (*FoldedClos, error) {
	if terminals < 1 || uplinks < 1 || leaves < 2 || middles < 1 {
		return nil, fmt.Errorf("topo: folded Clos parameters out of range (t=%d u=%d L=%d M=%d)",
			terminals, uplinks, leaves, middles)
	}
	if uplinks%middles != 0 {
		return nil, fmt.Errorf("topo: folded Clos uplinks (%d) must be divisible by middles (%d)", uplinks, middles)
	}
	f := &FoldedClos{
		Terminals:  terminals,
		Uplinks:    uplinks,
		Leaves:     leaves,
		Middles:    middles,
		NumNodes:   terminals * leaves,
		NumRouters: leaves + middles,
		PairLinks:  uplinks / middles,
	}
	f.build()
	return f, nil
}

func (f *FoldedClos) build() {
	// Leaves are routers [0, Leaves); middles are [Leaves, Leaves+Middles).
	g := NewGraph(f.Name(), f.NumNodes,
		PortRun{f.Leaves, f.Terminals + f.Uplinks}, PortRun{f.Middles, f.Leaves * f.PairLinks})
	for node := 0; node < f.NumNodes; node++ {
		g.AttachNode(NodeID(node), RouterID(node/f.Terminals), node%f.Terminals, node%f.Terminals, 1)
	}
	// Uplink j of leaf l goes to middle j/PairLinks; on the middle, the
	// ports for leaf l are [l*PairLinks, (l+1)*PairLinks).
	for l := 0; l < f.Leaves; l++ {
		for j := 0; j < f.Uplinks; j++ {
			m := j / f.PairLinks
			mp := l*f.PairLinks + j%f.PairLinks
			g.ConnectBidi(RouterID(l), f.Terminals+j, f.MiddleRouter(m), mp, 1)
		}
	}
	f.g = g
}

// Name returns e.g. "folded-Clos(t=32,u=16,L=32,M=8)".
func (f *FoldedClos) Name() string {
	return fmt.Sprintf("folded-Clos(t=%d,u=%d,L=%d,M=%d)", f.Terminals, f.Uplinks, f.Leaves, f.Middles)
}

// Graph returns the channel graph.
func (f *FoldedClos) Graph() *Graph { return f.g }

// MiddleRouter returns the router ID of middle m.
func (f *FoldedClos) MiddleRouter(m int) RouterID { return RouterID(f.Leaves + m) }

// IsLeaf reports whether r is a leaf router.
func (f *FoldedClos) IsLeaf(r RouterID) bool { return int(r) < f.Leaves }

// LeafOf returns the leaf router of a node.
func (f *FoldedClos) LeafOf(node NodeID) RouterID { return RouterID(int(node) / f.Terminals) }

// UplinkPort returns the port index on a leaf for uplink j.
func (f *FoldedClos) UplinkPort(j int) int { return f.Terminals + j }

// DownPorts returns the port range [lo, hi) on a middle router that leads
// to leaf l.
func (f *FoldedClos) DownPorts(l int) (lo, hi int) {
	return l * f.PairLinks, (l + 1) * f.PairLinks
}

// AvgUniformHops returns the expected inter-router hop count under
// uniform traffic with self-traffic included: a destination on the same
// leaf (probability Terminals/NumNodes) needs no network hop, anything
// else ascends to a middle and descends — exactly two hops.
func (f *FoldedClos) AvgUniformHops() float64 {
	return 2 * (1 - float64(f.Terminals)/float64(f.NumNodes))
}

// RouterOrbits reports two orbits, the leaves and the middles: every
// leaf reaches every middle over PairLinks parallel links, so any
// permutation of the leaves, and any permutation of the middles, is an
// automorphism of the channel multigraph that keeps the Terminals per
// leaf. Only the leaf orbit injects.
func (f *FoldedClos) RouterOrbits() ([]RouterID, []int) {
	return []RouterID{0, f.MiddleRouter(0)}, []int{f.Leaves, f.Middles}
}

// TaperedClosForNodes builds the folded Clos used in the paper's §3.3
// topology comparison: radix-"radix" routers, 2:1 taper so bisection
// matches a butterfly of equal node count. Leaves have radix/2 terminals
// and radix/4 uplinks.
func TaperedClosForNodes(nodes, radix int) (*FoldedClos, error) {
	t := radix / 2
	u := radix / 4
	if t < 1 || u < 1 || nodes%t != 0 {
		return nil, fmt.Errorf("topo: cannot build tapered Clos for %d nodes with radix %d", nodes, radix)
	}
	leaves := nodes / t
	// Middle count: total uplinks / radix middle ports, rounded to keep
	// uplinks divisible by middles.
	middles := leaves * u / radix
	if middles < 1 {
		middles = 1
	}
	for u%middles != 0 {
		middles--
	}
	return NewFoldedClos(t, u, leaves, middles)
}
