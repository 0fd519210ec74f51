package routing

import (
	"flatnet/internal/sim"
	"flatnet/internal/topo"
)

// ButterflyDest is the destination-based routing of a conventional
// butterfly (Table 1): at stage s the packet takes the output selected by
// digit n-1-s of its destination. With Dilation 1 there is exactly one
// path, hence no routing freedom and 1 VC; on a dilated butterfly (§6
// related work) the router adaptively picks the least-occupied parallel
// copy of the selected channel, recovering a factor of Dilation in
// adversarial throughput at Dilation-times the link cost.
type ButterflyDest struct {
	b *topo.Butterfly
}

// NewButterflyDest builds destination-based butterfly routing.
func NewButterflyDest(b *topo.Butterfly) *ButterflyDest { return &ButterflyDest{b} }

// Name implements sim.Algorithm.
func (a *ButterflyDest) Name() string { return "destination" }

// NumVCs implements sim.Algorithm.
func (a *ButterflyDest) NumVCs() int { return 1 }

// Sequential implements sim.Algorithm.
func (a *ButterflyDest) Sequential() bool { return false }

// Route implements sim.Algorithm. The last stage's chosen output is the
// ejection port itself (copy 0 of the terminal's logical channel).
func (a *ButterflyDest) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	stage, _ := a.b.StageOf(view.Router())
	o := a.b.OutputFor(stage, p.Dst)
	if stage == a.b.N-1 || a.b.Dilation == 1 {
		return sim.OutRef{Port: a.b.PortFor(o, 0), VC: 0}
	}
	m := newMinPicker(view)
	lo := a.b.PortFor(o, 0)
	m.offerRow(view.QueueEstRow(), lo, lo+a.b.Dilation, -1)
	return sim.OutRef{Port: m.bestArg, VC: 0}
}

// FoldedClosAdaptive is the adaptive routing with sequential allocation
// used for the folded Clos in Table 1 (after Kim, Dally & Abts, SC'06):
// ascend on the least-occupied uplink, then descend deterministically to
// the destination leaf, adaptively choosing among parallel down-links.
// The up*/down* channel order is acyclic, so 1 VC suffices.
type FoldedClosAdaptive struct {
	f *topo.FoldedClos
}

// NewFoldedClosAdaptive builds the folded-Clos router.
func NewFoldedClosAdaptive(f *topo.FoldedClos) *FoldedClosAdaptive {
	return &FoldedClosAdaptive{f}
}

// Name implements sim.Algorithm.
func (a *FoldedClosAdaptive) Name() string { return "adaptive sequential" }

// NumVCs implements sim.Algorithm.
func (a *FoldedClosAdaptive) NumVCs() int { return 1 }

// Sequential implements sim.Algorithm.
func (a *FoldedClosAdaptive) Sequential() bool { return true }

// Route implements sim.Algorithm.
func (a *FoldedClosAdaptive) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	r := view.Router()
	dstLeaf := a.f.LeafOf(p.Dst)
	if a.f.IsLeaf(r) {
		if r == dstLeaf {
			return sim.OutRef{Port: int(p.Dst) % a.f.Terminals, VC: 0}
		}
		// Ascend: any uplink; shortest queue.
		m := newMinPicker(view)
		lo := a.f.UplinkPort(0)
		m.offerRow(view.QueueEstRow(), lo, lo+a.f.Uplinks, -1)
		return sim.OutRef{Port: m.bestArg, VC: 0}
	}
	// Middle: descend toward the destination leaf on the least-occupied
	// parallel link.
	lo, hi := a.f.DownPorts(int(dstLeaf))
	m := newMinPicker(view)
	m.offerRow(view.QueueEstRow(), lo, hi, -1)
	return sim.OutRef{Port: m.bestArg, VC: 0}
}

// ECube is dimension-order routing on the binary hypercube (Table 1):
// correct the lowest differing address bit first. The fixed dimension
// order makes the channel dependence graph acyclic, so 1 VC suffices.
type ECube struct {
	h *topo.Hypercube
}

// NewECube builds e-cube hypercube routing.
func NewECube(h *topo.Hypercube) *ECube { return &ECube{h} }

// Name implements sim.Algorithm.
func (a *ECube) Name() string { return "e-cube" }

// NumVCs implements sim.Algorithm.
func (a *ECube) NumVCs() int { return 1 }

// Sequential implements sim.Algorithm.
func (a *ECube) Sequential() bool { return false }

// Route implements sim.Algorithm.
func (a *ECube) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	r := int(view.Router())
	d := int(a.h.RouterOf(p.Dst))
	if r == d {
		return sim.OutRef{Port: int(p.Dst) % a.h.Concentration, VC: 0}
	}
	diff := uint32(r ^ d)
	for bit := 0; bit < a.h.Dims; bit++ {
		if diff&(1<<uint(bit)) != 0 {
			return sim.OutRef{Port: a.h.PortForDim(bit), VC: 0}
		}
	}
	panic("routing: e-cube found no differing bit")
}

// GHCMinAdaptive is minimal adaptive routing on a generalized hypercube:
// at each hop take the productive channel with the shortest queue, with
// hops-remaining VCs for deadlock freedom. The paper (§2.3) notes that a
// GHC with minimal routing suffers the same adversarial-pattern bottleneck
// as a conventional butterfly; this algorithm lets that be demonstrated.
type GHCMinAdaptive struct {
	h *topo.GHC
}

// NewGHCMinAdaptive builds minimal adaptive GHC routing.
func NewGHCMinAdaptive(h *topo.GHC) *GHCMinAdaptive { return &GHCMinAdaptive{h} }

// Name implements sim.Algorithm.
func (a *GHCMinAdaptive) Name() string { return "GHC min-adaptive" }

// NumVCs implements sim.Algorithm.
func (a *GHCMinAdaptive) NumVCs() int { return len(a.h.Radices) }

// Sequential implements sim.Algorithm.
func (a *GHCMinAdaptive) Sequential() bool { return false }

// Route implements sim.Algorithm.
func (a *GHCMinAdaptive) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	r := view.Router()
	d := topo.RouterID(p.Dst) // one node per router
	if r == d {
		return sim.OutRef{Port: 0, VC: 0}
	}
	hopsLeft := 0
	m := newMinPicker(view)
	for dim := range a.h.Radices {
		want := a.h.Digit(d, dim)
		if a.h.Digit(r, dim) == want {
			continue
		}
		hopsLeft++
		port := a.h.PortFor(dim, want)
		m.offer(view.QueueEstPort(port), port)
	}
	return sim.OutRef{Port: m.bestArg, VC: hopsLeft - 1}
}
