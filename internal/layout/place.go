package layout

import (
	"fmt"

	"flatnet/internal/cost"
	"flatnet/internal/topo"
)

// PlaceFlatFly packages a flattened butterfly per Fig. 8: consecutive
// routers (and therefore whole dimension-1 subsystems, since dimension-1
// groups are consecutive in the router index) fill consecutive cabinets,
// so dimension-1 channels stay within a cabinet or reach an adjacent one,
// while higher dimensions span the floor.
func PlaceFlatFly(f *topo.FlatFly, p cost.Packaging) (*Placement, error) {
	routersPerCabinet := p.NodesPerCabinet / f.K
	if routersPerCabinet < 1 {
		routersPerCabinet = 1
	}
	cabinets := (f.NumRouters + routersPerCabinet - 1) / routersPerCabinet
	plan := NewFloorPlan(cabinets, p)
	cab := make([]int, f.NumRouters)
	for r := range cab {
		cab[r] = r / routersPerCabinet
	}
	return place(f.Graph(), plan, cab, p), nil
}

// PlaceFoldedClos packages a folded Clos per Fig. 9(a): leaf routers fill
// cabinets with their terminals; every middle router lives in dedicated
// router cabinets at the center of the floor, so every uplink is a global
// cable to the center.
func PlaceFoldedClos(fc *topo.FoldedClos, p cost.Packaging) (*Placement, error) {
	leavesPerCabinet := p.NodesPerCabinet / fc.Terminals
	if leavesPerCabinet < 1 {
		leavesPerCabinet = 1
	}
	leafCabinets := (fc.Leaves + leavesPerCabinet - 1) / leavesPerCabinet
	// One router cabinet per 16 middles (middles are routers only).
	midCabinets := (fc.Middles + 15) / 16
	plan := NewFloorPlan(leafCabinets+midCabinets, p)
	cab := make([]int, fc.NumRouters)
	// The middle cabinets take the central grid slots; leaves fill the rest.
	centerStart := leafCabinets / 2
	leafSlot := func(i int) int {
		if i < centerStart {
			return i
		}
		return i + midCabinets
	}
	for l := 0; l < fc.Leaves; l++ {
		cab[l] = leafSlot(l / leavesPerCabinet)
	}
	for m := 0; m < fc.Middles; m++ {
		cab[fc.MiddleRouter(m)] = centerStart + m/16
	}
	return place(fc.Graph(), plan, cab, p), nil
}

// PlaceHypercube packages a binary hypercube per Fig. 9(b): consecutive
// routers fill cabinets, so the low dimensions stay on backplanes and
// each higher dimension spans a geometrically growing slice of the floor.
func PlaceHypercube(h *topo.Hypercube, p cost.Packaging) (*Placement, error) {
	perCabinet := p.NodesPerCabinet
	cabinets := (h.NumRouters + perCabinet - 1) / perCabinet
	plan := NewFloorPlan(cabinets, p)
	cab := make([]int, h.NumRouters)
	for r := range cab {
		cab[r] = r / perCabinet
	}
	return place(h.Graph(), plan, cab, p), nil
}

// PlaceButterfly packages a conventional butterfly: terminal-bearing
// stage-0 and last-stage routers live with their nodes; middle stages are
// placed round-robin across the same cabinets (their channels all span
// the floor regardless).
func PlaceButterfly(b *topo.Butterfly, p cost.Packaging) (*Placement, error) {
	nodesPerRouter := b.K
	routersPerCabinet := p.NodesPerCabinet / nodesPerRouter
	if routersPerCabinet < 1 {
		routersPerCabinet = 1
	}
	cabinets := (b.RoutersPerStage + routersPerCabinet - 1) / routersPerCabinet
	plan := NewFloorPlan(cabinets, p)
	cab := make([]int, b.NumRouters)
	for r := range cab {
		_, pos := b.StageOf(topo.RouterID(r))
		cab[r] = pos / routersPerCabinet
	}
	return place(b.Graph(), plan, cab, p), nil
}

// WireDelayComparison is the §5.2 study: the physical distance a packet
// covers under each topology's routing for local (worst-case pattern)
// traffic. The flattened butterfly takes the minimal Manhattan route; the
// folded Clos must detour through the central router cabinets, roughly
// doubling the global wire delay for local traffic.
type WireDelayComparison struct {
	FlatFlyAvgMeters    float64 // source router -> next router, direct
	FoldedClosAvgMeters float64 // source leaf -> middle -> destination leaf
	Ratio               float64 // Clos / FlatFly (paper: ~2x for local traffic)
}

// CompareWireDelay evaluates the worst-case-pattern physical distances on
// a flattened butterfly and a folded Clos of the same node count.
func CompareWireDelay(f *topo.FlatFly, fc *topo.FoldedClos, p cost.Packaging) (WireDelayComparison, error) {
	if f.NumNodes != fc.NumNodes {
		return WireDelayComparison{}, fmt.Errorf("layout: node counts differ (%d vs %d)", f.NumNodes, fc.NumNodes)
	}
	pf, err := PlaceFlatFly(f, p)
	if err != nil {
		return WireDelayComparison{}, err
	}
	pc, err := PlaceFoldedClos(fc, p)
	if err != nil {
		return WireDelayComparison{}, err
	}
	var out WireDelayComparison
	// Worst-case pattern: router i sends to router i+1 (the FB's local
	// adversary). FB distance: direct. Clos distance: leaf -> middle ->
	// leaf, averaged over middles.
	for r := 0; r < f.NumRouters; r++ {
		next := (r + 1) % f.NumRouters
		out.FlatFlyAvgMeters += pf.RouterDistance(topo.RouterID(r), topo.RouterID(next))
		var viaMiddle float64
		for m := 0; m < fc.Middles; m++ {
			mid := fc.MiddleRouter(m)
			viaMiddle += pc.RouterDistance(topo.RouterID(r), mid) +
				pc.RouterDistance(mid, topo.RouterID(next))
		}
		out.FoldedClosAvgMeters += viaMiddle / float64(fc.Middles)
	}
	out.FlatFlyAvgMeters /= float64(f.NumRouters)
	out.FoldedClosAvgMeters /= float64(f.NumRouters)
	if out.FlatFlyAvgMeters > 0 {
		out.Ratio = out.FoldedClosAvgMeters / out.FlatFlyAvgMeters
	}
	return out, nil
}
