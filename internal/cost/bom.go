package cost

import (
	"fmt"
	"math"

	"flatnet/internal/topo"
)

// LinkGroup is one homogeneous set of unidirectional channels in a
// topology's bill of materials.
type LinkGroup struct {
	// Label identifies the group for reporting, e.g. "dim-2".
	Label string
	// Class determines pricing and SerDes power.
	Class LinkClass
	// PerNode is the number of unidirectional channels per node.
	PerNode float64
	// Length is the cable length in meters (0 for backplane links).
	Length float64
}

// BOM is a topology's bill of materials at a given size, expressed per
// node so that partially-populated networks scale smoothly (the paper's
// Figs. 10/11/15 sweep N continuously through each configuration band).
type BOM struct {
	Topology string
	N        int
	// RoutersPerNode is the router count divided by N.
	RoutersPerNode float64
	// RouterPortsUsed is the number of ports used on each router, for
	// pin-proportional router pricing.
	RouterPortsUsed int
	Links           []LinkGroup
}

// TerminalGroup returns the terminal (processor-router) link group common
// to all topologies: one bidirectional backplane link per node, i.e. two
// unidirectional channels. The paper notes these local links are not
// reduced by any topology choice and dominate small networks (§4.3).
func TerminalGroup() LinkGroup {
	return LinkGroup{Label: "terminal", Class: Backplane, PerNode: 2}
}

// FlatFlyBOM builds the flattened-butterfly bill of materials for n nodes
// using routers of the packaging radix (§5.1.2 configuration selection:
// smallest dimensionality that scales to n). Dimension 1 is packaged
// locally — within a pair of adjacent cabinets — when its subsystem (k^2
// nodes) fits in 4 cabinets or fewer; otherwise its cables span the
// dimension-1 subsystem's own region of the floor. Dimensions >= 2 are
// global cables of average length E/3 (§4.2).
func FlatFlyBOM(n int, p Packaging) (BOM, error) {
	nPrime, kPrime, _, err := topo.FixedRadixConfig(p.Radix, n)
	if err != nil {
		return BOM{}, err
	}
	k := p.Radix / (nPrime + 1)
	b := BOM{
		Topology:        "flattened butterfly",
		N:               n,
		RoutersPerNode:  1.0 / float64(k),
		RouterPortsUsed: kPrime,
	}
	b.Links = append(b.Links, TerminalGroup())
	// Each router has (k-1) channels per dimension; per node that is
	// (k-1)/k unidirectional channels per dimension.
	perDim := float64(k-1) / float64(k)
	dim1Nodes := k * k
	if dim1Nodes <= 4*p.NodesPerCabinet {
		b.Links = append(b.Links, LinkGroup{
			Label: "dim-1", Class: LocalCable, PerNode: perDim, Length: p.LocalCableLength,
		})
	} else {
		// The dimension-1 subsystem occupies its own contiguous region of
		// the floor; its cables average a third of that region's edge.
		l := math.Sqrt(float64(dim1Nodes)/p.Density)/3 + p.CableOverhead
		b.Links = append(b.Links, LinkGroup{
			Label: "dim-1", Class: GlobalCable, PerNode: perDim, Length: l,
		})
	}
	for d := 2; d <= nPrime; d++ {
		b.Links = append(b.Links, LinkGroup{
			Label:   fmt.Sprintf("dim-%d", d),
			Class:   GlobalCable,
			PerNode: perDim,
			Length:  p.GlobalCableLength(n, 1.0/3),
		})
	}
	return b, nil
}

// FlatFlyBOMForConfig builds the bill of materials for an explicit (k, n')
// flattened-butterfly configuration — used by the Fig. 13 fixed-N study,
// which compares the Table 4 configurations of a 4K network.
func FlatFlyBOMForConfig(n, k, nPrime int, p Packaging) BOM {
	b := BOM{
		Topology:        fmt.Sprintf("flattened butterfly (k=%d,n'=%d)", k, nPrime),
		N:               n,
		RoutersPerNode:  1.0 / float64(k),
		RouterPortsUsed: (nPrime+1)*(k-1) + 1,
	}
	b.Links = append(b.Links, TerminalGroup())
	perDim := float64(k-1) / float64(k)
	for d := 1; d <= nPrime; d++ {
		group := LinkGroup{Label: fmt.Sprintf("dim-%d", d), PerNode: perDim}
		sub := 1
		for i := 0; i <= d; i++ {
			sub *= k
		}
		switch {
		case d == 1 && k*k <= 4*p.NodesPerCabinet:
			group.Class = LocalCable
			group.Length = p.LocalCableLength
		case sub < n:
			// Intermediate dimension: cables span the dimension's own
			// subsystem region.
			group.Class = GlobalCable
			group.Length = math.Sqrt(float64(sub)/p.Density)/3 + p.CableOverhead
		default:
			group.Class = GlobalCable
			group.Length = p.GlobalCableLength(n, 1.0/3)
		}
		b.Links = append(b.Links, group)
	}
	return b
}

// closLevels returns the number of router levels a folded Clos of
// half-radix modules (32 down / 32 up on a radix-64 part) needs: the
// smallest L with (radix/2)^L >= n. This reproduces the paper's stage
// steps (radix-64: 1K fits 2 levels, 2K forces 3 — §4.3).
func closLevels(n, radix int) int {
	half := radix / 2
	capacity := 1
	for l := 1; ; l++ {
		capacity *= half
		if capacity >= n || l > 30 {
			return l
		}
	}
}

// FoldedClosBOM builds the (full-bisection) folded-Clos bill of materials:
// L levels of 32-down/32-up modules with every inter-router link routed to
// a central router cabinet as a global cable of average length E/4 (§4.2,
// Fig. 9(a)). The top level uses the router's full radix downward.
func FoldedClosBOM(n int, p Packaging) BOM {
	half := p.Radix / 2
	levels := closLevels(n, p.Radix)
	b := BOM{
		Topology:        "folded Clos",
		N:               n,
		RouterPortsUsed: p.Radix,
	}
	// Levels 1..L-1 have n/half routers each; the top level has n/radix.
	b.RoutersPerNode = float64(levels-1)/float64(half) + 1.0/float64(p.Radix)
	b.Links = append(b.Links, TerminalGroup())
	// Full bisection: n uplinks (bidirectional) per level boundary, i.e.
	// 2 unidirectional channels per node per boundary.
	for l := 1; l < levels; l++ {
		b.Links = append(b.Links, LinkGroup{
			Label:   fmt.Sprintf("level-%d", l),
			Class:   GlobalCable,
			PerNode: 2,
			Length:  p.GlobalCableLength(n, 1.0/4),
		})
	}
	if levels == 1 {
		// A single router: no inter-router links.
		b.RoutersPerNode = 1.0 / float64(p.Radix)
	}
	return b
}

// ButterflyBOM builds the conventional-butterfly bill of materials: s =
// ceil(log_radix n) stages; each inter-stage boundary carries one
// unidirectional channel per node, all global cables of average length
// E/3 (§4.2 — the butterfly's channels are the flattened butterfly's,
// before flattening).
func ButterflyBOM(n int, p Packaging) BOM {
	stages := 1
	capacity := p.Radix
	for capacity < n {
		capacity *= p.Radix
		stages++
	}
	b := BOM{
		Topology:        "conventional butterfly",
		N:               n,
		RoutersPerNode:  float64(stages) / float64(p.Radix),
		RouterPortsUsed: p.Radix,
	}
	b.Links = append(b.Links, TerminalGroup())
	for s := 1; s < stages; s++ {
		b.Links = append(b.Links, LinkGroup{
			Label:   fmt.Sprintf("stage-%d", s),
			Class:   GlobalCable,
			PerNode: 1,
			Length:  p.GlobalCableLength(n, 1.0/3),
		})
	}
	return b
}

// GHCBOM builds the generalized-hypercube bill of materials for the given
// per-dimension radices: one router per node (no concentration) with a
// complete graph per dimension, every inter-router channel at full
// terminal bandwidth — the §2.3 configuration whose cost motivates the
// flattened butterfly's k-way concentration ("reducing its cost by a
// factor of k"). Dimensions whose cumulative subsystem fits in a cabinet
// are backplane links; the rest are global cables spanning their
// subsystem's region.
func GHCBOM(n int, radices []int, p Packaging) BOM {
	label := "GHC("
	for i, m := range radices {
		if i > 0 {
			label += ","
		}
		label += fmt.Sprint(m)
	}
	label += ")"
	degree := 1 // terminal
	for _, m := range radices {
		degree += m - 1
	}
	b := BOM{
		Topology:        label,
		N:               n,
		RoutersPerNode:  1,
		RouterPortsUsed: degree,
	}
	b.Links = append(b.Links, TerminalGroup())
	sub := 1
	for d, m := range radices {
		sub *= m
		group := LinkGroup{
			Label:   fmt.Sprintf("dim-%d", d+1),
			PerNode: float64(m - 1), // each router has m-1 channels per dimension
		}
		if sub <= p.NodesPerCabinet {
			group.Class = Backplane
		} else {
			group.Class = GlobalCable
			group.Length = math.Sqrt(float64(sub)/p.Density)/3 + p.CableOverhead
		}
		b.Links = append(b.Links, group)
	}
	return b
}

// DilatedButterflyBOM builds the bill of materials for a dilated
// butterfly (Kruskal & Snir; the paper's §6 related work): every
// inter-stage channel of the conventional butterfly is replicated
// `dilation` times, multiplying both the inter-router link count and the
// router bandwidth (billed as proportionally more router silicon). The
// paper's §6 point — that dilation buys path diversity at a steep cost
// the flattened butterfly avoids — falls directly out of this model.
func DilatedButterflyBOM(n, dilation int, p Packaging) BOM {
	b := ButterflyBOM(n, p)
	if dilation <= 1 {
		return b
	}
	b.Topology = fmt.Sprintf("dilated butterfly (x%d)", dilation)
	b.RoutersPerNode *= float64(dilation)
	for i := range b.Links {
		if b.Links[i].Label == "terminal" {
			continue
		}
		b.Links[i].PerNode *= float64(dilation)
	}
	return b
}

// HypercubeBOM builds the binary-hypercube bill of materials: one router
// per node with ceil(log2 n) dimensions. Dimensions that fit within one
// cabinet are backplane links; higher dimensions are global cables with
// geometrically decreasing lengths (§4.2, Fig. 9(b)). Router cost is
// pin-scaled (the paper adjusts the hypercube router cost by pins).
func HypercubeBOM(n int, p Packaging) BOM {
	dims := 0
	for c := 1; c < n; c <<= 1 {
		dims++
	}
	b := BOM{
		Topology:        "hypercube",
		N:               n,
		RoutersPerNode:  1,
		RouterPortsUsed: dims + 1,
	}
	b.Links = append(b.Links, TerminalGroup())
	localDims := dims
	global := p.HypercubeCableLengths(n, dims)
	localDims = dims - len(global)
	if localDims > 0 {
		b.Links = append(b.Links, LinkGroup{
			Label: "local-dims", Class: Backplane, PerNode: float64(localDims),
		})
	}
	for i, l := range global {
		b.Links = append(b.Links, LinkGroup{
			Label:   fmt.Sprintf("global-dim-%d", dims-i),
			Class:   GlobalCable,
			PerNode: 1,
			Length:  l,
		})
	}
	return b
}
