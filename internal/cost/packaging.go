package cost

import "math"

// Packaging holds the Table 3 technology and packaging assumptions,
// representative of the Cray BlackWidow.
type Packaging struct {
	// Radix is the reference router radix (64).
	Radix int
	// SignalsPerPort is the number of differential pairs per port per
	// direction (3), so a unidirectional channel carries SignalsPerPort
	// signals and a bidirectional link twice that.
	SignalsPerPort int
	// NodesPerCabinet is the packaging density per cabinet (128).
	NodesPerCabinet int
	// Density is the floor density in nodes per square meter (75),
	// already accounting for aisle spacing between cabinet rows.
	Density float64
	// CableOverhead is the extra cable length (meters) added to every
	// inter-cabinet cable for the vertical runs at each end (2 m).
	CableOverhead float64
	// LocalCableLength is the assumed length of a short cable between
	// adjacent cabinets; at 2 m the Table 2 electrical model prices it at
	// the paper's quoted $5.34 per signal.
	LocalCableLength float64
}

// DefaultPackaging returns the Table 3 values.
func DefaultPackaging() Packaging {
	return Packaging{
		Radix:            64,
		SignalsPerPort:   3,
		NodesPerCabinet:  128,
		Density:          75,
		CableOverhead:    2,
		LocalCableLength: 2,
	}
}

// Edge returns E, the length of one edge of the 2-D cabinet layout for n
// nodes: E = sqrt(N/D) (§4.2).
func (p Packaging) Edge(n int) float64 {
	if n <= 0 {
		return 0
	}
	return math.Sqrt(float64(n) / p.Density)
}

// GlobalCableLength returns the average length of a global cable in a
// machine of n nodes for the given topology family's routing of cables:
// the paper's §4.2 estimates are E/3 for the flattened butterfly and
// conventional butterfly (cables run within the 2-D layout) and E/4 for
// the folded Clos (cables only run to a central router cabinet, Lmax =
// E/2). Cable overhead is added on top.
func (p Packaging) GlobalCableLength(n int, fraction float64) float64 {
	return p.Edge(n)*fraction + p.CableOverhead
}

// HypercubeCableLengths returns the per-dimension cable lengths of a
// hypercube with the given total dimensions: dimensions that fit within a
// cabinet are backplane links (length 0 here; priced as backplane), and
// the remaining global dimensions have geometrically decreasing lengths
// E/2, E/4, ... (§4.2), plus overhead. The returned slice has one entry
// per global dimension, longest first.
func (p Packaging) HypercubeCableLengths(n, dims int) []float64 {
	localDims := bits(p.NodesPerCabinet)
	if dims <= localDims {
		return nil
	}
	e := p.Edge(n)
	out := make([]float64, 0, dims-localDims)
	frac := 2.0
	for d := dims; d > localDims; d-- {
		out = append(out, e/frac+p.CableOverhead)
		frac *= 2
	}
	return out
}

// bits returns floor(log2(v)).
func bits(v int) int {
	b := 0
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}
