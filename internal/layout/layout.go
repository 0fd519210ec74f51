// Package layout is a physical packaging model: it places every router of
// a topology into cabinets arranged on a 2-D machine-room floor (§4.2,
// Figs. 8 and 9 of the paper) and measures actual Manhattan cable lengths,
// rather than relying on the closed-form approximations (L_avg ≈ E/3 for
// the flattened butterfly, E/4 for the folded Clos, geometric for the
// hypercube). The measured lengths validate the paper's approximations and
// drive the §5.2 wire-delay comparison.
package layout

import (
	"fmt"
	"math"

	"flatnet/internal/cost"
	"flatnet/internal/topo"
)

// Point is a position on the machine-room floor, in meters.
type Point struct {
	X, Y float64
}

// Manhattan returns the Manhattan (rectilinear cable-tray) distance
// between two points — the paper's "minimal distance" metric (§5.2
// footnote 11).
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// FloorPlan arranges cabinets in a near-square grid. Cabinet depth is
// doubled to allow aisle spacing between rows (§4.3).
type FloorPlan struct {
	Cabinets int
	Cols     int
	Rows     int
	PitchX   float64 // cabinet-to-cabinet spacing along a row, meters
	PitchY   float64 // row-to-row spacing, meters
}

// NewFloorPlan lays out the given number of cabinets using the Table 3
// cabinet footprint, aiming for a square floor.
func NewFloorPlan(cabinets int, p cost.Packaging) FloorPlan {
	if cabinets < 1 {
		cabinets = 1
	}
	w, d := 0.57, 1.44 // Table 3 cabinet footprint
	d *= 2             // row spacing factor (§4.3)
	// Choose columns so the floor is as square as possible:
	// cols*w ~ rows*d with cols*rows >= cabinets.
	best := FloorPlan{Cabinets: cabinets, PitchX: w, PitchY: d}
	bestAspect := math.Inf(1)
	for cols := 1; cols <= cabinets; cols++ {
		rows := (cabinets + cols - 1) / cols
		width := float64(cols) * w
		depth := float64(rows) * d
		aspect := math.Max(width/depth, depth/width)
		if aspect < bestAspect {
			bestAspect = aspect
			best.Cols, best.Rows = cols, rows
		}
	}
	return best
}

// Center returns the floor position of cabinet i (row-major).
func (f FloorPlan) Center(i int) Point {
	col := i % f.Cols
	row := i / f.Cols
	return Point{
		X: (float64(col) + 0.5) * f.PitchX,
		Y: (float64(row) + 0.5) * f.PitchY,
	}
}

// Placement assigns every router of a topology to a cabinet.
type Placement struct {
	Plan      FloorPlan
	CabinetOf []int // router index -> cabinet index
	g         *topo.Graph
	overhead  float64 // per-cable vertical run overhead (meters)
}

// LinkLength returns the cable length of the channel leaving router r via
// output port port: zero for links within one cabinet (backplane), or the
// Manhattan cabinet distance plus overhead for inter-cabinet cables.
func (pl *Placement) LinkLength(r topo.RouterID, port int) (float64, error) {
	out := pl.g.Routers[r].Out[port]
	if out.Kind != topo.Network {
		return 0, fmt.Errorf("layout: router %d port %d is not a network channel", r, port)
	}
	a, b := pl.CabinetOf[r], pl.CabinetOf[out.Peer]
	if a == b {
		return 0, nil
	}
	return pl.Plan.Center(a).Manhattan(pl.Plan.Center(b)) + pl.overhead, nil
}

// RouterDistance returns the physical Manhattan distance between two
// routers' cabinets (no cable overhead) — the time-of-flight metric of
// §5.2.
func (pl *Placement) RouterDistance(a, b topo.RouterID) float64 {
	ca, cb := pl.CabinetOf[a], pl.CabinetOf[b]
	if ca == cb {
		return 0
	}
	return pl.Plan.Center(ca).Manhattan(pl.Plan.Center(cb))
}

// CableStats summarizes the cable lengths of every network channel.
type CableStats struct {
	Channels   int     // unidirectional network channels
	Backplane  int     // channels within one cabinet
	Cables     int     // inter-cabinet channels
	AvgLength  float64 // mean cable length over inter-cabinet channels, overhead excluded
	MaxLength  float64
	TotalMeter float64 // total cable meters (per unidirectional channel)
}

// Stats measures every network channel in the placement.
func (pl *Placement) Stats() CableStats {
	var st CableStats
	for r := range pl.g.Routers {
		for p, out := range pl.g.Routers[r].Out {
			if out.Kind != topo.Network {
				continue
			}
			st.Channels++
			l, err := pl.LinkLength(topo.RouterID(r), p)
			if err != nil {
				continue
			}
			if l == 0 {
				st.Backplane++
				continue
			}
			st.Cables++
			raw := l - pl.overhead
			st.AvgLength += raw
			st.TotalMeter += raw
			if raw > st.MaxLength {
				st.MaxLength = raw
			}
		}
	}
	if st.Cables > 0 {
		st.AvgLength /= float64(st.Cables)
	}
	return st
}

// place builds a Placement from a node-per-cabinet assignment: router r
// goes to cabinet nodeCabinet(r).
func place(g *topo.Graph, plan FloorPlan, cabinetOf []int, p cost.Packaging) *Placement {
	return &Placement{Plan: plan, CabinetOf: cabinetOf, g: g, overhead: p.CableOverhead}
}
