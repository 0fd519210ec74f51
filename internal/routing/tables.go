package routing

import (
	"math/bits"

	"flatnet/internal/topo"
)

// maxPairTableEntries caps the all-pairs differing-dimension table at 16 MB
// (uint32 entries). Configurations whose router count squared exceeds it —
// none of the paper's do — fall back to computing masks from the per-router
// digit table, which is still division-free.
const maxPairTableEntries = 1 << 22

// ffTables holds the precomputed coordinate, port and route tables for one
// flattened butterfly. The five FB routing algorithms consult these on
// every Route call instead of re-deriving digits with div/mod and differing
// dimensions with an allocating slice — per-flit route computation touches
// only table lookups and the live queue estimates.
//
// Every table is read-only after construction: newFFTables fills them
// once and no Route path ever writes them, so networks of concurrent
// sweep jobs may share them; all mutable routing inputs (queue and
// credit estimates) arrive through the RouterView instead.
//
// Masks use bit d-1 for dimension d ∈ [1, Dims].
type ffTables struct {
	dims       int
	k          int
	mult       int
	numRouters int

	digits   []uint16 // digits[r*dims + d-1]: dimension-d digit of router r
	routerOf []int32  // node -> attached router
	termPort []int32  // node -> ejection (terminal) port on that router
	portBase []int32  // portBase[d-1] + v*mult + c: port for (d, v, c)
	pairDiff []uint32 // all-pairs differing-dimension masks; nil when over budget
}

func newFFTables(f *topo.FlatFly) *ffTables {
	t := &ffTables{
		dims:       f.Dims,
		k:          f.K,
		mult:       f.Multiplicity,
		numRouters: f.NumRouters,
	}
	t.digits = make([]uint16, f.NumRouters*f.Dims)
	for r := 0; r < f.NumRouters; r++ {
		for d := 1; d <= f.Dims; d++ {
			t.digits[r*f.Dims+d-1] = uint16(f.RouterDigit(topo.RouterID(r), d))
		}
	}
	t.routerOf = make([]int32, f.NumNodes)
	t.termPort = make([]int32, f.NumNodes)
	for node := 0; node < f.NumNodes; node++ {
		t.routerOf[node] = int32(f.RouterOf(topo.NodeID(node)))
		t.termPort[node] = int32(f.TerminalIndex(topo.NodeID(node)))
	}
	t.portBase = make([]int32, f.Dims)
	for d := 1; d <= f.Dims; d++ {
		t.portBase[d-1] = int32(f.PortFor(d, 0, 0))
	}
	if f.NumRouters*f.NumRouters <= maxPairTableEntries {
		t.pairDiff = make([]uint32, f.NumRouters*f.NumRouters)
		for a := 0; a < f.NumRouters; a++ {
			for b := 0; b < f.NumRouters; b++ {
				t.pairDiff[a*f.NumRouters+b] = t.diffSlow(a, b)
			}
		}
	}
	return t
}

// diffSlow computes a differing-dimension mask from the digit table.
func (t *ffTables) diffSlow(a, b int) uint32 {
	da := t.digits[a*t.dims : a*t.dims+t.dims]
	db := t.digits[b*t.dims : b*t.dims+t.dims]
	var m uint32
	for i := range da {
		if da[i] != db[i] {
			m |= 1 << uint(i)
		}
	}
	return m
}

// diff returns the mask of dimensions (bit d-1 for dimension d) in which
// routers a and b have differing digits: the productive dimensions of a
// minimal route from a to b.
func (t *ffTables) diff(a, b topo.RouterID) uint32 {
	if t.pairDiff != nil {
		return t.pairDiff[int(a)*t.numRouters+int(b)]
	}
	return t.diffSlow(int(a), int(b))
}

// digit returns the dimension-d digit of router r.
func (t *ffTables) digit(r topo.RouterID, d int) int {
	return int(t.digits[int(r)*t.dims+d-1])
}

// minHops returns the minimal inter-router hop count between a and b.
func (t *ffTables) minHops(a, b topo.RouterID) int {
	return bits.OnesCount32(t.diff(a, b))
}

// portFor returns the port for (dimension d, target digit v, channel copy
// c) — the table-backed equivalent of topo.FlatFly.PortFor.
func (t *ffTables) portFor(d, v, c int) int {
	return int(t.portBase[d-1]) + v*t.mult + c
}
