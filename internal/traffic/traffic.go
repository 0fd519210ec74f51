// Package traffic implements the workloads used in the paper's evaluation:
// uniform random (benign), the worst-case adversarial pattern of §3.2
// (every node attached to router R_i sends to a random node attached to
// router R_{i+1}), and the standard permutation patterns used in
// interconnection-network studies for additional coverage.
package traffic

import (
	"fmt"

	"flatnet/internal/rng"
	"flatnet/internal/topo"
)

// Pattern maps a source node to a destination node, possibly randomly.
// Implementations must be safe to call from a single goroutine with any
// per-node RNG stream.
type Pattern interface {
	Name() string
	// Dest returns the destination for a packet injected at src.
	Dest(src topo.NodeID, r *rng.Source) topo.NodeID
}

// Uniform is uniform-random traffic over all nodes, self included. With
// self-destinations included, the expected load on every inter-router
// channel of a flattened butterfly equals the injection rate exactly,
// matching the paper's capacity normalization (2B/N = 1 flit/node/cycle).
type Uniform struct {
	N int
}

// NewUniform returns uniform random traffic over n nodes.
func NewUniform(n int) *Uniform { return &Uniform{N: n} }

// Name implements Pattern.
func (u *Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (u *Uniform) Dest(src topo.NodeID, r *rng.Source) topo.NodeID {
	return topo.NodeID(r.Intn(u.N))
}

// DestRange is Dest's law: uniform over every node.
func (u *Uniform) DestRange(topo.NodeID) (first, n int) { return 0, u.N }

// WorstCase is the adversarial pattern of §3.2: nodes are grouped by
// router (Concentration consecutive nodes per group) and every node in
// group i sends to a uniformly random node in group (i+1) mod Groups. With
// minimal routing all of a router's traffic then contends for the single
// channel to the next router.
type WorstCase struct {
	Concentration int
	Groups        int
}

// NewWorstCase builds the adversarial pattern for a network of
// groups*concentration nodes.
func NewWorstCase(concentration, groups int) *WorstCase {
	return &WorstCase{Concentration: concentration, Groups: groups}
}

// Name implements Pattern.
func (w *WorstCase) Name() string { return "worstcase" }

// Dest implements Pattern.
func (w *WorstCase) Dest(src topo.NodeID, r *rng.Source) topo.NodeID {
	g := (int(src)/w.Concentration + 1) % w.Groups
	return topo.NodeID(g*w.Concentration + r.Intn(w.Concentration))
}

// DestRange is Dest's law: uniform over the next group.
func (w *WorstCase) DestRange(src topo.NodeID) (first, n int) {
	return (int(src)/w.Concentration + 1) % w.Groups * w.Concentration, w.Concentration
}

// BitComplement sends node a to node (N-1)-a, N a power of two in spirit
// but any N works.
type BitComplement struct {
	N int
}

// NewBitComplement returns the bit-complement permutation over n nodes.
func NewBitComplement(n int) *BitComplement { return &BitComplement{N: n} }

// Name implements Pattern.
func (b *BitComplement) Name() string { return "bitcomp" }

// Dest implements Pattern.
func (b *BitComplement) Dest(src topo.NodeID, _ *rng.Source) topo.NodeID {
	return topo.NodeID(b.N - 1 - int(src))
}

// Transpose treats the node index as a 2b-bit number and swaps its halves:
// destination = (a << b | a >> b) mod N. N must be an even power of two.
type Transpose struct {
	N    int
	half uint
}

// NewTranspose returns the transpose permutation; n must be a power of four
// (so the address splits into two equal halves).
func NewTranspose(n int) (*Transpose, error) {
	bits := uint(0)
	for v := n; v > 1; v >>= 1 {
		if v&1 != 0 {
			return nil, fmt.Errorf("traffic: transpose needs power-of-two size, got %d", n)
		}
		bits++
	}
	if bits%2 != 0 {
		return nil, fmt.Errorf("traffic: transpose needs an even number of address bits, got %d", bits)
	}
	return &Transpose{N: n, half: bits / 2}, nil
}

// Name implements Pattern.
func (t *Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (t *Transpose) Dest(src topo.NodeID, _ *rng.Source) topo.NodeID {
	a := int(src)
	lo := a & ((1 << t.half) - 1)
	hi := a >> t.half
	return topo.NodeID(lo<<t.half | hi)
}

// Shuffle is the perfect-shuffle permutation: rotate the address left by
// one bit. N must be a power of two.
type Shuffle struct {
	N    int
	bits uint
}

// NewShuffle returns the shuffle permutation over n nodes (power of two).
func NewShuffle(n int) (*Shuffle, error) {
	bits := uint(0)
	for v := n; v > 1; v >>= 1 {
		if v&1 != 0 {
			return nil, fmt.Errorf("traffic: shuffle needs power-of-two size, got %d", n)
		}
		bits++
	}
	return &Shuffle{N: n, bits: bits}, nil
}

// Name implements Pattern.
func (s *Shuffle) Name() string { return "shuffle" }

// Dest implements Pattern.
func (s *Shuffle) Dest(src topo.NodeID, _ *rng.Source) topo.NodeID {
	a := int(src)
	top := a >> (s.bits - 1)
	return topo.NodeID(((a << 1) | top) & (s.N - 1))
}

// Tornado sends each group of Concentration nodes halfway around the
// router ring: group i to a random node of group (i + Groups/2 - ...) —
// classically (i + ceil(Groups/2) - 1) mod Groups; we use the common
// definition dest group = (i + Groups/2) mod Groups.
type Tornado struct {
	Concentration int
	Groups        int
}

// NewTornado builds a tornado pattern over router groups.
func NewTornado(concentration, groups int) *Tornado {
	return &Tornado{Concentration: concentration, Groups: groups}
}

// Name implements Pattern.
func (t *Tornado) Name() string { return "tornado" }

// Dest implements Pattern.
func (t *Tornado) Dest(src topo.NodeID, r *rng.Source) topo.NodeID {
	g := (int(src)/t.Concentration + t.Groups/2) % t.Groups
	return topo.NodeID(g*t.Concentration + r.Intn(t.Concentration))
}

// DestRange is Dest's law: uniform over the group halfway round.
func (t *Tornado) DestRange(src topo.NodeID) (first, n int) {
	return (int(src)/t.Concentration + t.Groups/2) % t.Groups * t.Concentration, t.Concentration
}

// Hotspot sends a fraction of all traffic to a small set of hot nodes and
// the remainder uniformly — the classic memory-controller contention
// workload.
type Hotspot struct {
	N        int
	Hot      []topo.NodeID
	Fraction float64 // probability a packet targets a hot node
	uniform  *Uniform
	label    string // overrides the reported name (incast)
}

// NewHotspot builds a hotspot pattern over n nodes. fraction of packets
// go to a uniformly chosen member of hot; the rest are uniform random.
func NewHotspot(n int, hot []topo.NodeID, fraction float64) (*Hotspot, error) {
	if len(hot) == 0 {
		return nil, fmt.Errorf("traffic: hotspot needs at least one hot node")
	}
	if fraction < 0 || fraction > 1 {
		return nil, fmt.Errorf("traffic: hotspot fraction %v out of [0,1]", fraction)
	}
	for _, h := range hot {
		if int(h) < 0 || int(h) >= n {
			return nil, fmt.Errorf("traffic: hot node %d out of range", h)
		}
	}
	return &Hotspot{N: n, Hot: append([]topo.NodeID(nil), hot...), Fraction: fraction,
		uniform: NewUniform(n)}, nil
}

// NewIncast builds the many-to-one degenerate case of Hotspot: every
// packet from every node targets the single sink node. Incast is the
// classic storage/parameter-server fan-in workload; the sink's terminal
// ejection channel is the only bottleneck, so throughput per node caps
// at 1/N regardless of topology.
func NewIncast(n int, sink topo.NodeID) (*Hotspot, error) {
	h, err := NewHotspot(n, []topo.NodeID{sink}, 1)
	if err != nil {
		return nil, err
	}
	h.label = "incast"
	return h, nil
}

// Name implements Pattern.
func (h *Hotspot) Name() string {
	if h.label != "" {
		return h.label
	}
	return "hotspot"
}

// Dest implements Pattern.
func (h *Hotspot) Dest(src topo.NodeID, r *rng.Source) topo.NodeID {
	if r.Bernoulli(h.Fraction) {
		return h.Hot[r.Intn(len(h.Hot))]
	}
	return h.uniform.Dest(src, r)
}

// RandPerm is a random permutation fixed at construction: every node has
// exactly one destination and every node receives from exactly one
// source. Unlike Uniform's per-packet randomness, a fixed permutation
// stresses specific channels for the whole run.
type RandPerm struct {
	table []topo.NodeID
}

// NewRandPerm draws a permutation of n nodes from the given seed.
func NewRandPerm(n int, seed uint64) *RandPerm {
	r := rng.New(seed)
	p := r.Perm(n)
	table := make([]topo.NodeID, n)
	for i, v := range p {
		table[i] = topo.NodeID(v)
	}
	return &RandPerm{table: table}
}

// Name implements Pattern.
func (rp *RandPerm) Name() string { return "randperm" }

// Dest implements Pattern.
func (rp *RandPerm) Dest(src topo.NodeID, _ *rng.Source) topo.NodeID {
	return rp.table[src]
}

// Fixed is an arbitrary fixed permutation (or any total map) given as a
// table. Useful for tests and custom adversaries.
type Fixed struct {
	Label string
	Table []topo.NodeID
}

// NewFixed wraps a destination table.
func NewFixed(label string, table []topo.NodeID) *Fixed {
	return &Fixed{Label: label, Table: table}
}

// Name implements Pattern.
func (f *Fixed) Name() string { return f.Label }

// Dest implements Pattern.
func (f *Fixed) Dest(src topo.NodeID, _ *rng.Source) topo.NodeID { return f.Table[src] }

// DestRange is Dest's law: the table entry alone.
func (f *Fixed) DestRange(src topo.NodeID) (first, n int) { return int(f.Table[src]), 1 }
