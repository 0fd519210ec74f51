package topo

import "fmt"

// Butterfly is a conventional k-ary n-fly: n stages of k^(n-1) radix-k
// routers with unidirectional channels. Terminals inject at stage 0 and
// eject at stage n-1. There is exactly one path between every
// source/destination pair, so the topology has no path diversity (§2 of
// the paper).
//
// Router IDs are global: stage*k^(n-1) + position. At stage s a packet for
// destination d takes the output selected by digit n-1-s of d; the final
// stage's output sets digit 0 and ejects.
//
// A Dilation above 1 builds the dilated butterfly of Kruskal & Snir (the
// paper's §6 related work): every inter-stage channel is replicated
// Dilation times, adding path diversity at the price of Dilation-times
// the link cost and router pins — the trade-off the paper rejects in
// favor of flattening.
type Butterfly struct {
	K        int // ary (logical inputs/outputs per stage router)
	N        int // number of stages
	Dilation int // parallel channels per logical inter-stage channel

	NumNodes        int // k^n
	RoutersPerStage int // k^(n-1)
	NumRouters      int // n * k^(n-1)

	pow []int
	g   *Graph
}

// NewButterfly constructs a k-ary n-fly.
func NewButterfly(k, n int) (*Butterfly, error) {
	return NewDilatedButterfly(k, n, 1)
}

// NewDilatedButterfly constructs a k-ary n-fly whose inter-stage channels
// are replicated d times.
func NewDilatedButterfly(k, n, d int) (*Butterfly, error) {
	if k < 2 || n < 1 {
		return nil, fmt.Errorf("topo: butterfly needs k >= 2 and n >= 1, got k=%d n=%d", k, n)
	}
	if d < 1 {
		return nil, fmt.Errorf("topo: butterfly dilation must be >= 1, got %d", d)
	}
	b := &Butterfly{K: k, N: n, Dilation: d}
	b.pow = make([]int, n+1)
	b.pow[0] = 1
	for i := 1; i <= n; i++ {
		b.pow[i] = b.pow[i-1] * k
	}
	b.NumNodes = b.pow[n]
	b.RoutersPerStage = b.pow[n-1]
	b.NumRouters = n * b.RoutersPerStage
	b.build()
	return b, nil
}

func (b *Butterfly) build() {
	k, n, rps := b.K, b.N, b.RoutersPerStage
	// Port layout: logical channel o occupies ports [o*d, (o+1)*d).
	// Terminals use copy 0 of their logical port; at stage 0 the other
	// input copies are unused, likewise the other output copies at the
	// last stage.
	ports := k * b.Dilation
	g := NewGraph(b.Name(), b.NumNodes, PortRun{b.NumRouters, ports})
	// Terminals: node a = a_{n-1}..a_0 injects at stage-0 router with
	// position a_{n-1}..a_1 via input a_0, and ejects from the stage-(n-1)
	// router at the same position via output a_0.
	for node := 0; node < b.NumNodes; node++ {
		pos := node / k
		t := node % k
		g.AttachNodeSplit(NodeID(node), b.RouterAt(0, pos), b.PortFor(t, 0), b.RouterAt(n-1, pos), b.PortFor(t, 0), 1)
	}
	// Inter-stage wiring: stage s output o of position pos connects to
	// stage s+1 position pos with digit n-2-s replaced by o, arriving on
	// the input port holding pos's original digit; each logical channel
	// is replicated Dilation times.
	for s := 0; s < n-1; s++ {
		digit := n - 2 - s
		for pos := 0; pos < rps; pos++ {
			own := (pos / b.pow[digit]) % k
			for o := 0; o < k; o++ {
				dst := pos + (o-own)*b.pow[digit]
				for c := 0; c < b.Dilation; c++ {
					g.Connect(b.RouterAt(s, pos), b.PortFor(o, c), b.RouterAt(s+1, dst), b.PortFor(own, c), 1)
				}
			}
		}
	}
	b.g = g
}

// Name returns e.g. "32-ary 2-fly" or "8-ary 2-fly x2" when dilated.
func (b *Butterfly) Name() string {
	if b.Dilation > 1 {
		return fmt.Sprintf("%d-ary %d-fly x%d", b.K, b.N, b.Dilation)
	}
	return fmt.Sprintf("%d-ary %d-fly", b.K, b.N)
}

// PortFor returns the port index of copy c of logical channel o.
func (b *Butterfly) PortFor(o, c int) int { return o*b.Dilation + c }

// Graph returns the channel graph. Note that for the butterfly, a node's
// NodeRouter entry is its injection (stage 0) router; ejection happens at a
// stage n-1 router.
func (b *Butterfly) Graph() *Graph { return b.g }

// RouterAt returns the router ID at the given stage and position.
func (b *Butterfly) RouterAt(stage, pos int) RouterID {
	return RouterID(stage*b.RoutersPerStage + pos)
}

// StageOf returns the stage and position of a router.
func (b *Butterfly) StageOf(r RouterID) (stage, pos int) {
	return int(r) / b.RoutersPerStage, int(r) % b.RoutersPerStage
}

// OutputFor returns the output port a packet destined for node d must take
// at the given stage: digit n-1-stage of d (the terminal digit at the last
// stage).
func (b *Butterfly) OutputFor(stage int, d NodeID) int {
	return (int(d) / b.pow[b.N-1-stage]) % b.K
}

// AvgHops returns the inter-router hop count of any packet: every route
// traverses all n-1 inter-stage channels regardless of source and
// destination, which is what denies the butterfly path diversity.
func (b *Butterfly) AvgHops() float64 { return float64(b.N - 1) }

// EjectRouter returns the last-stage router from which node d ejects.
func (b *Butterfly) EjectRouter(d NodeID) RouterID {
	return b.RouterAt(b.N-1, int(d)/b.K)
}

// RouterOrbits reports one orbit per stage: adding a fixed digit vector t
// to the position of every router, at every stage at once, maps the
// channel (s, pos) → (s+1, pos with digit n-2-s set to o) onto the channel
// out of (s, pos+t) that sets the digit to o+t_digit, Dilation copies
// each, and keeps the k terminals entering each stage-0 router and
// leaving each last-stage router. Only the stage-0 orbit injects.
func (b *Butterfly) RouterOrbits() ([]RouterID, []int) {
	reps := make([]RouterID, b.N)
	sizes := make([]int, b.N)
	for s := range reps {
		reps[s] = b.RouterAt(s, 0)
		sizes[s] = b.RoutersPerStage
	}
	return reps, sizes
}
