package topo

import "fmt"

// Dragonfly is the Kim-Dally-Scott-Abts hierarchical topology: G groups
// of A routers each, every group a complete local graph, every router
// owning H global channels, and exactly one global channel between every
// pair of groups when G = A·H + 1 (the canonical balanced size, with
// A = 2H and P = H terminals per router). Minimal routes are hierarchical
// — local, global, local — giving diameter 3.
//
// Global wiring: channel ℓ ∈ [0, A·H) of group g connects to group
// (g+ℓ+1) mod G, arriving there as channel G-2-ℓ; router (g, pos) owns
// channels [pos·H, (pos+1)·H). The wiring depends only on the offset
// ℓ, so the rotation g → g+1 (fixing pos) is a graph automorphism; so is
// the reflection described at RouterOrbits. This type is the wiring's one
// home: dragonfly routing calls MinHops, GlobalChannel, LocalPort and
// GlobalPort rather than keeping its own copy.
type Dragonfly struct {
	P int // terminals per router
	A int // routers per group
	H int // global channels per router

	Groups     int // A·H + 1
	NumRouters int
	NumNodes   int

	g *Graph
}

// NewDragonfly constructs the canonical maximum-size dragonfly for the
// given parameters; a = 0 selects the balanced a = 2h and p = 0 the
// balanced p = h.
func NewDragonfly(p, a, h int) (*Dragonfly, error) {
	if h < 1 {
		return nil, paramErr("dragonfly", "h", h, "need at least one global channel per router")
	}
	if a == 0 {
		a = 2 * h
	}
	if p == 0 {
		p = h
	}
	if a < 1 {
		return nil, paramErr("dragonfly", "a", a, "need at least one router per group")
	}
	if p < 1 {
		return nil, paramErr("dragonfly", "p", p, "need at least one terminal per router")
	}
	if a < h {
		return nil, paramErr("dragonfly", "a", a,
			fmt.Sprintf("fewer routers than the h=%d global channels balance across (radix mismatch: need a >= h)", h))
	}
	d := &Dragonfly{
		P:          p,
		A:          a,
		H:          h,
		Groups:     a*h + 1,
		NumRouters: (a*h + 1) * a,
		NumNodes:   (a*h + 1) * a * p,
	}
	if d.NumNodes > 1<<22 {
		return nil, paramErr("dragonfly", "h", h, fmt.Sprintf("network of %d terminals exceeds the 4M construction cap", d.NumNodes))
	}
	d.build()
	return d, nil
}

// Router returns the router index of (group, pos).
func (d *Dragonfly) Router(group, pos int) RouterID { return RouterID(group*d.A + pos) }

// Group returns router r's group.
func (d *Dragonfly) Group(r RouterID) int { return int(r) / d.A }

// Pos returns router r's position within its group.
func (d *Dragonfly) Pos(r RouterID) int { return int(r) % d.A }

// GlobalChannel returns, for distinct groups g1 and g2, the group-g1
// channel index ℓ reaching g2, the position of the router owning it, and
// the owning router's local channel slot ℓ mod H.
func (d *Dragonfly) GlobalChannel(g1, g2 int) (l, ownerPos, slot int) {
	l = ((g2-g1-1)%d.Groups + d.Groups) % d.Groups
	return l, l / d.H, l % d.H
}

// LocalPort returns the port on router position pos reaching position
// peer in the same group (pos != peer).
func (d *Dragonfly) LocalPort(pos, peer int) int {
	p := d.P + peer
	if peer > pos {
		p--
	}
	return p
}

// GlobalPort returns the port for the router's own global channel slot.
func (d *Dragonfly) GlobalPort(slot int) int { return d.P + d.A - 1 + slot }

// build wires the channel graph: ports [0,P) terminals, [P, P+A-1)
// local, [P+A-1, P+A-1+H) global.
func (d *Dragonfly) build() {
	ports := d.P + d.A - 1 + d.H
	g := NewGraph(d.Name(), d.NumNodes, PortRun{d.NumRouters, ports})
	for node := 0; node < d.NumNodes; node++ {
		g.AttachNode(NodeID(node), RouterID(node/d.P), node%d.P, node%d.P, 1)
	}
	for grp := 0; grp < d.Groups; grp++ {
		// Complete local graph.
		for a := 0; a < d.A; a++ {
			for b := a + 1; b < d.A; b++ {
				g.ConnectBidi(d.Router(grp, a), d.LocalPort(a, b), d.Router(grp, b), d.LocalPort(b, a), 1)
			}
		}
		// Global channels: connect each pair of groups once, from the
		// lower-offset side.
		for l := 0; l < d.A*d.H; l++ {
			peer := (grp + l + 1) % d.Groups
			lBack := d.Groups - 2 - l
			if grp < peer {
				g.ConnectBidi(d.Router(grp, l/d.H), d.GlobalPort(l%d.H),
					d.Router(peer, lBack/d.H), d.GlobalPort(lBack%d.H), 1)
			}
		}
	}
	if err := g.Validate(); err != nil {
		// The wiring above is total and closed-form; a violation is a
		// programming error, not a parameter error.
		panic(err)
	}
	d.g = g
}

// Name returns e.g. "DF(p=2,a=4,h=2)".
func (d *Dragonfly) Name() string { return fmt.Sprintf("DF(p=%d,a=%d,h=%d)", d.P, d.A, d.H) }

// Graph returns the channel graph.
func (d *Dragonfly) Graph() *Graph { return d.g }

// MinHops returns the hop count of the canonical hierarchical minimal
// route (local, global, local — the path dragonfly minimal routing
// takes). Dragonfly routing calls it for its hop counts and VC choice,
// and the zero-load oracle uses it. Occasional two-global shortcuts in
// the underlying graph are not taken by hierarchical routing and are
// intentionally not counted here; internal/analysis reports true graph
// distances.
func (d *Dragonfly) MinHops(a, b RouterID) int {
	if a == b {
		return 0
	}
	g1, g2 := d.Group(a), d.Group(b)
	if g1 == g2 {
		return 1
	}
	_, o1, _ := d.GlobalChannel(g1, g2)
	_, o2, _ := d.GlobalChannel(g2, g1)
	h := 1
	if d.Pos(a) != o1 {
		h++
	}
	if d.Pos(b) != o2 {
		h++
	}
	return h
}

// AvgUniformMinHops returns the exact router-pair average hierarchical
// minimal hop count with self pairs included, computed from one source
// per router orbit (see RouterOrbits): both automorphisms map a
// hierarchical minimal route onto one, so MinHops is constant on orbits.
func (d *Dragonfly) AvgUniformMinHops() float64 {
	reps, sizes := d.RouterOrbits()
	total := 0
	for i, rep := range reps {
		for b := 0; b < d.NumRouters; b++ {
			total += d.MinHops(rep, RouterID(b)) * sizes[i]
		}
	}
	return float64(total) / float64(d.NumRouters*d.NumRouters)
}

// Diameter returns the hierarchical routing diameter: 3 when any router
// pair needs local-global-local, less for degenerate sizes. It scans the
// router-orbit representatives' rows only (see RouterOrbits).
func (d *Dragonfly) Diameter() int {
	max := 0
	reps, _ := d.RouterOrbits()
	for _, rep := range reps {
		for b := 0; b < d.NumRouters; b++ {
			if h := d.MinHops(rep, RouterID(b)); h > max {
				max = h
			}
		}
	}
	return max
}

// RouterOrbits returns one representative per orbit of the automorphisms
// generated by the group rotation g → g+1 (fixing pos) and the reflection
// (g, pos) → (-g mod G, A-1-pos), which maps global slot s to H-1-s and so
// channel ℓ to G-2-ℓ: channel ℓ of group g reaches g+ℓ+1, and channel
// G-2-ℓ of group -g reaches -(g+ℓ+1). Local graphs are complete, so both
// maps preserve them. The representatives are routers (0, pos) for
// pos < ⌈A/2⌉; each orbit holds positions pos and A-1-pos of every group,
// 2·Groups routers, or Groups for the middle position of an odd A.
func (d *Dragonfly) RouterOrbits() ([]RouterID, []int) {
	n := (d.A + 1) / 2
	reps := make([]RouterID, n)
	sizes := make([]int, n)
	for pos := 0; pos < n; pos++ {
		reps[pos] = d.Router(0, pos)
		sizes[pos] = 2 * d.Groups
		if pos == d.A-1-pos {
			sizes[pos] = d.Groups
		}
	}
	return reps, sizes
}
