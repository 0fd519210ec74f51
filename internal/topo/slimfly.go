package topo

import (
	"fmt"
	"math/bits"
)

// SlimFly is the McKay-Miller-Širáň (MMS) diameter-2 topology of the
// Slim Fly proposal (Besta & Hoefler): routers are labeled (s, x, y) with
// s ∈ {0,1} and x, y ∈ GF(q) for an odd prime power q = 4w + δ,
// δ ∈ {1, -1}. Within block 0, (0,x,y) ~ (0,x,y') iff y-y' ∈ X; within
// block 1, (1,m,c) ~ (1,m,c') iff c-c' ∈ X'; across blocks,
// (0,x,y) ~ (1,m,c) iff y = mx + c. With the Cayley generator sets X/X'
// below the graph has 2q² routers of network degree k' = (3q-δ)/2 and
// diameter 2 — asymptotically optimal router count for that degree
// (≈ 0.89 of the Moore bound).
//
// Each router hosts P terminals; the Slim Fly default is P = ⌈k'/2⌉,
// which balances terminal and network bandwidth at the paper's operating
// point.
type SlimFly struct {
	Q     int // field size (odd prime power, q ≢ 0 mod 4)
	Delta int // +1 for q ≡ 1 (mod 4), -1 for q ≡ 3 (mod 4)
	P     int // terminals per router

	NetworkDegree int // k' = (3q-δ)/2
	NumRouters    int // 2q²
	NumNodes      int // 2q²·P

	diameter int
	avgHops  float64 // router-pair average minimal hops, self pairs included

	adj [][]int32 // sorted neighbor lists; port p+i reaches adj[r][i]
	g   *Graph
}

// SlimFlyDefaultConc returns the default terminals-per-router for field
// size q: ⌈k'/2⌉. It does not validate q.
func SlimFlyDefaultConc(q int) int {
	delta := 1
	if q%4 == 3 {
		delta = -1
	}
	return ((3*q-delta)/2 + 1) / 2
}

// NewSlimFly constructs the MMS Slim Fly over GF(q) with p terminals per
// router; p = 0 selects the default ⌈k'/2⌉. The construction verifies at
// build time — from the two-hop ball of one representative of each router
// orbit — that the generator sets actually yield diameter 2, so an invalid
// parameter combination is a returned error, never a silently wrong
// network.
func NewSlimFly(q, p int) (*SlimFly, error) {
	if q < 5 {
		return nil, paramErr("slimfly", "q", q, "MMS graphs need an odd prime power q >= 5")
	}
	switch q % 4 {
	case 0, 2:
		return nil, paramErr("slimfly", "q", q, "MMS graphs need q ≡ 1 or 3 (mod 4); even q has no valid generator sets")
	}
	f, ok := newGF(q)
	if !ok {
		return nil, paramErr("slimfly", "q", q, "not a prime power")
	}
	delta := 1
	if q%4 == 3 {
		delta = -1
	}
	if p == 0 {
		p = SlimFlyDefaultConc(q)
	}
	if p < 1 {
		return nil, paramErr("slimfly", "p", p, "need at least one terminal per router")
	}
	s := &SlimFly{
		Q:             q,
		Delta:         delta,
		P:             p,
		NetworkDegree: (3*q - delta) / 2,
		NumRouters:    2 * q * q,
		NumNodes:      2 * q * q * p,
	}
	if s.NumNodes > 1<<22 {
		return nil, paramErr("slimfly", "q", q, fmt.Sprintf("network of %d terminals exceeds the 4M construction cap", s.NumNodes))
	}
	if err := s.build(f); err != nil {
		return nil, err
	}
	return s, nil
}

// generators returns the Cayley sets X (block 0) and X' (block 1). For
// q = 4w+1 these are the even and odd powers of a primitive element ξ
// (the nonzero quadratic residues and non-residues); both are symmetric
// because -1 = ξ^(q-1)/2 is an even power. For q = 4w-1 (Hafner's case)
// they are ±{ξ^0, ξ^2, ..., ξ^(2w-2)} and ±{ξ^1, ξ^3, ..., ξ^(2w-1)},
// symmetric by construction.
func (s *SlimFly) generators(f *gf) (x, xp []int) {
	q := s.Q
	if s.Delta == 1 {
		for i := 0; i < (q-1)/2; i++ {
			x = append(x, f.xi(2*i))
			xp = append(xp, f.xi(2*i+1))
		}
		return x, xp
	}
	w := (q + 1) / 4
	for i := 0; i < w; i++ {
		x = append(x, f.xi(2*i), f.neg(f.xi(2*i)))
		xp = append(xp, f.xi(2*i+1), f.neg(f.xi(2*i+1)))
	}
	return x, xp
}

// routerID maps (s, x, y) to a router index.
func (s *SlimFly) routerID(block, x, y int) int { return block*s.Q*s.Q + x*s.Q + y }

// build constructs the adjacency lists and the channel graph, then
// verifies regularity and diameter 2.
func (s *SlimFly) build(f *gf) error {
	q, r, deg := s.Q, s.NumRouters, s.NetworkDegree
	x, xp := s.generators(f)
	// Every list is a fixed-capacity window of one slab: a router that
	// gains more than deg neighbors reallocates instead of overrunning the
	// next list, and the regularity check below rejects it.
	slab := make([]int32, r*deg)
	s.adj = make([][]int32, r)
	for i := range s.adj {
		s.adj[i] = slab[i*deg : i*deg : (i+1)*deg]
	}
	addEdge := func(a, b int) {
		s.adj[a] = append(s.adj[a], int32(b))
	}
	// Edges go in as block-0 Cayley, cross-block, block-1 Cayley, so every
	// list is its Cayley run plus an ascending cross-block run on the side
	// where the ids sort: sortInt32 below only orders the Cayley run. The
	// generator sets are symmetric (g ∈ X ⇒ -g ∈ X), so appending y+g for
	// every g covers both directions of each undirected Cayley edge.
	cayley := func(block int, gens []int) {
		for xx := 0; xx < q; xx++ {
			for y := 0; y < q; y++ {
				for _, g := range gens {
					addEdge(s.routerID(block, xx, y), s.routerID(block, xx, f.add(y, g)))
				}
			}
		}
	}
	cayley(0, x)
	// Cross-block edges: (0,x,y) ~ (1,m,c) iff y = mx + c.
	for xx := 0; xx < q; xx++ {
		for m := 0; m < q; m++ {
			for c := 0; c < q; c++ {
				y := f.add(f.mul(m, xx), c)
				addEdge(s.routerID(0, xx, y), s.routerID(1, m, c))
				addEdge(s.routerID(1, m, c), s.routerID(0, xx, y))
			}
		}
	}
	cayley(1, xp)
	for i := range s.adj {
		if len(s.adj[i]) != deg {
			return paramErr("slimfly", "q", q,
				fmt.Sprintf("construction is not %d-regular (router %d has degree %d)", deg, i, len(s.adj[i])))
		}
		sortInt32(s.adj[i])
		for j := 1; j < len(s.adj[i]); j++ {
			if s.adj[i][j] == s.adj[i][j-1] {
				return paramErr("slimfly", "q", q, "generator sets produce a multigraph")
			}
		}
	}
	// Verify diameter 2 and precompute the exact router-pair hop average
	// from one representative per router orbit (see RouterOrbits).
	reps, sizes := s.RouterOrbits()
	diameter, total, err := verifyDiameter2(q, s.adj, reps, sizes)
	if err != nil {
		return err
	}
	s.diameter = diameter
	s.avgHops = float64(total) / float64(r*r)

	// Channel graph: ports [0,P) are terminals, port P+i reaches adj[a][i]
	// both ways. Routers are wired in ascending order, each writing only
	// its own rows. Because every list is sorted, the k-th time router b
	// turns up as a neighbor, the router wiring it is adj[b][k]: b's
	// cursor is the peer port, no search needed.
	g := NewGraph(s.Name(), s.NumNodes, PortRun{r, s.P + deg})
	cursor := make([]int32, r)
	for a := 0; a < r; a++ {
		for t := 0; t < s.P; t++ {
			g.AttachNode(NodeID(a*s.P+t), RouterID(a), t, t, 1)
		}
		out := g.Routers[a].Out[s.P:]
		for i, b := range s.adj[a] {
			k := cursor[b]
			if int(k) >= len(s.adj[b]) || int(s.adj[b][k]) != a {
				return paramErr("slimfly", "q", q,
					fmt.Sprintf("construction is not symmetric (router %d's neighbor %d)", a, b))
			}
			cursor[b] = k + 1
			peerPort := int32(s.P) + k
			out[i] = OutPort{Kind: Network, Peer: b, PeerPort: peerPort, Latency: 1}
		}
	}
	if err := g.Validate(); err != nil {
		return err
	}
	s.g = g
	return nil
}

// verifyDiameter2 checks that every router of the graph adj (neighbor
// lists) lies within two hops of each orbit representative in reps, and returns the graph's diameter with the
// orbit-weighted sum Σᵢ sizes[i]·Σᵥ dist(reps[i], v). Each representative
// marks its ball of radius 2 in one reused bitset of len(adj) bits and
// counts it twice: after radius 1 (c₁ routers) and after radius 2. Full
// coverage leaves exactly 1, c₁-1 and len(adj)-c₁ routers at hops 0, 1
// and 2, so the sum is the one a BFS per representative would give.
// Short coverage re-runs the BFS to name the diameter, or disconnection,
// in a *ParamError on q.
func verifyDiameter2(q int, adj [][]int32, reps []RouterID, sizes []int) (diameter, total int, err error) {
	r := len(adj)
	reach := make([]uint64, (r+63)/64)
	mark := func(v int32) { reach[v>>6] |= 1 << (uint(v) & 63) }
	count := func() int {
		c := 0
		for _, w := range reach {
			c += bits.OnesCount64(w)
		}
		return c
	}
	for i, rep := range reps {
		clear(reach)
		mark(int32(rep))
		for _, v := range adj[rep] {
			mark(v)
		}
		c1 := count()
		for _, v := range adj[rep] {
			for _, w := range adj[v] {
				mark(w)
			}
		}
		if count() != r {
			return 0, 0, diameterErr(q, adj, reps)
		}
		total += sizes[i] * ((c1 - 1) + 2*(r-c1))
		switch {
		case c1 < r:
			diameter = 2
		case c1 > 1:
			diameter = max(diameter, 1)
		}
	}
	return diameter, total, nil
}

// diameterErr is verifyDiameter2's failure: a BFS from every
// representative finds the largest distance, or an unreachable router.
func diameterErr(q int, adj [][]int32, reps []RouterID) error {
	diameter := 0
	for _, rep := range reps {
		for v, d := range bfsAdj(adj, int(rep)) {
			if d < 0 {
				return paramErr("slimfly", "q", q,
					fmt.Sprintf("generator sets give a disconnected graph (router %d unreachable from %d)", v, rep))
			}
			diameter = max(diameter, d)
		}
	}
	return paramErr("slimfly", "q", q,
		fmt.Sprintf("generator sets give diameter %d, not the MMS diameter 2", diameter))
}

// bfsAdj returns hop distances from src over the adjacency lists adj, -1
// for an unreachable router.
func bfsAdj(adj [][]int32, src int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, len(adj))
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := int(queue[0])
		queue = queue[1:]
		for _, w := range adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Name returns e.g. "SF(q=5,p=4)".
func (s *SlimFly) Name() string { return fmt.Sprintf("SF(q=%d,p=%d)", s.Q, s.P) }

// Graph returns the channel graph.
func (s *SlimFly) Graph() *Graph { return s.g }

// Adjacency returns router r's sorted neighbor list; network port P+i on
// r reaches Adjacency(r)[i]. The returned slice is shared — read only.
func (s *SlimFly) Adjacency(r RouterID) []int32 { return s.adj[r] }

// Diameter returns the verified graph diameter (2 for every valid q).
func (s *SlimFly) Diameter() int { return s.diameter }

// MinHopsFrom returns the minimal hop counts from src to every router
// (a fresh slice; BFS over the adjacency lists).
func (s *SlimFly) MinHopsFrom(src RouterID) []int { return bfsAdj(s.adj, int(src)) }

// AvgUniformMinHops returns the exact router-pair average minimal hop
// count with self pairs included — uniform traffic over nodes is uniform
// over router pairs since every router hosts P terminals.
func (s *SlimFly) AvgUniformMinHops() float64 { return s.avgHops }

// RouterOrbits returns one representative per orbit of the automorphisms
// generated by the translations φ_{a,b}: (0,x,y) → (0,x+a,y+b),
// (1,m,c) → (1,m,c+b-ma), and the scalings ψ_μ: (0,x,y) → (0,μx,y),
// (1,m,c) → (1,m/μ,c) for μ ≠ 0. Both are valid for every generator-set
// choice: they preserve the differences y-y' and c-c' within a block and
// the incidence y = mx+c across blocks ((m/μ)(μx) = mx). The translations
// are transitive on block 0 and on each slope m of block 1; the scalings
// fix m = 0 and permute the nonzero slopes transitively. That leaves three
// orbits: block 0 (size q²), block 1 with m = 0 (size q) and block 1 with
// m ≠ 0 (size q(q-1)). Per-orbit BFS then yields exact global metrics
// from 3 sources instead of 2q².
func (s *SlimFly) RouterOrbits() ([]RouterID, []int) {
	q := s.Q
	return []RouterID{
			RouterID(s.routerID(0, 0, 0)),
			RouterID(s.routerID(1, 0, 0)),
			RouterID(s.routerID(1, 1, 0)),
		},
		[]int{q * q, q, q * (q - 1)}
}

// sortInt32 sorts in place (insertion sort: only a list's short Cayley
// run is out of order).
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
