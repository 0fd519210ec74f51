package routing

import (
	"fmt"

	"flatnet/internal/sim"
	"flatnet/internal/topo"
)

// maxDistTableEntries caps the all-pairs hop-distance table Slim Fly
// routing precomputes (uint8 entries, 16 MB). Instances past the cap are
// analytic-mode material, not simulation material.
const maxDistTableEntries = 1 << 24

// sfTables holds the precomputed terminal, port and distance tables for
// one Slim Fly. As with ffTables, every table is read-only after
// construction, so networks of concurrent sweep jobs may share them.
type sfTables struct {
	p          int // terminals per router; network port base
	degree     int
	numRouters int

	routerOf []int32 // node -> attached router
	termPort []int32 // node -> ejection port
	nbr      []int32 // nbr[r*degree+i]: i-th neighbor of router r (port p+i)
	dist     []uint8 // all-pairs minimal hop counts
}

func newSFTables(s *topo.SlimFly) (*sfTables, error) {
	r := s.NumRouters
	if r*r > maxDistTableEntries {
		return nil, fmt.Errorf("routing: slimfly q=%d has %d routers; the %d-entry distance table cap is exceeded (use analytic mode)",
			s.Q, r, maxDistTableEntries)
	}
	t := &sfTables{p: s.P, degree: s.NetworkDegree, numRouters: r}
	t.routerOf = make([]int32, s.NumNodes)
	t.termPort = make([]int32, s.NumNodes)
	for n := 0; n < s.NumNodes; n++ {
		t.routerOf[n] = int32(n / s.P)
		t.termPort[n] = int32(n % s.P)
	}
	t.nbr = make([]int32, r*t.degree)
	for a := 0; a < r; a++ {
		copy(t.nbr[a*t.degree:], s.Adjacency(topo.RouterID(a)))
	}
	t.dist = make([]uint8, r*r)
	// BFS from every router; diameter is 2, so a two-level frontier scan
	// beats a queue.
	for src := 0; src < r; src++ {
		row := t.dist[src*r : src*r+r]
		for i := range row {
			row[i] = 0xff
		}
		row[src] = 0
		frontier := []int32{int32(src)}
		for d := uint8(1); len(frontier) > 0; d++ {
			var next []int32
			for _, v := range frontier {
				for _, w := range t.nbr[int(v)*t.degree : int(v+1)*t.degree] {
					if row[w] == 0xff {
						row[w] = d
						next = append(next, w)
					}
				}
			}
			frontier = next
		}
	}
	return t, nil
}

// hops returns the minimal hop count between routers a and b.
func (t *sfTables) hops(a, b topo.RouterID) int {
	return int(t.dist[int(a)*t.numRouters+int(b)])
}

// sfBase carries the shared Slim Fly routing helpers.
type sfBase struct {
	s *topo.SlimFly
	t *sfTables
}

// eject returns the terminal-port decision at the destination router.
func (b sfBase) eject(p *sim.Packet) sim.OutRef {
	return sim.OutRef{Port: int(b.t.termPort[p.Dst]), VC: 0}
}

// minAdaptiveHop picks, among the productive neighbors (those one hop
// closer to dst), the channel with the shortest queue; the VC is hops
// remaining offset by vcBase, so VC indices strictly decrease along any
// route — the deadlock-freedom argument.
func (b sfBase) minAdaptiveHop(view *sim.RouterView, r, dst topo.RouterID, vcBase int) sim.OutRef {
	t := b.t
	hopsLeft := t.hops(r, dst)
	want := uint8(hopsLeft - 1)
	row := t.dist[:]
	m := newMinPicker(view)
	base := int(r) * t.degree
	for i := 0; i < t.degree; i++ {
		w := t.nbr[base+i]
		if row[int(w)*t.numRouters+int(dst)] == want {
			port := t.p + i
			m.offer(view.QueueEstPort(port), port)
		}
	}
	return sim.OutRef{Port: m.bestArg, VC: vcBase + hopsLeft - 1}
}

// minQueueProductive returns the queue estimate of the channel the
// minimal-adaptive hop would take toward dst.
func (b sfBase) minQueueProductive(view *sim.RouterView, r, dst topo.RouterID) int {
	t := b.t
	if r == dst {
		return 0
	}
	want := uint8(t.hops(r, dst) - 1)
	m := newCostOnly()
	base := int(r) * t.degree
	for i := 0; i < t.degree; i++ {
		w := t.nbr[base+i]
		if t.dist[int(w)*t.numRouters+int(dst)] == want {
			m.offer(view.QueueEstPort(t.p + i))
		}
	}
	return m.best
}

// SlimFlyMin is minimal adaptive routing on the Slim Fly: at every hop,
// the productive channel with the shortest queue. The MMS diameter of 2
// means 2 hops-remaining VCs suffice.
type SlimFlyMin struct{ sfBase }

// NewSlimFlyMin builds minimal adaptive routing for a Slim Fly.
func NewSlimFlyMin(s *topo.SlimFly) (*SlimFlyMin, error) {
	t, err := newSFTables(s)
	if err != nil {
		return nil, err
	}
	return &SlimFlyMin{sfBase{s, t}}, nil
}

// Name implements sim.Algorithm.
func (a *SlimFlyMin) Name() string { return "SF MIN" }

// NumVCs implements sim.Algorithm.
func (a *SlimFlyMin) NumVCs() int { return 2 }

// Sequential implements sim.Algorithm.
func (a *SlimFlyMin) Sequential() bool { return false }

// Route implements sim.Algorithm.
func (a *SlimFlyMin) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	r := view.Router()
	dst := topo.RouterID(a.t.routerOf[p.Dst])
	if r == dst {
		return a.eject(p)
	}
	return a.minAdaptiveHop(view, r, dst, 0)
}

// SlimFlyValiant is Valiant routing on the Slim Fly: minimal-adaptively
// to a uniformly random intermediate router, then minimal-adaptively to
// the destination. Each phase takes at most 2 hops, so 4 VCs — phase one
// in the upper band, phase two in the lower — keep VC indices strictly
// decreasing along every route.
type SlimFlyValiant struct{ sfBase }

// NewSlimFlyValiant builds VAL for a Slim Fly.
func NewSlimFlyValiant(s *topo.SlimFly) (*SlimFlyValiant, error) {
	t, err := newSFTables(s)
	if err != nil {
		return nil, err
	}
	return &SlimFlyValiant{sfBase{s, t}}, nil
}

// Name implements sim.Algorithm.
func (a *SlimFlyValiant) Name() string { return "SF VAL" }

// NumVCs implements sim.Algorithm.
func (a *SlimFlyValiant) NumVCs() int { return 4 }

// Sequential implements sim.Algorithm.
func (a *SlimFlyValiant) Sequential() bool { return false }

// Route implements sim.Algorithm.
func (a *SlimFlyValiant) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	r := view.Router()
	dst := topo.RouterID(a.t.routerOf[p.Dst])
	if p.Phase == sim.PhaseNew {
		p.Inter = int32(view.RNG().Intn(a.t.numRouters))
		p.Phase = sim.PhaseNonMinimal
	}
	if p.Phase == sim.PhaseNonMinimal && (topo.RouterID(p.Inter) == r || topo.RouterID(p.Inter) == dst) {
		p.Phase = sim.PhaseMinimal
	}
	if p.Phase == sim.PhaseNonMinimal {
		return a.minAdaptiveHop(view, r, topo.RouterID(p.Inter), 2)
	}
	if r == dst {
		return a.eject(p)
	}
	return a.minAdaptiveHop(view, r, dst, 0)
}

// SlimFlyUGAL is UGAL on the Slim Fly: each packet chooses minimal or
// Valiant at its source router by comparing queue-length x hop-count
// products, exactly as the flattened-butterfly UGAL does. The sequential
// variant updates queue state between same-cycle decisions.
type SlimFlyUGAL struct {
	sfBase
	seq bool
}

// NewSlimFlyUGAL builds greedy UGAL for a Slim Fly.
func NewSlimFlyUGAL(s *topo.SlimFly) (*SlimFlyUGAL, error) {
	t, err := newSFTables(s)
	if err != nil {
		return nil, err
	}
	return &SlimFlyUGAL{sfBase{s, t}, false}, nil
}

// NewSlimFlyUGALS builds UGAL-S (sequential allocation) for a Slim Fly.
func NewSlimFlyUGALS(s *topo.SlimFly) (*SlimFlyUGAL, error) {
	t, err := newSFTables(s)
	if err != nil {
		return nil, err
	}
	return &SlimFlyUGAL{sfBase{s, t}, true}, nil
}

// Name implements sim.Algorithm.
func (a *SlimFlyUGAL) Name() string {
	if a.seq {
		return "SF UGAL-S"
	}
	return "SF UGAL"
}

// NumVCs implements sim.Algorithm.
func (a *SlimFlyUGAL) NumVCs() int { return 4 }

// Sequential implements sim.Algorithm.
func (a *SlimFlyUGAL) Sequential() bool { return a.seq }

// Route implements sim.Algorithm.
func (a *SlimFlyUGAL) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	r := view.Router()
	dst := topo.RouterID(a.t.routerOf[p.Dst])
	if p.Phase == sim.PhaseNew {
		a.decide(view, p, r, dst)
	}
	if p.Phase == sim.PhaseNonMinimal && topo.RouterID(p.Inter) == r {
		p.Phase = sim.PhaseMinimal
	}
	if p.Phase == sim.PhaseNonMinimal {
		return a.minAdaptiveHop(view, r, topo.RouterID(p.Inter), 2)
	}
	if r == dst {
		return a.eject(p)
	}
	return a.minAdaptiveHop(view, r, dst, 0)
}

// decide makes the source-router choice between minimal and Valiant
// using queue-length x hop-count products (§3.1 semantics).
func (a *SlimFlyUGAL) decide(view *sim.RouterView, p *sim.Packet, r, dst topo.RouterID) {
	b := topo.RouterID(view.RNG().Intn(a.t.numRouters))
	if b == r || b == dst || r == dst {
		p.Phase = sim.PhaseMinimal
		return
	}
	hMin := a.t.hops(r, dst)
	hNM := a.t.hops(r, b) + a.t.hops(b, dst)
	qMin := a.minQueueProductive(view, r, dst)
	qNM := a.minQueueProductive(view, r, b)
	if qMin*hMin <= qNM*hNM {
		p.Phase = sim.PhaseMinimal
	} else {
		p.Phase = sim.PhaseNonMinimal
		p.Inter = int32(b)
	}
}

// NewSlimFlyAlgorithm constructs a Slim Fly algorithm by name: "min",
// "val", "ugal" or "ugal-s" (long forms "SF MIN", "SF VAL", "SF UGAL",
// "SF UGAL-S").
func NewSlimFlyAlgorithm(name string, s *topo.SlimFly) (sim.Algorithm, error) {
	switch name {
	case "min", "MIN", "MIN AD", "SF MIN":
		return NewSlimFlyMin(s)
	case "val", "VAL", "SF VAL":
		return NewSlimFlyValiant(s)
	case "ugal", "UGAL", "SF UGAL":
		return NewSlimFlyUGAL(s)
	case "ugal-s", "UGAL-S", "SF UGAL-S":
		return NewSlimFlyUGALS(s)
	default:
		return nil, fmt.Errorf("routing: unknown slimfly algorithm %q", name)
	}
}
