package routing

import (
	"fmt"

	"flatnet/internal/sim"
	"flatnet/internal/topo"
)

// minRoute is a topology family's own minimal route, the only part of
// Slim Fly and dragonfly routing that differs between the two: twoPhase
// writes MIN, VAL, UGAL and UGAL-S once on top of it, as §3.1 defines
// VAL and UGAL on top of any minimal route.
type minRoute interface {
	// hops returns the minimal hop count from router a to router b.
	hops(a, b topo.RouterID) int
	// port returns the output port of the minimal next hop from r toward
	// dst (r != dst). Ties may draw from the router's stream.
	port(view *sim.RouterView, r, dst topo.RouterID) int
	// queue returns that hop's queue estimate without drawing from the
	// stream: UGAL's per-path cost.
	queue(view *sim.RouterView, r, dst topo.RouterID) int
}

// rule is the source-router policy of a two-phase router.
type rule int8

const (
	ruleMin  rule = iota // minimal only; Phase is never written
	ruleVal              // always through a random intermediate
	ruleUGAL             // minimal or Valiant by queue x hops
)

var ruleNames = [...]string{ruleMin: "MIN", ruleVal: "VAL", ruleUGAL: "UGAL"}

// twoPhase routes minimally, or through a random intermediate router in
// two minimal phases. VCs count hops remaining within the phase, phase
// one above a band of diam VCs, so VC indices strictly decrease along
// every route: the deadlock-freedom argument.
type twoPhase struct {
	route   minRoute
	family  string // name prefix: "SF" or "DF"
	rule    rule
	seq     bool // UGAL-S: sequential allocation
	diam    int  // hop bound of one minimal phase
	p       int  // terminals per router: node n sits on router n/p, port n%p
	routers int
}

// Name implements sim.Algorithm.
func (a *twoPhase) Name() string {
	if a.seq {
		return a.family + " UGAL-S"
	}
	return a.family + " " + ruleNames[a.rule]
}

// NumVCs implements sim.Algorithm.
func (a *twoPhase) NumVCs() int {
	if a.rule == ruleMin {
		return a.diam
	}
	return 2 * a.diam
}

// Sequential implements sim.Algorithm.
func (a *twoPhase) Sequential() bool { return a.seq }

// Route implements sim.Algorithm.
func (a *twoPhase) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	r := view.Router()
	dst := topo.RouterID(int(p.Dst) / a.p)
	if a.rule != ruleMin {
		if p.Phase == sim.PhaseNew {
			a.choose(view, p, r, dst)
		}
		if p.Phase == sim.PhaseNonMinimal {
			if inter := topo.RouterID(p.Inter); inter != r && inter != dst {
				return a.hop(view, r, inter, a.diam)
			}
			p.Phase = sim.PhaseMinimal
		}
	}
	if r == dst {
		return sim.OutRef{Port: int(p.Dst) % a.p, VC: 0}
	}
	return a.hop(view, r, dst, 0)
}

// hop returns the minimal next hop toward dst on the hops-remaining VC
// offset by vcBase.
func (a *twoPhase) hop(view *sim.RouterView, r, dst topo.RouterID, vcBase int) sim.OutRef {
	return sim.OutRef{Port: a.route.port(view, r, dst), VC: vcBase + a.route.hops(r, dst) - 1}
}

// choose makes the source-router decision. The intermediate is drawn
// first under every rule. VAL always takes it; UGAL takes it only when
// the Valiant route's queue x hops product is strictly the smaller.
func (a *twoPhase) choose(view *sim.RouterView, p *sim.Packet, r, dst topo.RouterID) {
	b := topo.RouterID(view.RNG().Intn(a.routers))
	if a.rule == ruleVal {
		p.Inter = int32(b)
		p.Phase = sim.PhaseNonMinimal
		return
	}
	if b == r || b == dst || r == dst {
		p.Phase = sim.PhaseMinimal
		return
	}
	hMin := a.route.hops(r, dst)
	hNM := a.route.hops(r, b) + a.route.hops(b, dst)
	if a.route.queue(view, r, dst)*hMin <= a.route.queue(view, r, b)*hNM {
		p.Phase = sim.PhaseMinimal
	} else {
		p.Phase = sim.PhaseNonMinimal
		p.Inter = int32(b)
	}
}

// parse sets a's rule from an algorithm name: the short forms "min",
// "val", "ugal", "ugal-s", their upper-case spellings, "MIN AD", and the
// long forms "<family> MIN" … "<family> UGAL-S". topology names the
// family in the error for any other name.
func (a *twoPhase) parse(name, topology string) error {
	switch name {
	case "min", "MIN", "MIN AD", a.family + " MIN":
		a.rule = ruleMin
	case "val", "VAL", a.family + " VAL":
		a.rule = ruleVal
	case "ugal", "UGAL", a.family + " UGAL":
		a.rule = ruleUGAL
	case "ugal-s", "UGAL-S", a.family + " UGAL-S":
		a.rule, a.seq = ruleUGAL, true
	default:
		return fmt.Errorf("routing: unknown %s algorithm %q", topology, name)
	}
	return nil
}

// maxDistTableEntries caps the all-pairs hop-distance table Slim Fly
// routing precomputes (uint8 entries, 16 MB). Instances past the cap are
// analytic-mode material, not simulation material.
const maxDistTableEntries = 1 << 24

// slimFlyMin is minimal adaptive routing on the Slim Fly: among the
// neighbours one hop closer to the destination, the channel with the
// shortest queue. The distance table is read-only after construction, so
// networks of concurrent sweep jobs may share it.
type slimFlyMin struct {
	s    *topo.SlimFly
	dist []uint8 // dist[a*NumRouters+b]: minimal hops from a to b
}

// NewSlimFlyAlgorithm constructs a Slim Fly algorithm by name: "min",
// "val", "ugal" or "ugal-s" (long forms "SF MIN", "SF VAL", "SF UGAL",
// "SF UGAL-S"). The MMS diameter of 2 bounds each phase, so MIN uses 2
// VCs and the two-phase rules 4.
func NewSlimFlyAlgorithm(name string, s *topo.SlimFly) (sim.Algorithm, error) {
	m := &slimFlyMin{s: s}
	a := &twoPhase{route: m, family: "SF", diam: s.Diameter(), p: s.P, routers: s.NumRouters}
	if err := a.parse(name, "slimfly"); err != nil {
		return nil, err
	}
	n := s.NumRouters
	if n*n > maxDistTableEntries {
		return nil, fmt.Errorf("routing: slimfly q=%d has %d routers; the %d-entry distance table cap is exceeded (use analytic mode)",
			s.Q, n, maxDistTableEntries)
	}
	m.dist = make([]uint8, n*n)
	for r := 0; r < n; r++ {
		for b, h := range s.MinHopsFrom(topo.RouterID(r)) {
			m.dist[r*n+b] = uint8(h)
		}
	}
	return a, nil
}

func (m *slimFlyMin) hops(a, b topo.RouterID) int {
	return int(m.dist[int(a)*m.s.NumRouters+int(b)])
}

func (m *slimFlyMin) port(view *sim.RouterView, r, dst topo.RouterID) int {
	want := uint8(m.hops(r, dst) - 1)
	pick := newMinPicker(view)
	for i, w := range m.s.Adjacency(r) {
		if m.dist[int(w)*m.s.NumRouters+int(dst)] == want {
			pick.offer(view.QueueEstPort(m.s.P+i), m.s.P+i)
		}
	}
	return pick.bestArg
}

func (m *slimFlyMin) queue(view *sim.RouterView, r, dst topo.RouterID) int {
	want := uint8(m.hops(r, dst) - 1)
	c := newCostOnly()
	for i, w := range m.s.Adjacency(r) {
		if m.dist[int(w)*m.s.NumRouters+int(dst)] == want {
			c.offer(view.QueueEstPort(m.s.P + i))
		}
	}
	return c.best
}

// dragonflyMin is the dragonfly's canonical hierarchical minimal route:
// local to the owner of the global channel, the global channel, then
// local to the destination (topo.Dragonfly.MinHops). The route is unique,
// so minimal dragonfly routing is oblivious.
type dragonflyMin struct{ d *topo.Dragonfly }

// NewDragonflyAlgorithm constructs a dragonfly algorithm by name: "min",
// "val", "ugal" or "ugal-s" (long forms "DF MIN", "DF VAL", "DF UGAL",
// "DF UGAL-S"). A hierarchical route takes at most 3 hops, so MIN uses 3
// VCs and the two-phase rules 6.
func NewDragonflyAlgorithm(name string, d *topo.Dragonfly) (sim.Algorithm, error) {
	a := &twoPhase{route: dragonflyMin{d}, family: "DF", diam: 3, p: d.P, routers: d.NumRouters}
	if err := a.parse(name, "dragonfly"); err != nil {
		return nil, err
	}
	return a, nil
}

func (m dragonflyMin) hops(a, b topo.RouterID) int { return m.d.MinHops(a, b) }

func (m dragonflyMin) port(_ *sim.RouterView, r, dst topo.RouterID) int {
	d := m.d
	g1, g2 := d.Group(r), d.Group(dst)
	if g1 == g2 {
		return d.LocalPort(d.Pos(r), d.Pos(dst))
	}
	_, owner, slot := d.GlobalChannel(g1, g2)
	if d.Pos(r) == owner {
		return d.GlobalPort(slot)
	}
	return d.LocalPort(d.Pos(r), owner)
}

func (m dragonflyMin) queue(view *sim.RouterView, r, dst topo.RouterID) int {
	return view.QueueEstPort(m.port(view, r, dst))
}
