// Package routing implements the routing algorithms evaluated in the
// paper: on the flattened butterfly, minimal adaptive (MIN AD), Valiant
// (VAL), UGAL with greedy and sequential allocation (UGAL, UGAL-S) and
// adaptive Clos routing (CLOS AD) — §3.1; plus the baselines of Table 1:
// destination-based routing on the conventional butterfly, adaptive
// sequential routing on the folded Clos, and e-cube on the hypercube.
// The Slim Fly and the dragonfly share one two-phase router (min, VAL,
// UGAL, UGAL-S) over each family's own minimal route.
package routing

import (
	"fmt"
	"math"
	"math/bits"

	"flatnet/internal/rng"
	"flatnet/internal/sim"
	"flatnet/internal/topo"
)

// minPicker tracks the minimum cost offered so far and the argument that
// came with it, breaking ties uniformly at random from the router's
// stream.
type minPicker struct {
	rng     *rng.Source
	best    int
	bestArg int
	ties    int
}

func newMinPicker(view *sim.RouterView) minPicker {
	return minPicker{rng: view.RNG(), best: 1 << 30, bestArg: -1}
}

// offer considers a candidate with the given cost and argument. The tie
// case is outlined so that offer itself inlines into its callers' loops.
func (m *minPicker) offer(cost, arg int) {
	if cost < m.best {
		m.best, m.bestArg, m.ties = cost, arg, 1
	} else if cost == m.best {
		m.tie(arg)
	}
}

// tie counts one more candidate at the best cost; reservoir sampling
// keeps the pick uniform among them.
func (m *minPicker) tie(arg int) {
	m.ties++
	if m.rng.Intn(m.ties) == 0 {
		m.bestArg = arg
	}
}

// offerRow offers the ports lo..hi-1 of a queue-estimate row
// (sim.RouterView.QueueEstRow) in ascending order, each at cost row[port]
// with the port as its argument, leaving out port skip (-1 for none). It
// is offer(int(row[p]), p) for each of them: the same pick, and Intn(ties)
// drawn at exactly the same elements, which every replayed run depends on
// (TestOfferRowMatchesOfferLoop). The scan is written out so that the
// running minimum stays in registers across the row; the skipped port
// splits the window in two so that the loop does not test for it.
func (m *minPicker) offerRow(row []int32, lo, hi, skip int) {
	best, arg, ties := m.best, m.bestArg, m.ties
	end := hi
	if lo <= skip && skip < hi {
		end = skip
	}
	for {
		for i, c := range row[lo:end] {
			cost := int(c)
			if cost > best {
				continue
			}
			if cost < best {
				best, arg, ties = cost, lo+i, 1
				continue
			}
			ties++
			if m.rng.Intn(ties) == 0 {
				arg = lo + i
			}
		}
		if end == hi {
			break
		}
		lo, end = end+1, hi
	}
	m.best, m.bestArg, m.ties = best, arg, ties
}

// ffBase carries shared flattened-butterfly routing helpers. All per-flit
// coordinate work reads the precomputed ffTables; the FlatFly itself is
// kept only for construction-time facts (K, Dims, Multiplicity,
// NumRouters).
type ffBase struct {
	f *topo.FlatFly
	t *ffTables
}

func newFFBase(f *topo.FlatFly) ffBase { return ffBase{f: f, t: newFFTables(f)} }

// costOnly tracks a running minimum cost where the winning argument is
// irrelevant (queue-depth estimates for route decisions); unlike
// minPicker it needs no tie-breaking randomness.
type costOnly struct{ best int }

func newCostOnly() costOnly { return costOnly{best: 1 << 30} }

func (c *costOnly) offer(cost int) {
	if cost < c.best {
		c.best = cost
	}
}

// offerRow offers the estimates row[lo:hi], leaving out index skip (-1
// for none): minPicker.offerRow without the argument or the randomness,
// so the scan needs no branch per port.
func (c *costOnly) offerRow(row []int32, lo, hi, skip int) {
	if lo <= skip && skip < hi {
		c.offer(rowMin(row[lo:skip]))
		lo = skip + 1
	}
	c.offer(rowMin(row[lo:hi]))
}

// rowMin returns the least of seg, or MaxInt32 (a cost no offer accepts)
// if seg is empty.
func rowMin(seg []int32) int {
	best := int32(math.MaxInt32)
	for _, v := range seg {
		best = min(best, v)
	}
	return int(best)
}

// eject returns the terminal-port decision for a packet at its
// destination router.
func (b ffBase) eject(p *sim.Packet) sim.OutRef {
	return sim.OutRef{Port: int(b.t.termPort[p.Dst]), VC: 0}
}

// bestCopyPort returns the port for (dim, digit) with the shortest queue
// among the parallel channel copies, which sit side by side in the row.
func (b ffBase) bestCopyPort(view *sim.RouterView, d, v int) (port, cost int) {
	m := newMinPicker(view)
	lo := b.t.portFor(d, v, 0)
	for p, c := range view.QueueEstRow()[lo : lo+b.t.mult] {
		m.offer(int(c), lo+p)
	}
	return m.bestArg, m.best
}

// dimRow returns the window [lo, hi) of a queue-estimate row holding
// dimension d's ports when channels are not duplicated: digit v's port is
// lo+v, so the window is the dimension's candidates in digit order and a
// row scan replaces one bestCopyPort call per digit. With Multiplicity > 1
// ok is false and the caller nests a per-copy pick inside its scan.
func (b ffBase) dimRow(d int) (lo, hi int, ok bool) {
	lo = b.t.portFor(d, 0, 0)
	return lo, lo + b.t.k, b.t.mult == 1
}

// minAdaptiveHop picks the productive channel with the shortest queue
// (§3.1 MIN AD) for a packet at router r destined to router dst, and
// returns the decision with VC chosen by hops remaining offset by vcBase.
func (b ffBase) minAdaptiveHop(view *sim.RouterView, r, dst topo.RouterID, vcBase int) sim.OutRef {
	diff := b.t.diff(r, dst)
	hopsLeft := bits.OnesCount32(diff)
	m := newMinPicker(view)
	for ; diff != 0; diff &= diff - 1 {
		d := bits.TrailingZeros32(diff) + 1
		port, cost := b.bestCopyPort(view, d, b.t.digit(dst, d))
		m.offer(cost, port)
	}
	return sim.OutRef{Port: m.bestArg, VC: vcBase + hopsLeft - 1}
}

// dorHop returns the dimension-order (lowest differing dimension first)
// next hop toward dst: the oblivious minimal route used by VAL's phases.
func (b ffBase) dorHop(view *sim.RouterView, r, dst topo.RouterID, vc int) sim.OutRef {
	diff := b.t.diff(r, dst)
	if diff == 0 {
		panic("routing: dorHop called with r == dst")
	}
	d := bits.TrailingZeros32(diff) + 1
	c := 0
	if b.t.mult > 1 {
		c = view.RNG().Intn(b.t.mult)
	}
	return sim.OutRef{Port: b.t.portFor(d, b.t.digit(dst, d), c), VC: vc}
}

// minQueueProductive returns the queue estimate of the channel MIN AD
// would take toward dst: the minimum over productive channels.
func (b ffBase) minQueueProductive(view *sim.RouterView, r, dst topo.RouterID) int {
	diff := b.t.diff(r, dst)
	if diff == 0 {
		return 0
	}
	m := newCostOnly()
	for ; diff != 0; diff &= diff - 1 {
		d := bits.TrailingZeros32(diff) + 1
		_, cost := b.bestCopyPort(view, d, b.t.digit(dst, d))
		m.offer(cost)
	}
	return m.best
}

// MinAD is §3.1's minimal adaptive algorithm: at every hop, take the
// productive channel with the shortest queue. n' VCs, selected by hops
// remaining, prevent deadlock. Uses a greedy route allocator.
type MinAD struct{ ffBase }

// NewMinAD builds MIN AD for a flattened butterfly.
func NewMinAD(f *topo.FlatFly) *MinAD { return &MinAD{newFFBase(f)} }

// Name implements sim.Algorithm.
func (a *MinAD) Name() string { return "MIN AD" }

// NumVCs implements sim.Algorithm: n' VCs (at least 1).
func (a *MinAD) NumVCs() int {
	if a.f.Dims < 1 {
		return 1
	}
	return a.f.Dims
}

// Sequential implements sim.Algorithm (greedy, per §3.1).
func (a *MinAD) Sequential() bool { return false }

// Route implements sim.Algorithm.
func (a *MinAD) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	r := view.Router()
	dst := topo.RouterID(a.t.routerOf[p.Dst])
	if r == dst {
		return a.eject(p)
	}
	return a.minAdaptiveHop(view, r, dst, 0)
}

// Valiant is §3.1's VAL: route minimally (dimension order) to a uniformly
// random intermediate router, then minimally to the destination. Two VCs,
// one per phase.
type Valiant struct{ ffBase }

// NewValiant builds VAL for a flattened butterfly.
func NewValiant(f *topo.FlatFly) *Valiant { return &Valiant{newFFBase(f)} }

// Name implements sim.Algorithm.
func (a *Valiant) Name() string { return "VAL" }

// NumVCs implements sim.Algorithm.
func (a *Valiant) NumVCs() int { return 2 }

// Sequential implements sim.Algorithm.
func (a *Valiant) Sequential() bool { return false }

// Route implements sim.Algorithm.
func (a *Valiant) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
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
		return a.dorHop(view, r, topo.RouterID(p.Inter), 0)
	}
	if r == dst {
		return a.eject(p)
	}
	return a.dorHop(view, r, dst, 1)
}

// UGAL is §3.1's Universal Globally-Adaptive Load-balanced routing: each
// packet chooses between MIN AD and VAL at its source router by comparing
// queue-length x hop-count products. The greedy variant lets all inputs of
// a router decide on the same stale queue snapshot in a cycle; UGAL-S
// (sequential) updates the queue state between decisions, removing the
// greedy transient load imbalance the paper identifies.
type UGAL struct {
	ffBase
	seq bool
}

// NewUGAL builds greedy UGAL.
func NewUGAL(f *topo.FlatFly) *UGAL { return &UGAL{newFFBase(f), false} }

// NewUGALS builds UGAL-S (sequential allocation).
func NewUGALS(f *topo.FlatFly) *UGAL { return &UGAL{newFFBase(f), true} }

// Name implements sim.Algorithm.
func (a *UGAL) Name() string {
	if a.seq {
		return "UGAL-S"
	}
	return "UGAL"
}

// NumVCs implements sim.Algorithm: one VC for the misrouting phase plus n'
// hops-remaining VCs for the minimal phase.
func (a *UGAL) NumVCs() int { return a.f.Dims + 1 }

// Sequential implements sim.Algorithm.
func (a *UGAL) Sequential() bool { return a.seq }

// Route implements sim.Algorithm.
func (a *UGAL) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	r := view.Router()
	dst := topo.RouterID(a.t.routerOf[p.Dst])
	if p.Phase == sim.PhaseNew {
		a.decide(view, p, r, dst)
	}
	if p.Phase == sim.PhaseNonMinimal && topo.RouterID(p.Inter) == r {
		p.Phase = sim.PhaseMinimal
	}
	if p.Phase == sim.PhaseNonMinimal {
		return a.dorHop(view, r, topo.RouterID(p.Inter), 0)
	}
	if r == dst {
		return a.eject(p)
	}
	return a.minAdaptiveHop(view, r, dst, 1)
}

// decide makes the source-router choice between minimal and Valiant using
// the product of queue length and hop count as the delay estimate (§3.1).
func (a *UGAL) decide(view *sim.RouterView, p *sim.Packet, r, dst topo.RouterID) {
	b := topo.RouterID(view.RNG().Intn(a.t.numRouters))
	if b == r || b == dst || r == dst {
		p.Phase = sim.PhaseMinimal
		return
	}
	hMin := a.t.minHops(r, dst)
	hNM := a.t.minHops(r, b) + a.t.minHops(b, dst)
	qMin := a.minQueueProductive(view, r, dst)
	// Queue of the first hop VAL would take toward b (dimension order).
	d := bits.TrailingZeros32(a.t.diff(r, b)) + 1
	_, qNM := a.bestCopyPort(view, d, a.t.digit(b, d))
	if qMin*hMin <= qNM*hNM {
		p.Phase = sim.PhaseMinimal
	} else {
		p.Phase = sim.PhaseNonMinimal
		p.Inter = int32(b)
	}
}

// ClosAD is §3.1's adaptive Clos routing on the flattened butterfly: like
// UGAL it chooses minimal vs. non-minimal per packet, but a non-minimal
// packet reaches its intermediate by traversing each (differing) dimension
// via the channel with the shortest queue — including a "dummy queue" for
// staying at the current coordinate — exactly as if adaptively routing to
// the middle stage of the equivalent folded Clos. The intermediate is thus
// chosen from the closest common ancestors, adaptively and per hop, which
// removes the transient load imbalance of oblivious intermediate choice.
// Always uses a sequential allocator.
type ClosAD struct{ ffBase }

// NewClosAD builds CLOS AD for a flattened butterfly.
func NewClosAD(f *topo.FlatFly) *ClosAD { return &ClosAD{newFFBase(f)} }

// Name implements sim.Algorithm.
func (a *ClosAD) Name() string { return "CLOS AD" }

// NumVCs implements sim.Algorithm: one ascent VC plus n' descent VCs.
func (a *ClosAD) NumVCs() int { return a.f.Dims + 1 }

// Sequential implements sim.Algorithm.
func (a *ClosAD) Sequential() bool { return true }

// Route implements sim.Algorithm.
func (a *ClosAD) Route(view *sim.RouterView, p *sim.Packet) sim.OutRef {
	r := view.Router()
	dst := topo.RouterID(a.t.routerOf[p.Dst])
	if p.Phase == sim.PhaseNew {
		a.decide(view, p, r, dst)
	}
	if p.Phase == sim.PhaseNonMinimal {
		if dec, hop := a.ascend(view, p, r, dst); hop {
			return dec
		}
		// Every remaining dimension chose "stay": fall through to the
		// minimal (descent) phase.
		p.Phase = sim.PhaseMinimal
	}
	if r == dst {
		return a.eject(p)
	}
	return a.minAdaptiveHop(view, r, dst, 1)
}

// decide compares the best minimal queue against the best of all
// non-minimal queues in the differing dimensions ("comparing the depth of
// all of the non-minimal queues", §3.2).
func (a *ClosAD) decide(view *sim.RouterView, p *sim.Packet, r, dst topo.RouterID) {
	if r == dst {
		p.Phase = sim.PhaseMinimal
		return
	}
	diff := a.t.diff(r, dst)
	hMin := bits.OnesCount32(diff)
	qMin := a.minQueueProductive(view, r, dst)
	m := newCostOnly()
	for dd := diff; dd != 0; dd &= dd - 1 {
		d := bits.TrailingZeros32(dd) + 1
		own := a.t.digit(r, d)
		if lo, hi, ok := a.dimRow(d); ok {
			m.offerRow(view.QueueEstRow(), lo, hi, lo+own)
			continue
		}
		for v := 0; v < a.t.k; v++ {
			if v == own {
				continue
			}
			_, cost := a.bestCopyPort(view, d, v)
			m.offer(cost)
		}
	}
	qNM := m.best
	hNM := 2 * hMin // ascent plus descent over the differing dimensions
	if qMin*hMin <= qNM*hNM {
		p.Phase = sim.PhaseMinimal
		return
	}
	p.Phase = sim.PhaseNonMinimal
	// Packet ascent state uses bit d for dimension d; the table mask uses
	// bit d-1, so shift by one. Preserving the packet-visible encoding
	// keeps replayed runs bit-identical.
	p.DimMask = diff << 1
}

// ascend processes the remaining ascent dimensions in order. For each, it
// picks the value with the shortest queue, where "staying" costs the queue
// of the channel the descent would later need for that dimension. It
// returns (decision, true) when a physical hop is taken, or (_, false)
// once every remaining dimension chose to stay.
func (a *ClosAD) ascend(view *sim.RouterView, p *sim.Packet, r, dst topo.RouterID) (sim.OutRef, bool) {
	for p.DimMask != 0 {
		d := bits.TrailingZeros32(p.DimMask)
		p.DimMask &^= 1 << uint(d)
		own := a.t.digit(r, d)
		want := a.t.digit(dst, d)
		m := newMinPicker(view)
		stayCost := 0
		if own != want {
			_, stayCost = a.bestCopyPort(view, d, want)
		}
		m.offer(stayCost, -1) // arg -1 = stay
		if lo, hi, ok := a.dimRow(d); ok {
			m.offerRow(view.QueueEstRow(), lo, hi, lo+own)
		} else {
			for v := 0; v < a.t.k; v++ {
				if v == own {
					continue
				}
				port, cost := a.bestCopyPort(view, d, v)
				m.offer(cost, port)
			}
		}
		if m.bestArg >= 0 {
			return sim.OutRef{Port: m.bestArg, VC: 0}, true
		}
	}
	return sim.OutRef{}, false
}

// NewFlatFlyAlgorithm constructs a flattened-butterfly algorithm by name:
// "min", "val", "ugal", "ugal-s", or "clos".
func NewFlatFlyAlgorithm(name string, f *topo.FlatFly) (sim.Algorithm, error) {
	switch name {
	case "min", "MIN AD":
		return NewMinAD(f), nil
	case "val", "VAL":
		return NewValiant(f), nil
	case "ugal", "UGAL":
		return NewUGAL(f), nil
	case "ugal-s", "UGAL-S":
		return NewUGALS(f), nil
	case "clos", "CLOS AD":
		return NewClosAD(f), nil
	default:
		return nil, fmt.Errorf("routing: unknown flattened-butterfly algorithm %q", name)
	}
}
