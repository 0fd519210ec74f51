package sim

import (
	"math/bits"

	"flatnet/internal/rng"
	"flatnet/internal/topo"
)

// routeAllocate runs route computation for every un-routed buffer head
// and collects the cycle's switch requests. Greedy
// allocation reads start-of-cycle estimates; sequential allocation
// additionally sees the reservations of decisions made earlier in the
// same cycle, in input-port order (§3.1). Only routers on the active
// worklist (holding at least one buffered flit) are visited, in ascending
// router order — the same order the full scan would use — so idle routers
// cost no work.
func (n *Network) routeAllocate() {
	seq := n.alg.Sequential()
	if n.stepAll {
		for r := range n.routers {
			n.routeRouter(&n.routers[r], seq)
		}
	} else {
		for w := range n.activeR {
			for word := n.activeR[w]; word != 0; word &= word - 1 {
				n.routeRouter(&n.routers[w<<6+bits.TrailingZeros64(word)], seq)
			}
		}
	}
	n.view.rt = nil
}

// routeRouter makes one pass over the occupied input VCs of a router, in
// ascending (port, vc) order: it routes every un-routed buffer head, and
// files every routed head that can bid this cycle on its output's request
// list. Nothing between this pass and the router's switch allocation
// changes the state a bid depends on (credits and VC ownership move only
// in processEvents and in the router's own traverse), so collecting
// requests here is equivalent to a second scan at switch time.
//
// A decision reserves the whole packet (queue estimates are in flits) on
// its output VC. Under a sequential allocator the reservation lands in
// the estimate at once, so later inputs of the same cycle see it; under a
// greedy one it is parked on rt.touched and folded in after the pass, so
// every input decides against the start-of-cycle estimates.
func (n *Network) routeRouter(rt *router, seq bool) {
	n.view.rt = rt
	shift := n.vcShift
	ps := int32(n.cfg.PacketSize)
	for w, word := range rt.occ {
		for ; word != 0; word &= word - 1 {
			ivc := int32(w<<6 + bits.TrailingZeros64(word))
			q := &rt.vq[ivc]
			if !q.routed {
				pkt := n.arena.pkt(q.hflit.pkt())
				dec := n.alg.Route(&n.view, pkt)
				q.out = int32(dec.Port)<<shift | int32(dec.VC)
				q.routed = true
				for _, h := range n.hooks {
					if h.Route != nil {
						h.Route(pkt, rt.id, dec.Port, dec.VC)
					}
				}
				if seq {
					rt.ovc[q.out].pending += ps
					rt.psum[dec.Port] += ps
				} else {
					rt.touched = append(rt.touched, q.out)
				}
			}
			port := q.out >> shift
			op := &rt.out[port]
			if op.kind == topo.Network {
				// No bid without downstream space, nor for a head whose
				// downstream VC another packet still owns.
				if ov := &rt.ovc[q.out]; ov.credits <= 0 || !q.headSent && ov.owner != 0 {
					for _, h := range n.hooks {
						if h.Stall != nil {
							cause := StallVC
							if ov.credits <= 0 {
								cause = StallCredit
							}
							h.Stall(n.arena.pkt(q.hflit.pkt()), rt.id, int(port), int(q.out&n.vcMask), cause)
						}
					}
					continue
				}
			} else if op.nextFree-n.cycle >= int64(n.cfg.BufPerPort) {
				continue // ejection staging queue full
			}
			if op.nreq == 0 {
				op.reqHead = ivc
				rt.reqOut[port>>6] |= 1 << (uint(port) & 63)
			} else {
				rt.reqNext[op.reqTail] = ivc
			}
			op.reqTail = ivc
			op.nreq++
		}
	}
	for _, t := range rt.touched {
		rt.ovc[t].pending += ps
		rt.psum[t>>shift] += ps
	}
	rt.touched = rt.touched[:0]
}

// RouterView is the routing algorithm's window onto one router's state
// during route allocation. Queue estimates follow §3.1: the credit count
// for output virtual channels, reflecting the occupancy of the input queue
// on the far end of the channel, plus packets already routed to that
// output in this router. Under a sequential allocator the estimate also
// includes reservations made earlier in the same cycle; under a greedy
// allocator all inputs see the same start-of-cycle snapshot (routeRouter
// applies the reservations accordingly, so the accessors just read).
//
// RouterView is a concrete struct (not an interface) so the per-flit Route
// call performs no interface conversion and its accessors inline — part of
// the cycle core's zero-allocation contract. One view lives in the
// Network and is reused for every Route call; it is only valid for the
// duration of that call.
type RouterView struct {
	n  *Network
	rt *router
}

// Cycle returns the current simulation cycle.
func (v *RouterView) Cycle() int64 { return v.n.cycle }

// Router returns the ID of the router being routed.
func (v *RouterView) Router() topo.RouterID { return v.rt.id }

// RNG returns this router's deterministic random stream (used for
// intermediate-node selection and tie-breaking).
func (v *RouterView) RNG() *rng.Source { return v.rt.rng }

// QueueEstPort returns the estimate summed over all VCs of port. The sum
// is maintained incrementally, so this is O(1) regardless of VC count.
func (v *RouterView) QueueEstPort(port int) int {
	return int(v.rt.psum[port])
}

// QueueEstRow returns the router's queue estimates as one dense row,
// QueueEstRow()[port] == QueueEstPort(port) for every output port, so an
// algorithm comparing many ports scans memory instead of calling per
// port. The row is the simulator's own state: read-only, and like the
// view valid only for the duration of the Route call.
func (v *RouterView) QueueEstRow() []int32 { return v.rt.psum }
