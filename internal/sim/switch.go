package sim

import (
	"math/bits"

	"flatnet/internal/topo"
)

// switchAllocate moves routed buffer heads through the crossbar and onto
// their output channels. Each output channel transmits one flit per cycle
// (serialized via nextFree), but the crossbar itself can deliver several
// flits to the same output in one cycle — the paper's "sufficient switch
// speedup" (§3.2), which keeps the router from becoming the bottleneck and
// leaves channel bandwidth and buffering as the only constraints. Grants
// are round-robin across requesting input VCs; a flit is granted only when
// downstream credits exist (which also bounds the per-channel staging
// backlog to the downstream buffer size), and cfg.Speedup, when non-zero,
// caps both the grants per input port and per output port in a cycle.
//
// The requests were filed by routeRouter: per output, a list of input-VC
// indices in ascending order, with the requested outputs marked in
// rt.reqOut. Only those outputs are visited.
func (n *Network) switchAllocate() {
	if n.stepAll {
		for r := range n.routers {
			n.switchRouter(&n.routers[r])
		}
		return
	}
	for w := range n.activeR {
		for word := n.activeR[w]; word != 0; word &= word - 1 {
			n.switchRouter(&n.routers[w<<6+bits.TrailingZeros64(word)])
		}
	}
}

// switchRouter performs one router's switch allocation.
func (n *Network) switchRouter(rt *router) {
	speedup := n.cfg.Speedup
	if speedup > 0 {
		clear(rt.grants)
	}
	for w, word := range rt.reqOut {
		if word == 0 {
			continue
		}
		rt.reqOut[w] = 0
		for ; word != 0; word &= word - 1 {
			port := w<<6 + bits.TrailingZeros64(word)
			op := &rt.out[port]
			nreq := op.nreq
			op.nreq = 0
			granted := int32(0)
			switch {
			case nreq == 1 && speedup == 0:
				// A lone requester passed every grant condition when it
				// bid, and nothing has been granted on this output since.
				if !n.cfg.AgeArbiter {
					op.rr = op.reqHead
				}
				n.traverse(rt, op.reqHead)
				granted = 1
			case n.cfg.AgeArbiter:
				granted = n.grantByAge(rt, op, nreq)
			default:
				granted = n.grantRoundRobin(rt, op, nreq)
			}
			for _, h := range n.hooks {
				if h.Arbitrate != nil {
					h.Arbitrate(rt.id, port, int(granted), int(nreq))
				}
			}
		}
	}
}

// grantRoundRobin arbitrates one output among its nreq requesters: start
// from the first requester whose key is strictly greater than the
// round-robin pointer, wrapping; skip speedup-saturated inputs and (for
// terminals) a busy channel. It returns the number of grants issued.
func (n *Network) grantRoundRobin(rt *router, op *outPort, nreq int32) int32 {
	speedup := n.cfg.Speedup
	terminal := op.kind != topo.Network
	outGrants := int32(0)
	rr0 := op.rr
	for pass := 0; pass < 2; pass++ {
		key := op.reqHead
		for i := int32(0); i < nreq; i, key = i+1, rt.reqNext[key] {
			if pass == 0 && key <= rr0 {
				continue
			}
			if pass == 1 && key > rr0 {
				break
			}
			if speedup > 0 && int(outGrants) >= speedup {
				break
			}
			if terminal && op.nextFree-n.cycle >= int64(n.cfg.BufPerPort) {
				break // ejection staging queue full
			}
			inport := key >> n.vcShift
			if speedup > 0 && int(rt.grants[inport]) >= speedup {
				continue
			}
			q := &rt.vq[key]
			if !terminal {
				ov := &rt.ovc[q.out]
				if ov.credits <= 0 {
					continue // credit consumed by an earlier grant this cycle
				}
				if !q.headSent && ov.owner != 0 {
					continue // VC acquired by an earlier grant this cycle
				}
			}
			op.rr = key
			if speedup > 0 {
				rt.grants[inport]++
			}
			outGrants++
			n.traverse(rt, key)
		}
	}
	return outGrants
}

// grantByAge performs oldest-first switch allocation for one output:
// repeatedly grant the eligible requester whose head packet has the
// earliest injection cycle (ties by packet ID), until speedup or credits
// run out. It returns the number of grants issued.
func (n *Network) grantByAge(rt *router, op *outPort, nreq int32) int32 {
	speedup := n.cfg.Speedup
	terminal := op.kind != topo.Network
	outGrants := int32(0)
	// granted is preallocated per-router scratch indexed by request key; it
	// is cleared on the way out by walking the list, so no per-cycle map
	// is built.
	granted := rt.granted
scan:
	for speedup == 0 || int(outGrants) < speedup {
		best := int32(-1)
		var bestAge int64
		var bestID int64
		key := op.reqHead
		for i := int32(0); i < nreq; i, key = i+1, rt.reqNext[key] {
			if granted[key] {
				continue
			}
			if speedup > 0 && int(rt.grants[key>>n.vcShift]) >= speedup {
				continue
			}
			q := &rt.vq[key]
			if q.count == 0 {
				continue
			}
			if terminal {
				if op.nextFree-n.cycle >= int64(n.cfg.BufPerPort) {
					break scan
				}
			} else {
				ov := &rt.ovc[q.out]
				if ov.credits <= 0 {
					continue
				}
				if !q.headSent && ov.owner != 0 {
					continue
				}
			}
			pkt := n.arena.pkt(q.hflit.pkt())
			if best < 0 || pkt.InjectCycle < bestAge ||
				(pkt.InjectCycle == bestAge && pkt.ID < bestID) {
				best, bestAge, bestID = key, pkt.InjectCycle, pkt.ID
			}
		}
		if best < 0 {
			break
		}
		granted[best] = true
		if speedup > 0 {
			rt.grants[best>>n.vcShift]++
		}
		outGrants++
		n.traverse(rt, best)
	}
	key := op.reqHead
	for i := int32(0); i < nreq; i, key = i+1, rt.reqNext[key] {
		granted[key] = false
	}
	return outGrants
}

// traverse pops the granted flit of input VC ivc and sends it down its
// output channel, serializing transmission to one flit per cycle per
// channel, and returns a credit upstream for network inputs.
func (n *Network) traverse(rt *router, ivc int32) {
	q := &rt.vq[ivc]
	ovc := q.out
	isHead := !q.headSent
	f := rt.pop(q)
	if q.count == 0 {
		n.clearVC(rt, ivc)
	}
	ip := &rt.in[ivc>>n.vcShift]
	if ip.kind == topo.Network {
		// Return a credit to the upstream router for the freed slot; it
		// travels the reverse channel, so it takes the channel latency.
		n.scheduleCredit(int(ip.creditLat), ip.credOVC+ivc&n.vcMask)
	}
	port, vc := int(ovc>>n.vcShift), int(ovc&n.vcMask)
	op := &rt.out[port]
	depart := n.cycle
	if op.nextFree > depart {
		depart = op.nextFree
	}
	op.nextFree = depart + 1
	op.flitsSent++
	delay := int(depart-n.cycle) + int(op.latency)
	ov := &rt.ovc[ovc]
	network := op.kind == topo.Network
	if network {
		ov.credits--
	}
	for _, h := range n.hooks {
		if h.Traverse != nil {
			h.Traverse(n.arena.pkt(f.pkt()), n.arena.ptr(ov.owner), rt.id, port, vc, int(ov.credits), isHead, f.tail())
		}
	}
	if !network {
		ov.pending--
		rt.psum[port]--
		n.scheduleDeliver(delay, op.node, f)
		return
	}
	// Wormhole VC allocation: the head flit acquires the downstream VC,
	// the tail flit releases it (a single-flit packet does both in one
	// traversal, leaving it free).
	tail := f.tail()
	if isHead && !tail {
		ov.owner = f.pkt()
	} else if tail && !isHead {
		ov.owner = 0
	}
	if isHead {
		n.arena.pkt(f.pkt()).Hops++
	}
	// The next router's pipeline delay is charged on arrival.
	n.scheduleFlit(delay+n.cfg.RouterDelay, op.peer, op.peerIn+int32(vc), f)
}
