package sim

import (
	"fmt"

	"flatnet/internal/topo"
)

// Transfer tracks one measured transfer through a warm network: a burst
// of packets from one terminal to another, injected by StartTransfer on
// top of whatever background traffic the network is carrying. It is the
// co-simulation primitive behind internal/nocsvc's estimate verb — the
// caller injects the transfer, keeps stepping the network, and reads the
// congestion-aware latency once Done reports true.
//
// A Transfer is owned by whoever owns the Network: it is not safe for
// concurrent use from other goroutines while the network is stepping.
type Transfer struct {
	src, dst topo.NodeID
	packets  int

	start     int64 // cycle the transfer entered its source queue
	delivered int   // packets fully delivered so far
	lastCycle int64 // cycle the most recent packet finished delivery
	lastHops  int   // inter-router hops of the most recently delivered packet
}

// Done reports whether every packet of the transfer has been delivered.
func (t *Transfer) Done() bool { return t.delivered >= t.packets }

// Delivered returns how many of the transfer's packets have been
// delivered so far.
func (t *Transfer) Delivered() int { return t.delivered }

// Packets returns the transfer's packet count.
func (t *Transfer) Packets() int { return t.packets }

// Latency returns the cycles from the transfer's source-queue arrival to
// the delivery of its most recent packet — for a completed transfer, the
// tail latency of the whole burst. Zero until the first delivery.
func (t *Transfer) Latency() int64 {
	if t.delivered == 0 {
		return 0
	}
	return t.lastCycle - t.start
}

// Hops returns the inter-router hop count of the most recently delivered
// packet, or 0 before the first delivery.
func (t *Transfer) Hops() int { return t.lastHops }

// StartTransfer enqueues a measured transfer of packets packets from src
// to dst at the current cycle and returns its tracking handle. The
// packets join src's source queue behind any backlog and contend with
// background traffic for channels and buffers exactly like any other
// packets, so the latency the handle reports is congestion-aware. The
// caller advances the network (Step, with Generate for background
// load) until Done.
//
// Transfers never count toward the measurement window: MeasuredCounts
// and warm-up/measure/drain accounting are unaffected.
func (n *Network) StartTransfer(src, dst topo.NodeID, packets int) (*Transfer, error) {
	if int(src) < 0 || int(src) >= n.g.NumNodes {
		return nil, fmt.Errorf("sim: transfer source %d out of [0,%d)", src, n.g.NumNodes)
	}
	if int(dst) < 0 || int(dst) >= n.g.NumNodes {
		return nil, fmt.Errorf("sim: transfer destination %d out of [0,%d)", dst, n.g.NumNodes)
	}
	if packets < 1 {
		return nil, fmt.Errorf("sim: transfer needs at least 1 packet, got %d", packets)
	}
	t := &Transfer{src: src, dst: dst, packets: packets, start: n.cycle}
	s := &n.sources[src]
	for i := 0; i < packets; i++ {
		s.pushTransfer(n.cycle, int32(dst), t)
	}
	n.wakeSource(int(src))
	return t, nil
}

// xferSlots holds the handles of in-flight transfer packets, indexed by
// Packet.xslot-1; free lists the vacated rows.
type xferSlots struct {
	tab  []*Transfer
	free []int32
}

// registerTransfer associates a freshly materialized packet with its
// transfer by giving it a row of the slot table; called from
// injectSource for tagged arrivals only.
func (n *Network) registerTransfer(p *Packet, t *Transfer) {
	x := n.xfers
	if x == nil {
		x = new(xferSlots)
		n.xfers = x
	}
	if k := len(x.free); k > 0 {
		slot := x.free[k-1]
		x.free = x.free[:k-1]
		x.tab[slot] = t
		p.xslot = slot + 1
		return
	}
	x.tab = append(x.tab, t)
	p.xslot = int32(len(x.tab))
}

// transferOf returns a packet's transfer, or nil.
func (n *Network) transferOf(p *Packet) *Transfer {
	if p.xslot == 0 {
		return nil
	}
	return n.xfers.tab[p.xslot-1]
}

// completeTransfer credits a delivered transfer packet to its transfer
// and frees its slot; called from deliverEvent on tail-flit delivery,
// just before the packet is recycled (which zeroes xslot).
func (n *Network) completeTransfer(p *Packet) {
	x := n.xfers
	slot := p.xslot - 1
	t := x.tab[slot]
	x.tab[slot] = nil
	x.free = append(x.free, slot)
	t.delivered++
	t.lastCycle = n.cycle
	t.lastHops = p.Hops
}

// PendingTransfers returns how many transfer packets are currently
// materialized in the network (injected but not yet delivered). Used by
// tests to prove the slot table drains.
func (n *Network) PendingTransfers() int {
	if n.xfers == nil {
		return 0
	}
	return len(n.xfers.tab) - len(n.xfers.free)
}
