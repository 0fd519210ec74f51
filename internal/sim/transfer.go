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
	packets   int
	start     int64 // cycle the transfer entered its source queue
	delivered int   // packets fully delivered so far
	lastCycle int64 // cycle the most recent packet finished delivery
	lastHops  int   // inter-router hops of the most recently delivered packet
}

// Done reports whether every packet of the transfer has been delivered.
func (t *Transfer) Done() bool { return t.delivered >= t.packets }

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
// load) until Done. A Deliver hook may start transfers too.
//
// The transfer holds one row of the network's slot table from here to
// its last delivery; its arrivals and then its packets carry the row.
// Transfers never count toward the measurement window: MeasuredCounts
// and warm-up/measure/drain accounting are unaffected. Snapshots do not
// carry transfers: restored, a transfer's queued arrivals and live
// packets are ordinary ones with the same endpoints and timestamps.
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
	t := &Transfer{packets: packets, start: n.cycle}
	a := arrival{ts: n.cycle, dst: int32(dst), xslot: n.addTransfer(t)}
	s := &n.sources[src]
	for i := 0; i < packets; i++ {
		s.push(a)
	}
	n.wakeSource(int(src))
	return t, nil
}

// xferSlots holds the live transfers, indexed by xslot-1; free lists the
// vacated rows.
type xferSlots struct {
	tab  []*Transfer
	free []int32
}

// addTransfer gives t a row of the slot table and returns row + 1, the
// xslot its arrivals and packets carry.
func (n *Network) addTransfer(t *Transfer) int32 {
	x := n.xfers
	if x == nil {
		x = new(xferSlots)
		n.xfers = x
	}
	if k := len(x.free); k > 0 {
		slot := x.free[k-1]
		x.free = x.free[:k-1]
		x.tab[slot] = t
		return slot + 1
	}
	x.tab = append(x.tab, t)
	return int32(len(x.tab))
}

// transferOf returns a packet's transfer, or nil.
func (n *Network) transferOf(p *Packet) *Transfer {
	if p.xslot == 0 {
		return nil
	}
	return n.xfers.tab[p.xslot-1]
}

// completeTransfer credits a delivered transfer packet to its transfer
// and frees the transfer's row with its last packet; called from
// deliverEvent on tail-flit delivery, after the Deliver hooks (which
// may look the transfer up) and before the packet is recycled.
func (n *Network) completeTransfer(p *Packet) {
	x := n.xfers
	slot := p.xslot - 1
	t := x.tab[slot]
	t.delivered++
	t.lastCycle = n.cycle
	t.lastHops = p.Hops
	if t.Done() {
		x.tab[slot] = nil
		x.free = append(x.free, slot)
	}
}
