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

// registerTransfer associates a freshly materialized packet with its
// transfer; called from injectSource for tagged arrivals only, so
// networks that never start transfers pay a single nil check.
func (n *Network) registerTransfer(p *Packet, t *Transfer) {
	if n.xfers == nil {
		n.xfers = make(map[*Packet]*Transfer)
	}
	n.xfers[p] = t
}

// completeTransfer credits a delivered packet to its transfer, if any;
// called from processEvents on tail-flit delivery.
func (n *Network) completeTransfer(p *Packet) {
	t, ok := n.xfers[p]
	if !ok {
		return
	}
	delete(n.xfers, p)
	t.delivered++
	t.lastCycle = n.cycle
	t.lastHops = p.Hops
}

// PendingTransfers returns how many transfer packets are currently
// materialized in the network (injected but not yet delivered). Used by
// tests to prove the tracking map drains.
func (n *Network) PendingTransfers() int { return len(n.xfers) }
