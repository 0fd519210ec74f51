package routing

import (
	"fmt"

	"flatnet/internal/sim"
	"flatnet/internal/topo"
)

// ZeroLoadModel is the closed-form zero-load latency oracle the simulator
// is validated against (internal/check's conformance suite): with empty
// queues, a packet's latency decomposes into per-hop channel and pipeline
// terms plus ejection and serialization. The model is exact for the
// simulator's timing — route and switch allocation at a router are
// combinational within a cycle, so the only per-hop charges are the
// channel traversal and the configured router pipeline delay, and the
// source router's own pipeline is not charged (the packet enters at the
// allocation stage).
type ZeroLoadModel struct {
	// AvgHops is the expected inter-router hop count of the (topology,
	// routing, traffic) combination; ejection is not a hop.
	AvgHops float64
	// ChannelLatency is the inter-router channel traversal in cycles.
	ChannelLatency int
	// EjectLatency is the router-to-terminal channel traversal in cycles.
	EjectLatency int
	// RouterDelay is the per-hop pipeline delay (sim.Config.RouterDelay),
	// charged once per inter-router hop on arrival.
	RouterDelay int
	// PacketSize is the flits per packet; the tail flit trails the head
	// by PacketSize-1 cycles of serialization.
	PacketSize int
}

// Latency returns the expected zero-load packet latency in cycles, as
// measured by the simulator (injection to tail-flit delivery).
func (m ZeroLoadModel) Latency() float64 {
	ps := m.PacketSize
	if ps < 1 {
		ps = 1
	}
	return m.AvgHops*float64(m.ChannelLatency+m.RouterDelay) +
		float64(m.EjectLatency) + float64(ps-1)
}

// ZeroLoadFor derives a ZeroLoadModel from a channel graph and a
// simulator configuration. The graph must have uniform network-channel
// and ejection latencies (all of this repository's topologies do); a
// mixed-latency graph is rejected, since a single scalar model cannot
// describe it.
func ZeroLoadFor(g *topo.Graph, cfg sim.Config, avgHops float64) (ZeroLoadModel, error) {
	chanLat, ejectLat := 0, 0
	for r := range g.Routers {
		for p, out := range g.Routers[r].Out {
			switch out.Kind {
			case topo.Network:
				if chanLat == 0 {
					chanLat = int(out.Latency)
				} else if int(out.Latency) != chanLat {
					return ZeroLoadModel{}, fmt.Errorf(
						"routing: mixed network latencies (%d vs %d at router %d port %d)",
						chanLat, out.Latency, r, p)
				}
			case topo.Terminal:
				if ejectLat == 0 {
					ejectLat = int(out.Latency)
				} else if int(out.Latency) != ejectLat {
					return ZeroLoadModel{}, fmt.Errorf(
						"routing: mixed ejection latencies (%d vs %d at router %d port %d)",
						ejectLat, out.Latency, r, p)
				}
			}
		}
	}
	if ejectLat == 0 {
		return ZeroLoadModel{}, fmt.Errorf("routing: graph %s has no ejection channels", g.Label)
	}
	return ZeroLoadModel{
		AvgHops:        avgHops,
		ChannelLatency: chanLat,
		EjectLatency:   ejectLat,
		RouterDelay:    cfg.RouterDelay,
		PacketSize:     cfg.PacketSize,
	}, nil
}

// ValiantHopsFromDist returns VAL's exact expected inter-router hop
// count under uniform traffic for any topology whose routers host equal
// terminal counts, given its minimal hop-count function: the O(R³)
// enumeration of every (source, destination, intermediate) triple with
// the same collapse rule (i == r or i == d routes minimally) every VAL
// implementation in this package uses. The Slim Fly and dragonfly
// zero-load oracles and the channel-load bound's hop test rest on it.
func ValiantHopsFromDist(R int, dist func(a, b int) int) float64 {
	total := 0
	for r := 0; r < R; r++ {
		for d := 0; d < R; d++ {
			direct := dist(r, d)
			for i := 0; i < R; i++ {
				if i == r || i == d {
					total += direct
				} else {
					total += dist(r, i) + dist(i, d)
				}
			}
		}
	}
	return float64(total) / float64(R*R*R)
}
