package sim

import "flatnet/internal/topo"

// ChannelLoad reports the traffic carried by one unidirectional channel
// (a router output port).
type ChannelLoad struct {
	Router topo.RouterID
	Port   int
	Kind   topo.PortKind
	// Flits transmitted since construction (or the last ResetChannelStats).
	Flits int64
	// Utilization is Flits divided by the cycles observed.
	Utilization float64
}

// ChannelLoads returns the per-channel traffic counters for every
// Network- and Terminal-kind output port, in (router, port) order. The
// load-balancing claims of the paper are directly observable here: under
// the worst-case pattern, minimal routing drives one channel per router
// to full utilization while non-minimal routing spreads the same traffic
// across all of them.
func (n *Network) ChannelLoads() []ChannelLoad {
	window := n.cycle - n.statsStart
	if window <= 0 {
		window = 1
	}
	var out []ChannelLoad
	for r := range n.routers {
		for p := range n.routers[r].out {
			op := &n.routers[r].out[p]
			if op.kind == topo.Unused {
				continue
			}
			out = append(out, ChannelLoad{
				Router:      topo.RouterID(r),
				Port:        p,
				Kind:        op.kind,
				Flits:       op.flitsSent,
				Utilization: float64(op.flitsSent) / float64(window),
			})
		}
	}
	return out
}

// ResetChannelStats zeroes the per-channel counters and restarts the
// utilization window at the current cycle, e.g. after warm-up.
func (n *Network) ResetChannelStats() {
	n.statsStart = n.cycle
	for r := range n.routers {
		for p := range n.routers[r].out {
			n.routers[r].out[p].flitsSent = 0
		}
	}
}
