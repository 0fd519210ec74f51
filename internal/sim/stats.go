package sim

import (
	"sort"

	"flatnet/internal/topo"
)

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

// LoadImbalance summarizes how evenly traffic spreads over the network
// channels (Terminal channels excluded): the maximum and mean utilization
// and their ratio. A ratio near 1 indicates balanced load; under the
// adversarial pattern, minimal routing shows a ratio near the router
// radix while non-minimal routing stays near 1-2.
func (n *Network) LoadImbalance() (max, mean, ratio float64) {
	var sum float64
	var count int
	for _, c := range n.ChannelLoads() {
		if c.Kind != topo.Network {
			continue
		}
		sum += c.Utilization
		count++
		if c.Utilization > max {
			max = c.Utilization
		}
	}
	if count == 0 {
		return 0, 0, 0
	}
	mean = sum / float64(count)
	if mean > 0 {
		ratio = max / mean
	}
	return max, mean, ratio
}

// BufferOccupancy returns the current total, mean-per-VC and maximum
// occupancy of all input buffers, in flits — a liveness/health probe for
// long-running simulations.
func (n *Network) BufferOccupancy() (total int, mean float64, max int) {
	vcs := 0
	for r := range n.routers {
		n.eachInputVC(&n.routers[r], func(_, _ int, q *vcq) {
			c := int(q.count)
			total += c
			vcs++
			if c > max {
				max = c
			}
		})
	}
	if vcs > 0 {
		mean = float64(total) / float64(vcs)
	}
	return total, mean, max
}

// TopChannels returns the k busiest network channels, descending by
// flits carried.
func (n *Network) TopChannels(k int) []ChannelLoad {
	loads := n.ChannelLoads()
	filtered := loads[:0]
	for _, c := range loads {
		if c.Kind == topo.Network {
			filtered = append(filtered, c)
		}
	}
	sort.Slice(filtered, func(i, j int) bool { return filtered[i].Flits > filtered[j].Flits })
	if k > len(filtered) {
		k = len(filtered)
	}
	return filtered[:k]
}
