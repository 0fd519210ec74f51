// Package analysis evaluates a network from its channel graph alone:
// LoadBound, EvalNet's throughput bound (the load on the scarcest
// channel) that the simulator and the paper's claims are held to, and
// graph.go's analytic-mode metrics. Capacity is 1 flit/node/cycle (§3.2).
package analysis

import (
	"fmt"

	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// Rule is how LoadBound routes a flow over the channel graph.
type Rule int

const (
	// Minimal splits a router's flow towards a destination router evenly
	// over its minimal next-hop channels.
	Minimal Rule = iota
	// Valiant routes minimally to a uniformly random router, then on.
	Valiant
)

// destLaw is a pattern's exact destination law, defined beside Dest in
// internal/traffic: src sends to a uniform node of [first, first+n).
type destLaw interface {
	DestRange(src topo.NodeID) (first, n int)
}

// LoadBound loads each network channel of g with its expected flits per
// cycle when every terminal injects one flit per cycle of pattern p,
// routed by rule, and returns the saturation throughput, 1 / max(1,
// largest load), and the mean hops, the summed load per terminal. One
// reverse BFS per destination, over the input ports Graph.Inputs derives,
// serves one-way networks.
func LoadBound(g *topo.Graph, p traffic.Pattern, rule Rule) (saturation, meanHops float64, err error) {
	law, ok := p.(destLaw)
	if !ok {
		return 0, 0, fmt.Errorf("analysis: pattern %s has no exact destination law", p.Name())
	}
	r, nodes := g.NumRouters(), g.NumNodes
	dem := make([]float64, r*r) // dem[s*r+d]: flits per cycle router s sends to router d
	for s := 0; s < nodes; s++ {
		first, n := law.DestRange(topo.NodeID(s))
		if n < 1 || first < 0 || first+n > nodes {
			return 0, 0, fmt.Errorf("analysis: %s sends node %d to [%d, %d), outside [0, %d)", p.Name(), s, first, first+n, nodes)
		}
		for t := first; t < first+n; t++ {
			dem[int(g.NodeRouter[s])*r+int(g.EjRouter[t])] += 1 / float64(n)
		}
	}
	if rule == Valiant {
		// Phase one sends each router's outflow evenly to every router,
		// phase two each router's inflow evenly from every router.
		out, in := make([]float64, r), make([]float64, r)
		for i, v := range dem {
			out[i/r] += v
			in[i%r] += v
		}
		for i := range dem {
			dem[i] = (out[i/r] + in[i%r]) / float64(r)
		}
	}
	c, inputs := buildCSR(g), g.Inputs()
	load := make([]float64, len(c.nbr)) // per channel, in CSR order
	dist, next, flow, queue := make([]int32, r), make([]int32, r), make([]float64, r), make([]int32, 0, r)
	for d := 0; d < r; d++ {
		for i := range dist {
			dist[i], next[i] = -1, 0
		}
		dist[d] = 0
		queue = append(queue[:0], int32(d))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, in := range inputs[v] {
				if u := in.Peer; in.Kind == topo.Network {
					if dist[u] < 0 {
						dist[u] = dist[v] + 1
						queue = append(queue, u)
					}
					if dist[u] == dist[v]+1 {
						next[u]++ // a minimal next-hop channel of u
					}
				}
			}
		}
		for v := range dist {
			flow[v] = dem[v*r+d]
			if dist[v] < 0 && flow[v] > 0 {
				return 0, 0, fmt.Errorf("analysis: router %d sends to router %d, which it cannot reach", v, d)
			}
		}
		// Farthest first, so a router's inflow is complete when it splits.
		for qi := len(queue) - 1; qi > 0; qi-- {
			v := queue[qi]
			share := flow[v] / float64(next[v])
			for e := c.off[v]; e < c.off[v+1]; e++ {
				if w := c.nbr[e]; dist[w] == dist[v]-1 {
					load[e] += share
					flow[w] += share
				}
			}
		}
	}
	peak, sum := 1.0, 0.0
	for _, l := range load {
		peak = max(peak, l)
		sum += l
	}
	return 1 / peak, sum / float64(nodes), nil
}

// CreditLimitedChannelRate returns the maximum utilization a single
// virtual channel can sustain across a channel given its buffer depth
// and the credit round-trip time (forward latency + reverse credit
// latency + one processing cycle): min(1, depth/RTT) — the mechanism
// behind Fig. 12(b)'s throughput degradation when 64 flits per physical
// channel are split across many VCs.
func CreditLimitedChannelRate(depth, forwardLatency, creditLatency int) float64 {
	rtt := forwardLatency + creditLatency + 1
	if rtt <= 0 || depth >= rtt {
		return 1
	}
	return float64(depth) / float64(rtt)
}
