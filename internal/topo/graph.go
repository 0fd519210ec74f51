// Package topo defines the directed channel-graph representation consumed
// by the simulator and every topology built on it: the paper's
// contribution, the flattened butterfly (k-ary n-flat: addressing, the
// connectivity rule of Eq. 1, the scaling relationships of §2.1 and §5.1
// and the extra-port variants of Fig. 14), and the topologies evaluated
// against it — the conventional butterfly (k-ary n-fly), the folded Clos,
// the binary hypercube and the generalized hypercube.
package topo

import (
	"fmt"
	"hash/crc32"
	"sync"
)

// NodeID identifies a terminal (processing node) in [0, NumNodes).
type NodeID int

// RouterID identifies a router in [0, NumRouters).
type RouterID int

// PortKind classifies one side of a router port.
type PortKind uint8

const (
	// Unused marks a port position that exists for addressing convenience
	// but has no channel attached (e.g. the "self" slot in a flattened
	// butterfly dimension group).
	Unused PortKind = iota
	// Terminal ports connect a router to a processing node: injection on
	// the input side, ejection on the output side.
	Terminal
	// Network ports connect two routers.
	Network
)

func (k PortKind) String() string {
	switch k {
	case Unused:
		return "unused"
	case Terminal:
		return "terminal"
	case Network:
		return "network"
	default:
		return fmt.Sprintf("PortKind(%d)", uint8(k))
	}
}

// OutPort describes the output side of a router port: where a flit sent on
// this port arrives.
type OutPort struct {
	Kind     PortKind
	Node     NodeID   // destination node when Kind == Terminal
	Peer     RouterID // downstream router when Kind == Network
	PeerPort int      // input port index on Peer when Kind == Network
	Latency  int      // channel traversal time in cycles (>= 1)
}

// InPort describes the input side of a router port: where flits arriving on
// this port come from.
type InPort struct {
	Kind     PortKind
	Node     NodeID   // source node when Kind == Terminal
	Peer     RouterID // upstream router when Kind == Network
	PeerPort int      // output port index on Peer when Kind == Network
}

// Router holds the port tables for one router. In and Out may have
// different lengths for asymmetric routers (e.g. butterfly stages).
type Router struct {
	In  []InPort
	Out []OutPort
}

// Graph is the directed channel graph of a network: every unidirectional
// channel in the topology, plus the terminal attachment of every node.
// A bidirectional link is represented by two opposing channels.
type Graph struct {
	Label      string
	NumNodes   int
	Routers    []Router
	NodeRouter []RouterID // NodeRouter[n] = router node n injects at
	EjRouter   []RouterID // EjRouter[n] = router node n ejects from (== NodeRouter except in unidirectional multistage networks)
	InjPort    []int      // InjPort[n] = input port index of node n on NodeRouter[n]
	EjPort     []int      // EjPort[n] = output port index of node n on EjRouter[n]

	// Digest's memo: a graph is read-only once built.
	digestOnce sync.Once
	digest     uint64
}

// NewGraph allocates an empty graph with the given node and router counts.
// Callers fill in the port tables and should finish with Validate.
func NewGraph(label string, nodes, routers int) *Graph {
	return &Graph{
		Label:      label,
		NumNodes:   nodes,
		Routers:    make([]Router, routers),
		NodeRouter: make([]RouterID, nodes),
		EjRouter:   make([]RouterID, nodes),
		InjPort:    make([]int, nodes),
		EjPort:     make([]int, nodes),
	}
}

// Digest fingerprints the graph's full channel structure — every port's
// kind, peer and latency, and every node's attachment — so that state
// saved against one graph (a simulator snapshot) can refuse to load onto
// another. It is computed on first use and remembered: call it only on a
// finished graph. Snapshot files embed the value, so the walk below is
// frozen.
func (g *Graph) Digest() uint64 {
	g.digestOnce.Do(func() {
		h := crc32.NewIEEE()
		fmt.Fprintf(h, "%s|%d|%d|", g.Label, g.NumNodes, len(g.Routers))
		for r := range g.Routers {
			rd := &g.Routers[r]
			fmt.Fprintf(h, "r%d/%d;", len(rd.In), len(rd.Out))
			for p := range rd.In {
				ip := &rd.In[p]
				fmt.Fprintf(h, "i%d,%d,%d,%d;", ip.Kind, ip.Node, ip.Peer, ip.PeerPort)
			}
			for p := range rd.Out {
				op := &rd.Out[p]
				fmt.Fprintf(h, "o%d,%d,%d,%d,%d;", op.Kind, op.Node, op.Peer, op.PeerPort, op.Latency)
			}
		}
		for i := 0; i < g.NumNodes; i++ {
			fmt.Fprintf(h, "n%d,%d,%d,%d;", g.NodeRouter[i], g.EjRouter[i], g.InjPort[i], g.EjPort[i])
		}
		g.digest = uint64(h.Sum32())
	})
	return g.digest
}

// NumRouters returns the number of routers in the graph.
func (g *Graph) NumRouters() int { return len(g.Routers) }

// AttachNode wires node n to router r using input port inPort (injection)
// and output port outPort (ejection). The port slots must already exist.
func (g *Graph) AttachNode(n NodeID, r RouterID, inPort, outPort, latency int) {
	g.NodeRouter[n] = r
	g.EjRouter[n] = r
	g.InjPort[n] = inPort
	g.EjPort[n] = outPort
	g.Routers[r].In[inPort] = InPort{Kind: Terminal, Node: n}
	g.Routers[r].Out[outPort] = OutPort{Kind: Terminal, Node: n, Latency: latency}
}

// AttachNodeSplit wires node n with distinct injection and ejection
// routers, as in unidirectional multistage networks (butterflies).
func (g *Graph) AttachNodeSplit(n NodeID, injR RouterID, inPort int, ejR RouterID, outPort, latency int) {
	g.NodeRouter[n] = injR
	g.EjRouter[n] = ejR
	g.InjPort[n] = inPort
	g.EjPort[n] = outPort
	g.Routers[injR].In[inPort] = InPort{Kind: Terminal, Node: n}
	g.Routers[ejR].Out[outPort] = OutPort{Kind: Terminal, Node: n, Latency: latency}
}

// Connect adds a unidirectional channel from (fromRouter, fromOutPort) to
// (toRouter, toInPort) with the given latency in cycles.
func (g *Graph) Connect(from RouterID, fromOut int, to RouterID, toIn int, latency int) {
	g.Routers[from].Out[fromOut] = OutPort{Kind: Network, Peer: to, PeerPort: toIn, Latency: latency}
	g.Routers[to].In[toIn] = InPort{Kind: Network, Peer: from, PeerPort: fromOut}
}

// ConnectBidi adds the two opposing channels of a bidirectional link using
// the same port index on both routers' input and output sides.
func (g *Graph) ConnectBidi(a RouterID, aPort int, b RouterID, bPort int, latency int) {
	g.Connect(a, aPort, b, bPort, latency)
	g.Connect(b, bPort, a, aPort, latency)
}

// Validate checks structural invariants: every network channel is
// consistent end to end, every node is attached exactly once, and channel
// latencies are positive. It returns the first violation found.
func (g *Graph) Validate() error {
	if g.NumNodes != len(g.NodeRouter) || g.NumNodes != len(g.InjPort) || g.NumNodes != len(g.EjPort) {
		return fmt.Errorf("topo: %s: node table sizes inconsistent", g.Label)
	}
	for r := range g.Routers {
		for p, out := range g.Routers[r].Out {
			switch out.Kind {
			case Network:
				if out.Latency < 1 {
					return fmt.Errorf("topo: %s: router %d out port %d latency %d < 1", g.Label, r, p, out.Latency)
				}
				if int(out.Peer) < 0 || int(out.Peer) >= len(g.Routers) {
					return fmt.Errorf("topo: %s: router %d out port %d peer %d out of range", g.Label, r, p, out.Peer)
				}
				peerIn := g.Routers[out.Peer].In
				if out.PeerPort < 0 || out.PeerPort >= len(peerIn) {
					return fmt.Errorf("topo: %s: router %d out port %d peer port %d out of range", g.Label, r, p, out.PeerPort)
				}
				back := peerIn[out.PeerPort]
				if back.Kind != Network || back.Peer != RouterID(r) || back.PeerPort != p {
					return fmt.Errorf("topo: %s: channel %d.%d -> %d.%d not mirrored on input side",
						g.Label, r, p, out.Peer, out.PeerPort)
				}
			case Terminal:
				if out.Latency < 1 {
					return fmt.Errorf("topo: %s: router %d ejection port %d latency %d < 1", g.Label, r, p, out.Latency)
				}
				if int(out.Node) < 0 || int(out.Node) >= g.NumNodes {
					return fmt.Errorf("topo: %s: router %d ejection port %d node %d out of range", g.Label, r, p, out.Node)
				}
				if g.EjRouter[out.Node] != RouterID(r) || g.EjPort[out.Node] != p {
					return fmt.Errorf("topo: %s: ejection port %d.%d does not match node %d tables", g.Label, r, p, out.Node)
				}
			}
		}
		for p, in := range g.Routers[r].In {
			switch in.Kind {
			case Network:
				if int(in.Peer) < 0 || int(in.Peer) >= len(g.Routers) {
					return fmt.Errorf("topo: %s: router %d in port %d peer out of range", g.Label, r, p)
				}
				peerOut := g.Routers[in.Peer].Out
				if in.PeerPort < 0 || in.PeerPort >= len(peerOut) {
					return fmt.Errorf("topo: %s: router %d in port %d peer port out of range", g.Label, r, p)
				}
				fwd := peerOut[in.PeerPort]
				if fwd.Kind != Network || fwd.Peer != RouterID(r) || fwd.PeerPort != p {
					return fmt.Errorf("topo: %s: channel into %d.%d not mirrored on output side", g.Label, r, p)
				}
			case Terminal:
				if int(in.Node) < 0 || int(in.Node) >= g.NumNodes {
					return fmt.Errorf("topo: %s: router %d injection port %d node out of range", g.Label, r, p)
				}
				if g.NodeRouter[in.Node] != RouterID(r) || g.InjPort[in.Node] != p {
					return fmt.Errorf("topo: %s: injection port %d.%d does not match node %d tables", g.Label, r, p, in.Node)
				}
			}
		}
	}
	for n := 0; n < g.NumNodes; n++ {
		r, er := g.NodeRouter[n], g.EjRouter[n]
		if int(r) < 0 || int(r) >= len(g.Routers) || int(er) < 0 || int(er) >= len(g.Routers) {
			return fmt.Errorf("topo: %s: node %d routers %d/%d out of range", g.Label, n, r, er)
		}
		ip, ep := g.InjPort[n], g.EjPort[n]
		in := g.Routers[r].In
		if ip < 0 || ip >= len(in) || in[ip].Kind != Terminal || in[ip].Node != NodeID(n) {
			return fmt.Errorf("topo: %s: node %d injection port %d invalid", g.Label, n, ip)
		}
		out := g.Routers[er].Out
		if ep < 0 || ep >= len(out) || out[ep].Kind != Terminal || out[ep].Node != NodeID(n) {
			return fmt.Errorf("topo: %s: node %d ejection port %d invalid", g.Label, n, ep)
		}
	}
	return nil
}

// CountChannels returns the number of unidirectional network channels.
func (g *Graph) CountChannels() int {
	c := 0
	for r := range g.Routers {
		for _, out := range g.Routers[r].Out {
			if out.Kind == Network {
				c++
			}
		}
	}
	return c
}

// Degree returns the number of non-Unused output ports of router r.
func (g *Graph) Degree(r RouterID) int {
	d := 0
	for _, out := range g.Routers[r].Out {
		if out.Kind != Unused {
			d++
		}
	}
	return d
}

// Topology is implemented by every concrete network topology. The Graph
// carries the channel structure; routing algorithms additionally use the
// concrete type for coordinate arithmetic.
type Topology interface {
	// Graph returns the channel graph. The returned graph is shared, not
	// copied; callers must not mutate it.
	Graph() *Graph
	// Name returns a short human-readable identifier, e.g. "32-ary 2-flat".
	Name() string
}
