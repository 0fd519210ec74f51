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
	"strconv"
	"sync"
)

// NodeID identifies a terminal (processing node) in [0, NumNodes).
type NodeID int

// RouterID identifies a router in [0, NumRouters).
type RouterID int32

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
// this port arrives. It is the only stored record of a channel: the input
// side of every port is derived from the outputs that target it and from
// the node tables (Inputs). Peer names a router or a node by Kind, so
// every reader of it branches on Kind.
type OutPort struct {
	Kind     PortKind
	Peer     int32 // downstream RouterID when Kind == Network, destination NodeID when Kind == Terminal
	PeerPort int32 // input port index on Peer when Kind == Network
	Latency  int32 // channel traversal time in cycles (>= 1)
}

// InPort describes the input side of a router port: where flits arriving on
// this port come from. Graphs do not store it; Inputs derives it.
type InPort struct {
	Kind     PortKind
	Node     int32 // source NodeID when Kind == Terminal
	Peer     int32 // upstream RouterID when Kind == Network
	PeerPort int32 // output port index on Peer when Kind == Network
}

// Router holds the port table of one router: Out[p] is the output side of
// port p. Port p's input side, which a channel or a node's injection
// enters, has the same index, so every router has as many input ports as
// output ports.
type Router struct {
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
	InjPort    []int32    // InjPort[n] = input port index of node n on NodeRouter[n]
	EjPort     []int32    // EjPort[n] = output port index of node n on EjRouter[n]

	// Digest's memo: a graph is read-only once built.
	digestOnce sync.Once
	digest     uint64
}

// PortRun gives Routers consecutive routers Ports ports each.
type PortRun struct{ Routers, Ports int }

// NewGraph allocates an empty graph of the given node count whose routers
// come in runs, in router order: a uniform network passes one run, a
// two-level network (leaves, then middles) two. Every port table is a
// fixed-capacity window of one Out array per graph, all ports Unused.
// Callers fill in the port tables and should finish with Validate.
func NewGraph(label string, nodes int, runs ...PortRun) *Graph {
	routers, ports := 0, 0
	for _, run := range runs {
		routers += run.Routers
		ports += run.Routers * run.Ports
	}
	g := &Graph{
		Label:      label,
		NumNodes:   nodes,
		Routers:    make([]Router, routers),
		NodeRouter: make([]RouterID, nodes),
		EjRouter:   make([]RouterID, nodes),
		InjPort:    make([]int32, nodes),
		EjPort:     make([]int32, nodes),
	}
	out := make([]OutPort, ports)
	r, off := 0, 0
	for _, run := range runs {
		for i := 0; i < run.Routers; i++ {
			end := off + run.Ports
			g.Routers[r].Out = out[off:end:end]
			r, off = r+1, end
		}
	}
	return g
}

// portBase returns each router's first port in one numbering of every
// port of the graph, router by router, with the total port count last.
func (g *Graph) portBase() []int {
	base := make([]int, len(g.Routers)+1)
	for r := range g.Routers {
		base[r+1] = base[r] + len(g.Routers[r].Out)
	}
	return base
}

// Inputs derives the input side of every port of a valid graph, in
// router and port order: Inputs()[r][p] says where flits arriving on port
// p of router r come from — the output that targets it, a node's
// injection, or nothing. Each call builds a fresh table.
func (g *Graph) Inputs() [][]InPort {
	base := g.portBase()
	slab := make([]InPort, base[len(g.Routers)])
	in := make([][]InPort, len(g.Routers))
	for r := range in {
		in[r] = slab[base[r]:base[r+1]:base[r+1]]
	}
	for r := range g.Routers {
		for p, out := range g.Routers[r].Out {
			if out.Kind == Network {
				in[out.Peer][out.PeerPort] = InPort{Kind: Network, Peer: int32(r), PeerPort: int32(p)}
			}
		}
	}
	for n, r := range g.NodeRouter {
		in[r][g.InjPort[n]] = InPort{Kind: Terminal, Node: int32(n)}
	}
	return in
}

// Digest fingerprints the graph's full channel structure — every port's
// kind, peer and latency, and every node's attachment — so that state
// saved against one graph (a simulator snapshot) can refuse to load onto
// another. It is computed on first use and remembered: call it only on a
// finished graph. Snapshot files embed the value, so the walk below, the
// derived input side included, is frozen: the CRC-32 of
//
//	label|nodes|routers|
//	then per router  r<ports>/<ports>;
//	                 i<kind>,<node>,<peer>,<peerport>; per input port
//	                 o<kind>,<node>,<peer>,<peerport>,<latency>; per output port
//	then per node    n<router>,<ejrouter>,<injport>,<ejport>;
//
// with every number in decimal. An output names its node and peer as two
// fields, as the port tables once stored them: a terminal output prints
// (node, peer) = (Peer, 0).
func (g *Graph) Digest() uint64 {
	g.digestOnce.Do(func() {
		var crc uint32
		b := make([]byte, 0, 8192)
		num := func(v int64, sep byte) {
			b = strconv.AppendInt(b, v, 10)
			b = append(b, sep)
		}
		flush := func() {
			crc = crc32.Update(crc, crc32.IEEETable, b)
			b = b[:0]
		}
		b = append(b, g.Label...)
		b = append(b, '|')
		num(int64(g.NumNodes), '|')
		num(int64(len(g.Routers)), '|')
		inputs := g.Inputs()
		for r := range g.Routers {
			out := g.Routers[r].Out
			b = append(b, 'r')
			num(int64(len(out)), '/')
			num(int64(len(out)), ';')
			for p := range inputs[r] {
				ip := &inputs[r][p]
				b = append(b, 'i')
				num(int64(ip.Kind), ',')
				num(int64(ip.Node), ',')
				num(int64(ip.Peer), ',')
				num(int64(ip.PeerPort), ';')
			}
			for p := range out {
				op := &out[p]
				node, peer := int32(0), op.Peer
				if op.Kind == Terminal {
					node, peer = op.Peer, 0
				}
				b = append(b, 'o')
				num(int64(op.Kind), ',')
				num(int64(node), ',')
				num(int64(peer), ',')
				num(int64(op.PeerPort), ',')
				num(int64(op.Latency), ';')
			}
			if len(b) >= 4096 {
				flush()
			}
		}
		for i := 0; i < g.NumNodes; i++ {
			b = append(b, 'n')
			num(int64(g.NodeRouter[i]), ',')
			num(int64(g.EjRouter[i]), ',')
			num(int64(g.InjPort[i]), ',')
			num(int64(g.EjPort[i]), ';')
			if len(b) >= 4096 {
				flush()
			}
		}
		flush()
		g.digest = uint64(crc)
	})
	return g.digest
}

// NumRouters returns the number of routers in the graph.
func (g *Graph) NumRouters() int { return len(g.Routers) }

// AttachNode wires node n to router r using input port inPort (injection)
// and output port outPort (ejection). The port slots must already exist.
func (g *Graph) AttachNode(n NodeID, r RouterID, inPort, outPort, latency int) {
	g.AttachNodeSplit(n, r, inPort, r, outPort, latency)
}

// AttachNodeSplit wires node n with distinct injection and ejection
// routers, as in unidirectional multistage networks (butterflies). The
// injection side lives in the node tables alone.
func (g *Graph) AttachNodeSplit(n NodeID, injR RouterID, inPort int, ejR RouterID, outPort, latency int) {
	g.NodeRouter[n] = injR
	g.EjRouter[n] = ejR
	g.InjPort[n] = int32(inPort)
	g.EjPort[n] = int32(outPort)
	g.Routers[ejR].Out[outPort] = OutPort{Kind: Terminal, Peer: int32(n), Latency: int32(latency)}
}

// Connect adds a unidirectional channel from (fromRouter, fromOutPort) to
// (toRouter, toInPort) with the given latency in cycles.
func (g *Graph) Connect(from RouterID, fromOut int, to RouterID, toIn int, latency int) {
	g.Routers[from].Out[fromOut] = OutPort{Kind: Network, Peer: int32(to), PeerPort: int32(toIn), Latency: int32(latency)}
}

// ConnectBidi adds the two opposing channels of a bidirectional link using
// the same port index on both routers' input and output sides.
func (g *Graph) ConnectBidi(a RouterID, aPort int, b RouterID, bPort int, latency int) {
	g.Connect(a, aPort, b, bPort, latency)
	g.Connect(b, bPort, a, aPort, latency)
}

// Validate checks the structural invariants of a finished graph and
// returns the first violation, in router order and then node order:
//   - every network output reaches an in-range peer router and port, and
//     every output's latency is at least 1;
//   - no input port is entered twice: by two channels, or by a channel and
//     a node's injection, or by two nodes;
//   - every terminal output names the node whose ejection tables point at
//     it, and every node's ejection tables point at a terminal output
//     naming it, so each node ejects exactly once;
//   - every node injects at an in-range port.
//
// One pass over the output tables and one over the nodes, with a bitset
// of the entered input ports, do all of it.
func (g *Graph) Validate() error {
	if g.NumNodes != len(g.NodeRouter) || g.NumNodes != len(g.EjRouter) || g.NumNodes != len(g.InjPort) || g.NumNodes != len(g.EjPort) {
		return fmt.Errorf("topo: %s: node table sizes inconsistent", g.Label)
	}
	base := g.portBase()
	entered := make([]uint64, (base[len(g.Routers)]+63)/64)
	enter := func(r int32, p int) bool {
		i := base[r] + p
		w, bit := &entered[i>>6], uint64(1)<<(i&63)
		seen := *w&bit != 0
		*w |= bit
		return !seen
	}
	for r := range g.Routers {
		for p, out := range g.Routers[r].Out {
			switch out.Kind {
			case Network:
				if out.Latency < 1 {
					return fmt.Errorf("topo: %s: router %d out port %d latency %d < 1", g.Label, r, p, out.Latency)
				}
				if out.Peer < 0 || int(out.Peer) >= len(g.Routers) {
					return fmt.Errorf("topo: %s: router %d out port %d peer %d out of range", g.Label, r, p, out.Peer)
				}
				if out.PeerPort < 0 || int(out.PeerPort) >= len(g.Routers[out.Peer].Out) {
					return fmt.Errorf("topo: %s: router %d out port %d peer port %d out of range", g.Label, r, p, out.PeerPort)
				}
				if !enter(out.Peer, int(out.PeerPort)) {
					return fmt.Errorf("topo: %s: router %d out port %d enters %d.%d, which another channel enters too",
						g.Label, r, p, out.Peer, out.PeerPort)
				}
			case Terminal:
				if out.Latency < 1 {
					return fmt.Errorf("topo: %s: router %d ejection port %d latency %d < 1", g.Label, r, p, out.Latency)
				}
				if out.Peer < 0 || int(out.Peer) >= g.NumNodes {
					return fmt.Errorf("topo: %s: router %d ejection port %d node %d out of range", g.Label, r, p, out.Peer)
				}
				if g.EjRouter[out.Peer] != RouterID(r) || int(g.EjPort[out.Peer]) != p {
					return fmt.Errorf("topo: %s: router %d ejection port %d does not match node %d tables", g.Label, r, p, out.Peer)
				}
			}
		}
	}
	for n := 0; n < g.NumNodes; n++ {
		r, er := g.NodeRouter[n], g.EjRouter[n]
		if int(r) < 0 || int(r) >= len(g.Routers) || int(er) < 0 || int(er) >= len(g.Routers) {
			return fmt.Errorf("topo: %s: node %d routers %d/%d out of range", g.Label, n, r, er)
		}
		ip := int(g.InjPort[n])
		if ip < 0 || ip >= len(g.Routers[r].Out) {
			return fmt.Errorf("topo: %s: node %d injection port %d.%d out of range", g.Label, n, r, ip)
		}
		if !enter(int32(r), ip) {
			return fmt.Errorf("topo: %s: node %d injects at %d.%d, which a channel or another node enters too", g.Label, n, r, ip)
		}
		out, ep := g.Routers[er].Out, int(g.EjPort[n])
		if ep < 0 || ep >= len(out) || out[ep].Kind != Terminal || out[ep].Peer != int32(n) {
			return fmt.Errorf("topo: %s: node %d ejection port %d.%d does not name it", g.Label, n, er, ep)
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
