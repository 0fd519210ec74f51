package topo

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT emits the router-level graph in Graphviz DOT format: one node
// per router and one undirected edge per bidirectional link (a pair of
// opposing channels); one-way channels (butterfly stages) render as
// directed edges. Terminals are summarized in each router's label rather
// than drawn, which keeps large networks readable.
func WriteDOT(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "// %s: %d nodes, %d routers, %d channels\n", g.Label, g.NumNodes, len(g.Routers), g.CountChannels())
	fmt.Fprintln(bw, "graph network {")
	fmt.Fprintln(bw, "  node [shape=circle];")
	terms := make([]int, len(g.Routers))
	for _, r := range g.NodeRouter {
		terms[r]++
	}
	for r := range g.Routers {
		label := fmt.Sprintf("R%d", r)
		if terms[r] > 0 {
			label = fmt.Sprintf("R%d\\n%dT", r, terms[r])
		}
		fmt.Fprintf(bw, "  r%d [label=\"%s\"];\n", r, label)
	}
	for r := range g.Routers {
		for p, out := range g.Routers[r].Out {
			if out.Kind != Network {
				continue
			}
			// A link is bidirectional when the peer's same-numbered
			// output port comes back; draw it once, from the lower id.
			back := g.Routers[out.Peer].Out
			bidi := int(out.PeerPort) < len(back) &&
				back[out.PeerPort].Kind == Network &&
				int(back[out.PeerPort].Peer) == r &&
				int(back[out.PeerPort].PeerPort) == p
			switch {
			case bidi && int(out.Peer) > r:
				fmt.Fprintf(bw, "  r%d -- r%d;\n", r, out.Peer)
			case bidi:
				// Drawn from the other side.
			default:
				fmt.Fprintf(bw, "  r%d -- r%d [dir=forward];\n", r, out.Peer)
			}
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
